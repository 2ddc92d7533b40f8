//! Lifecycle and corruption coverage for the durable store: the
//! append/sync/rotate path, failpoint kills (clean and torn-tail), and
//! every corruption class the format is supposed to detect — flipped
//! CRC byte, short segment header, wrong magic/version/UUID, a missing
//! or skipped segment, torn final record.

use durable::{DurableStore, Failpoint, StoreOptions};
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!(
            "durable-store-{tag}-{}-{:x}",
            std::process::id(),
            {
                use std::sync::atomic::{AtomicU64, Ordering};
                static SEQ: AtomicU64 = AtomicU64::new(0);
                SEQ.fetch_add(1, Ordering::Relaxed)
            }
        ));
        std::fs::create_dir_all(&d).unwrap();
        Self(d)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn opts() -> StoreOptions {
    StoreOptions::default()
}

#[test]
fn append_sync_reopen_replays_everything_in_order() {
    let tmp = TempDir::new("roundtrip");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    for i in 0u32..100 {
        store.append(i % 7, format!("payload-{i}").as_bytes()).unwrap();
    }
    store.sync().unwrap();
    drop(store);

    let (_, recovered) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert!(!recovered.torn_tail_recovered);
    assert_eq!(recovered.records.len(), 100);
    for (i, rec) in recovered.records.iter().enumerate() {
        assert_eq!(rec.tag, (i % 7) as u32);
        assert_eq!(rec.payload, format!("payload-{i}").into_bytes());
    }
}

#[test]
fn create_refuses_an_existing_store() {
    let tmp = TempDir::new("nooverwrite");
    let store = DurableStore::create(tmp.path(), opts()).unwrap();
    drop(store);
    let err = DurableStore::create(tmp.path(), opts()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
}

#[test]
fn open_refuses_an_empty_directory() {
    let tmp = TempDir::new("notastore");
    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
}

#[test]
fn rotation_spreads_records_across_segments() {
    let tmp = TempDir::new("rotate");
    let options = StoreOptions { segment_max_bytes: 256, ..StoreOptions::default() };
    let mut store = DurableStore::create(tmp.path(), options.clone()).unwrap();
    for i in 0u32..50 {
        store.append(1, format!("record-number-{i:04}").as_bytes()).unwrap();
    }
    store.sync().unwrap();
    assert!(store.segment_number() > 1, "256-byte cap must have forced rotations");
    drop(store);

    let (_, recovered) = DurableStore::open(tmp.path(), options).unwrap();
    assert_eq!(recovered.records.len(), 50);
    assert_eq!(recovered.records[49].payload, b"record-number-0049");
}

#[test]
fn failpoint_kills_the_exact_op_and_is_recognizable() {
    let tmp = TempDir::new("failpoint");
    let options = StoreOptions {
        failpoint: Failpoint { kill_at_op: Some(3), torn_tail: false },
        ..StoreOptions::default()
    };
    let mut store = DurableStore::create(tmp.path(), options).unwrap();
    store.append(1, b"one").unwrap();
    store.append(1, b"two").unwrap();
    let err = store.append(1, b"three").unwrap_err();
    assert!(durable::is_kill_error(&err), "not a kill error: {err}");
    assert!(!durable::is_kill_error(&std::io::Error::other("disk on fire")));
    drop(store);

    // The killed op never made it in; the first two are intact.
    let (_, recovered) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert_eq!(recovered.records.len(), 2);
    assert!(!recovered.torn_tail_recovered);
}

#[test]
fn torn_tail_from_a_failpoint_kill_is_truncated_and_recovered() {
    let tmp = TempDir::new("torntail");
    let options = StoreOptions {
        failpoint: Failpoint { kill_at_op: Some(3), torn_tail: true },
        ..StoreOptions::default()
    };
    let mut store = DurableStore::create(tmp.path(), options).unwrap();
    store.append(1, b"one").unwrap();
    store.append(1, b"two").unwrap();
    store.sync().unwrap();
    let err = store.append(1, b"three-will-tear").unwrap_err();
    assert!(durable::is_kill_error(&err));
    drop(store);

    let (mut reopened, recovered) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert!(recovered.torn_tail_recovered, "torn tail must be reported");
    assert_eq!(recovered.records.len(), 2);

    // The store is fully usable after truncation: append, sync, replay.
    reopened.append(1, b"after-recovery").unwrap();
    reopened.sync().unwrap();
    drop(reopened);
    let (_, again) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert!(!again.torn_tail_recovered);
    assert_eq!(again.records.len(), 3);
    assert_eq!(again.records[2].payload, b"after-recovery");
}

#[test]
fn torn_final_record_with_empty_payload_is_recovered_too() {
    let tmp = TempDir::new("tornempty");
    let options = StoreOptions {
        failpoint: Failpoint { kill_at_op: Some(2), torn_tail: true },
        ..StoreOptions::default()
    };
    let mut store = DurableStore::create(tmp.path(), options).unwrap();
    store.append(1, b"one").unwrap();
    store.sync().unwrap();
    assert!(store.append(7, b"").is_err());
    drop(store);

    let (_, recovered) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert!(recovered.torn_tail_recovered);
    assert_eq!(recovered.records.len(), 1);
}

#[test]
fn flipped_crc_byte_in_a_sealed_segment_is_detected() {
    let tmp = TempDir::new("crcflip");
    let options = StoreOptions { segment_max_bytes: 64, ..opts() };
    let mut store = DurableStore::create(tmp.path(), options.clone()).unwrap();
    for i in 0u32..20 {
        store.append(1, format!("record-{i:04}").as_bytes()).unwrap();
    }
    store.sync().unwrap();
    assert!(store.segment_number() >= 2);
    drop(store);

    // Flip one payload byte in the first (sealed) segment, past the
    // 40-byte header.
    let path = tmp.path().join("wal_00000001.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[55] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let err = DurableStore::open(tmp.path(), options).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("sealed segment"), "{err}");
}

#[test]
fn short_header_on_a_sealed_segment_is_an_error() {
    let tmp = TempDir::new("shorthdr");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"x").unwrap();
    store.rotate().unwrap();
    store.append(1, b"y").unwrap();
    store.sync().unwrap();
    drop(store);

    let path = tmp.path().join("wal_00000001.seg");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..10]).unwrap();

    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("short segment header"), "{err}");
}

#[test]
fn short_header_on_the_final_segment_is_recovered_in_place() {
    let tmp = TempDir::new("tornhdr");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"keep-me").unwrap();
    store.rotate().unwrap();
    drop(store);

    // Simulate a crash between creating wal_00000002.seg and its header
    // reaching disk.
    let path = tmp.path().join("wal_00000002.seg");
    std::fs::write(&path, b"DSRW").unwrap();

    let (mut reopened, recovered) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert!(recovered.torn_tail_recovered);
    assert_eq!(recovered.records.len(), 1);
    assert_eq!(reopened.segment_number(), 2, "numbering stays contiguous");
    reopened.append(1, b"fresh").unwrap();
    reopened.sync().unwrap();
    drop(reopened);
    let (_, again) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert_eq!(again.records.len(), 2);
}

#[test]
fn wrong_magic_is_detected() {
    let tmp = TempDir::new("magic");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"x").unwrap();
    store.sync().unwrap();
    drop(store);

    let path = tmp.path().join("wal_00000001.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();

    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert!(err.to_string().contains("bad WAL magic"), "{err}");
}

#[test]
fn wrong_version_is_detected() {
    let tmp = TempDir::new("version");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"x").unwrap();
    store.sync().unwrap();
    drop(store);

    let path = tmp.path().join("wal_00000001.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = 99;
    std::fs::write(&path, &bytes).unwrap();

    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert!(err.to_string().contains("unsupported WAL format version"), "{err}");
}

#[test]
fn foreign_uuid_is_detected() {
    let tmp = TempDir::new("uuid");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"x").unwrap();
    store.rotate().unwrap();
    store.append(1, b"y").unwrap();
    store.sync().unwrap();
    drop(store);

    // Rewrite segment 2's UUID: a segment from some other store that
    // landed in this directory.
    let path = tmp.path().join("wal_00000002.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    for b in &mut bytes[24..40] {
        *b ^= 0xA5;
    }
    std::fs::write(&path, &bytes).unwrap();

    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert!(err.to_string().contains("UUID mismatch"), "{err}");
}

#[test]
fn segment_number_mismatch_is_detected() {
    let tmp = TempDir::new("renamed");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"x").unwrap();
    store.rotate().unwrap();
    store.append(1, b"y").unwrap();
    store.sync().unwrap();
    drop(store);

    // Segment 1's bytes under segment 2's name: the numbering is
    // contiguous, but the header says otherwise.
    std::fs::copy(tmp.path().join("wal_00000001.seg"), tmp.path().join("wal_00000002.seg"))
        .unwrap();

    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert!(err.to_string().contains("file name says"), "{err}");
}

#[test]
fn segment_gap_is_detected() {
    let tmp = TempDir::new("gap");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"a").unwrap();
    store.rotate().unwrap();
    store.append(1, b"b").unwrap();
    store.rotate().unwrap();
    store.append(1, b"c").unwrap();
    store.sync().unwrap();
    drop(store);

    std::fs::remove_file(tmp.path().join("wal_00000002.seg")).unwrap();

    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert!(err.to_string().contains("segment gap"), "{err}");
}

#[test]
fn missing_first_segment_is_detected() {
    let tmp = TempDir::new("nofirst");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"a").unwrap();
    store.rotate().unwrap();
    store.append(1, b"b").unwrap();
    store.sync().unwrap();
    drop(store);

    // Replaying from segment 2 would silently drop record "a".
    std::fs::remove_file(tmp.path().join("wal_00000001.seg")).unwrap();

    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("wal_00000001.seg"), "{err}");
}

#[test]
fn metrics_counters_track_the_lifecycle() {
    let tmp = TempDir::new("metrics");
    let registry = obs::Registry::new();
    let options = StoreOptions {
        metrics: Some(registry.clone()),
        ..StoreOptions::default()
    };
    let mut store = DurableStore::create(tmp.path(), options).unwrap();
    store.append(1, b"a").unwrap();
    store.append(1, b"b").unwrap();
    store.rotate().unwrap();
    store.append(1, b"c").unwrap();
    store.sync().unwrap();
    drop(store);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("wal.appends"), Some(3));
    assert!(snap.counter("wal.fsyncs").unwrap_or(0) >= 2);
    assert_eq!(snap.counter("wal.rotations"), Some(1));

    // Replay counts land in a fresh registry on open.
    let reopen_registry = obs::Registry::new();
    let reopen_options = StoreOptions {
        metrics: Some(reopen_registry.clone()),
        ..StoreOptions::default()
    };
    let (_, recovered) = DurableStore::open(tmp.path(), reopen_options).unwrap();
    assert_eq!(recovered.records.len(), 3);
    assert_eq!(reopen_registry.snapshot().counter("wal.replayed_records"), Some(3));
}
