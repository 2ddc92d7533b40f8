//! Lifecycle and corruption coverage for the durable store: the
//! append/sync path, failpoint kills (clean and torn-tail), and every
//! corruption class the format is supposed to detect — a flipped byte
//! anywhere in an earlier record, a short file header, wrong
//! magic/version, a torn final record cut at any byte.

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

fn journal_file(dir: &Path) -> PathBuf {
    dir.join("journal.wal")
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
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
fn flipping_any_byte_of_an_earlier_frame_is_invalid_data() {
    let tmp = TempDir::new("crcflip");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.sync().unwrap();
    let first = file_len(&journal_file(tmp.path()));
    store.append(1, b"record-0000").unwrap();
    store.sync().unwrap();
    let second = file_len(&journal_file(tmp.path()));
    store.append(2, b"record-0001").unwrap();
    store.append(3, b"").unwrap();
    store.sync().unwrap();
    drop(store);
    let pristine = std::fs::read(journal_file(tmp.path())).unwrap();

    // Every byte of the first frame: length, tag, CRC and payload. A
    // length flip can run the frame past end-of-file; that must not pass
    // for a torn tail, because the bytes after it are records.
    for at in first..second {
        let mut bytes = pristine.clone();
        bytes[at as usize] ^= 0xFF;
        std::fs::write(journal_file(tmp.path()), &bytes).unwrap();
        let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "byte {at}: {err}");
        assert!(err.to_string().contains(&format!("byte {first}")), "byte {at}: {err}");
    }
    // The file is left as it was found: nothing was truncated.
    assert_eq!(file_len(&journal_file(tmp.path())), pristine.len() as u64);
}

#[test]
fn cutting_the_final_frame_at_any_byte_recovers_the_complete_frames() {
    let tmp = TempDir::new("cutall");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    for i in 0u32..3 {
        store.append(i, format!("complete-{i}").as_bytes()).unwrap();
    }
    store.sync().unwrap();
    let complete = file_len(&journal_file(tmp.path()));
    store.append(9, b"the final frame, cut short").unwrap();
    store.sync().unwrap();
    drop(store);
    let pristine = std::fs::read(journal_file(tmp.path())).unwrap();

    for cut in complete + 1..pristine.len() as u64 {
        let dir = TempDir::new("cut");
        std::fs::write(journal_file(dir.path()), &pristine[..cut as usize]).unwrap();
        let (mut reopened, recovered) = DurableStore::open(dir.path(), opts()).unwrap();
        assert!(recovered.torn_tail_recovered, "cut at {cut}");
        let tags: Vec<u32> = recovered.records.iter().map(|r| r.tag).collect();
        assert_eq!(tags, [0, 1, 2], "cut at {cut}");
        assert_eq!(file_len(&journal_file(dir.path())), complete, "cut at {cut}");

        reopened.append(4, b"after").unwrap();
        reopened.sync().unwrap();
        drop(reopened);
        let (_, again) = DurableStore::open(dir.path(), opts()).unwrap();
        assert!(!again.torn_tail_recovered, "cut at {cut}");
        assert_eq!(again.records.len(), 4, "cut at {cut}");
    }
}

#[test]
fn a_segmented_store_directory_is_refused_by_name() {
    let tmp = TempDir::new("oldformat");
    // Format version 1 kept numbered segments; its directory holds no
    // journal file and is never partly replayed.
    std::fs::write(tmp.path().join("wal_00000001.seg"), b"DSRWALv1\x01\0\0\0").unwrap();
    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("journal.wal"), "{err}");
}

#[test]
fn a_file_shorter_than_its_header_is_reseeded_in_place() {
    let tmp = TempDir::new("tornhdr");
    drop(DurableStore::create(tmp.path(), opts()).unwrap());

    // Simulate a crash between creating the journal file and its header
    // reaching disk.
    std::fs::write(journal_file(tmp.path()), b"DSRW").unwrap();

    let (mut reopened, recovered) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert!(recovered.torn_tail_recovered);
    assert!(recovered.records.is_empty());
    reopened.append(1, b"fresh").unwrap();
    reopened.sync().unwrap();
    drop(reopened);
    let (_, again) = DurableStore::open(tmp.path(), opts()).unwrap();
    assert!(!again.torn_tail_recovered);
    assert_eq!(again.records.len(), 1);
    assert_eq!(again.records[0].payload, b"fresh");
}

#[test]
fn wrong_magic_is_detected() {
    let tmp = TempDir::new("magic");
    let mut store = DurableStore::create(tmp.path(), opts()).unwrap();
    store.append(1, b"x").unwrap();
    store.sync().unwrap();
    drop(store);

    let path = journal_file(tmp.path());
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

    let path = journal_file(tmp.path());
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = 99;
    std::fs::write(&path, &bytes).unwrap();

    let err = DurableStore::open(tmp.path(), opts()).unwrap_err();
    assert!(err.to_string().contains("unsupported WAL format version"), "{err}");
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
    store.sync().unwrap();
    store.append(1, b"b").unwrap();
    store.append(1, b"c").unwrap();
    store.sync().unwrap();
    drop(store);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("wal.appends"), Some(3));
    assert_eq!(snap.counter("wal.fsyncs"), Some(2));

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
