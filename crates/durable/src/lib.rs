#![warn(missing_docs)]
//! Durable storage engine: a segmented write-ahead log.
//!
//! The paper's mirror was built by a 14-month crawl; a process that long
//! *will* be killed mid-flight. This crate is the crash story: callers
//! journal opaque `(tag, payload)` records into a segmented binary WAL
//! (fixed segment header carrying magic/version/segment-number/store
//! UUID, CRC32 per record, explicit append → sync → rotate lifecycle)
//! and recover after a kill by replaying every segment from the first.
//! The WAL is the only recovery source: there are no snapshots and no
//! compaction, so nothing is written twice and no segment is ever
//! deleted.
//!
//! The engine knows nothing about what the records *mean* — payloads are
//! opaque bytes; `crawler::journal` owns the crawl-specific semantics.
//!
//! Durability contract:
//!
//! * a record is durable once [`DurableStore::sync`] returns after its
//!   append (appends are buffered until then);
//! * on [`open`](DurableStore::open), a torn final record (the classic
//!   kill-during-append) is truncated away and recovery continues;
//!   corruption anywhere else — bad magic, wrong version, foreign store
//!   UUID, CRC mismatch in a sealed segment, a missing first segment or
//!   a gap in the segment sequence — is detected and reported, never
//!   silently skipped.
//!
//! Metrics (when a registry is attached): counters `wal.appends`,
//! `wal.fsyncs`, `wal.rotations` and `wal.replayed_records`.
//!
//! For crash testing, a [`Failpoint`] kills the store at a seeded
//! append ("op") count — optionally leaving a torn half-record on disk —
//! by returning an [`io::ErrorKind::Interrupted`] error the caller
//! propagates; `simcheck`'s `crash.*` oracle family drives it.

mod crc;
mod fsutil;
mod wal;

pub use crc::crc32;
pub use fsutil::{atomic_write_file, fsync_dir};

use std::io;
use std::path::{Path, PathBuf};

/// On-disk format version stamped into every segment header.
pub const FORMAT_VERSION: u32 = 1;

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"DSRWALv1";

/// A seeded kill point for crash testing: the store fails the
/// `kill_at_op`-th append (1-based) with an
/// [`io::ErrorKind::Interrupted`] error, optionally writing a torn
/// half-record first so recovery's truncate-and-continue path is
/// exercised too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failpoint {
    /// Fail the nth append (1-based); `None` disables the failpoint.
    pub kill_at_op: Option<u64>,
    /// Write a torn half-record before failing.
    pub torn_tail: bool,
}

/// Store tuning.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Rotate the live segment once it holds at least this many bytes
    /// (each segment always accepts at least one record).
    pub segment_max_bytes: u64,
    /// Seeded kill point for crash testing.
    pub failpoint: Failpoint,
    /// Registry for the `wal.*` counters.
    pub metrics: Option<obs::Registry>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            // Rotation costs three fsyncs (seal, new header, directory);
            // segments sized well above the per-checkpoint write volume
            // keep that off the append hot path.
            segment_max_bytes: 4 * 1024 * 1024,
            failpoint: Failpoint::default(),
            metrics: None,
        }
    }
}

/// One journaled record: an opaque payload under a caller-defined tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Caller-defined record type.
    pub tag: u32,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Everything [`DurableStore::open`] recovered from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Every WAL record, in append order.
    pub records: Vec<Record>,
    /// A torn tail (incomplete or corrupt final record / segment header)
    /// was found and truncated away.
    pub torn_tail_recovered: bool,
}

struct Counters {
    appends: obs::Counter,
    fsyncs: obs::Counter,
    rotations: obs::Counter,
    replayed: obs::Counter,
}

impl Counters {
    fn new(metrics: &Option<obs::Registry>) -> Option<Self> {
        metrics.as_ref().map(|m| Self {
            appends: m.counter("wal.appends"),
            fsyncs: m.counter("wal.fsyncs"),
            rotations: m.counter("wal.rotations"),
            replayed: m.counter("wal.replayed_records"),
        })
    }
}

/// A segmented WAL store rooted at one directory.
pub struct DurableStore {
    dir: PathBuf,
    uuid: [u8; 16],
    writer: wal::SegmentWriter,
    ops: u64,
    options: StoreOptions,
    counters: Option<Counters>,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("segment", &self.writer.segment_number())
            .field("ops", &self.ops)
            .finish()
    }
}

fn corrupt(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// The error a triggered [`Failpoint`] raises.
fn kill_error(op: u64) -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, format!("durable failpoint: killed at op {op}"))
}

/// Was `e` raised by a triggered [`Failpoint`] (as opposed to a real
/// I/O failure)?
pub fn is_kill_error(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Interrupted && e.to_string().contains("durable failpoint")
}

/// A process-unique store UUID. Not derived from any seed on purpose:
/// WAL bytes are never compared across runs (only recovered *state* is),
/// and a colliding UUID would mask cross-store mixups.
fn fresh_uuid() -> [u8; 16] {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut state = std::process::id() as u64;
    state ^= std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    state ^= SEQ.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut out = [0u8; 16];
    for chunk in out.chunks_mut(8) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        chunk.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out
}

impl DurableStore {
    /// Create a fresh store in `dir` (created if missing). Fails if the
    /// directory already holds store files — recovery goes through
    /// [`DurableStore::open`], never through silent re-initialization.
    pub fn create(dir: &Path, options: StoreOptions) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        if !wal::list_segments(dir)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{}: durable store already exists; use open()", dir.display()),
            ));
        }
        let uuid = fresh_uuid();
        let counters = Counters::new(&options.metrics);
        let writer = wal::SegmentWriter::create(dir, 1, uuid)?;
        fsutil::fsync_dir(dir)?;
        Ok(Self { dir: dir.to_path_buf(), uuid, writer, ops: 0, options, counters })
    }

    /// Open an existing store: replay every segment from the first
    /// (truncating a torn final record) and position the log for further
    /// appends.
    pub fn open(dir: &Path, options: StoreOptions) -> io::Result<(Self, Recovered)> {
        let segments = wal::list_segments(dir)?;
        let Some(&(first, _)) = segments.first() else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}: not a durable store (no segments)", dir.display()),
            ));
        };
        if first != 1 {
            return Err(corrupt(format!(
                "{}: segment 1 (wal_00000001.seg) is missing; the log starts at segment {first}",
                dir.display()
            )));
        }
        for pair in segments.windows(2) {
            if pair[1].0 != pair[0].0 + 1 {
                return Err(corrupt(format!("segment gap: {} jumps to {}", pair[0].0, pair[1].0)));
            }
        }

        let counters = Counters::new(&options.metrics);
        let mut uuid = None;
        let mut records = Vec::new();
        let mut torn = false;
        let mut live = None;
        for (i, (num, path)) in segments.iter().enumerate() {
            let (num, last) = (*num, i + 1 == segments.len());
            match wal::read_segment(path, num, &mut uuid, last)? {
                wal::SegmentRead::Valid { records: recs, truncated_to } => {
                    if let Some(c) = &counters {
                        c.replayed.add(recs.len() as u64);
                    }
                    records.extend(recs);
                    if last {
                        if let Some(end) = truncated_to {
                            torn = true;
                            wal::truncate_segment(path, end)?;
                        }
                        live = Some(wal::SegmentWriter::reopen(path, num)?);
                    } else if truncated_to.is_some() {
                        unreachable!("only the final segment is ever truncated");
                    }
                }
                wal::SegmentRead::TornHeader => {
                    // A crash between segment creation and its header
                    // hitting disk: the file carries no records. Re-seed
                    // it in place so the numbering stays contiguous.
                    torn = true;
                    let uuid_now = uuid.ok_or_else(|| {
                        corrupt(format!("{}: torn header on the only segment", path.display()))
                    })?;
                    std::fs::remove_file(path)?;
                    live = Some(wal::SegmentWriter::create(dir, num, uuid_now)?);
                    fsutil::fsync_dir(dir)?;
                }
            }
        }

        let uuid = uuid.expect("uuid established from at least one segment header");
        let writer = live.expect("the final segment is always reopened or re-seeded");
        let recovered = Recovered { records, torn_tail_recovered: torn };
        Ok((
            Self { dir: dir.to_path_buf(), uuid, writer, ops: 0, options, counters },
            recovered,
        ))
    }

    /// Append one record (buffered; durable after the next
    /// [`sync`](DurableStore::sync)). Rotates the live segment first
    /// when it is over the size cap.
    pub fn append(&mut self, tag: u32, payload: &[u8]) -> io::Result<()> {
        if self.writer.bytes_written() >= self.options.segment_max_bytes {
            self.rotate()?;
        }
        self.ops += 1;
        if self.options.failpoint.kill_at_op == Some(self.ops) {
            if self.options.failpoint.torn_tail {
                self.writer.write_torn_record(tag, payload)?;
            }
            return Err(kill_error(self.ops));
        }
        self.writer.append(tag, payload)?;
        if let Some(c) = &self.counters {
            c.appends.inc();
        }
        Ok(())
    }

    /// Flush and fsync the live segment: every append so far is durable
    /// once this returns.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()?;
        if let Some(c) = &self.counters {
            c.fsyncs.inc();
        }
        Ok(())
    }

    /// Seal the live segment (synced) and open the next one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let next = self.writer.segment_number() + 1;
        self.writer = wal::SegmentWriter::create(&self.dir, next, self.uuid)?;
        fsutil::fsync_dir(&self.dir)?;
        if let Some(c) = &self.counters {
            c.rotations.inc();
        }
        Ok(())
    }

    /// Appends attempted so far on this handle (the failpoint op
    /// counter).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The live segment's number.
    pub fn segment_number(&self) -> u64 {
        self.writer.segment_number()
    }

    /// The store UUID stamped into every segment.
    pub fn uuid(&self) -> [u8; 16] {
        self.uuid
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
