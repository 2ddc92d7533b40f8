#![warn(missing_docs)]
//! Durable storage engine: a write-ahead log in one append-only file.
//!
//! The paper's mirror was built by a 14-month crawl; a process that long
//! *will* be killed mid-flight. This crate is the crash story: callers
//! journal opaque `(tag, payload)` records into a binary WAL — one file,
//! `journal.wal`, opened by a magic/version header, CRC32 per record,
//! explicit append → sync lifecycle — and recover after a kill by
//! replaying the file from its first record. The WAL is the only
//! recovery source: there are no snapshots and no compaction, so nothing
//! is written twice and nothing is ever deleted, which is why the log
//! needs no segments.
//!
//! The engine knows nothing about what the records *mean* — payloads are
//! opaque bytes; `crawler::journal` owns the crawl-specific semantics.
//!
//! Durability contract:
//!
//! * a record is durable once [`DurableStore::sync`] returns after its
//!   append (appends are buffered until then);
//! * on [`open`](DurableStore::open), a torn final record (the classic
//!   kill-during-append: cut short by end-of-file, or failing its CRC
//!   with nothing after it) is truncated away and recovery continues,
//!   and a file shorter than its header is re-seeded in place;
//!   corruption anywhere else — bad magic, wrong version, a record that
//!   fails its CRC with more bytes after it, a damaged length field — is
//!   reported as [`io::ErrorKind::InvalidData`] with its byte offset,
//!   never silently skipped.
//!
//! Metrics (when a registry is attached): counters `wal.appends`,
//! `wal.fsyncs` and `wal.replayed_records`.
//!
//! For crash testing, a [`Failpoint`] kills the store at a seeded
//! append ("op") count — optionally leaving a torn half-record on disk —
//! by returning an [`io::ErrorKind::Interrupted`] error the caller
//! propagates; `simcheck`'s `crash.*` oracle family drives it.

mod crc;
mod fsutil;
mod wal;

pub use fsutil::atomic_write_file;

use std::io;
use std::path::Path;

/// On-disk format version stamped into the file header. Version 1 was a
/// directory of numbered segments, which [`DurableStore::open`] does not
/// read.
const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening the journal file.
const WAL_MAGIC: [u8; 8] = *b"DSRWALv1";

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
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// Seeded kill point for crash testing.
    pub failpoint: Failpoint,
    /// Registry for the `wal.*` counters.
    pub metrics: Option<obs::Registry>,
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
    /// A torn tail (an incomplete or corrupt final record, or an
    /// incomplete file header) was found and truncated away.
    pub torn_tail_recovered: bool,
}

struct Counters {
    appends: obs::Counter,
    fsyncs: obs::Counter,
    replayed: obs::Counter,
}

impl Counters {
    fn new(metrics: &Option<obs::Registry>) -> Option<Self> {
        metrics.as_ref().map(|m| Self {
            appends: m.counter("wal.appends"),
            fsyncs: m.counter("wal.fsyncs"),
            replayed: m.counter("wal.replayed_records"),
        })
    }
}

/// A WAL store: one append-only file in its directory.
pub struct DurableStore {
    writer: wal::Writer,
    /// Appends attempted on this handle (the failpoint op counter).
    ops: u64,
    options: StoreOptions,
    counters: Option<Counters>,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore").field("ops", &self.ops).finish_non_exhaustive()
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

impl DurableStore {
    /// Create a fresh store in `dir` (created if missing). Fails if the
    /// directory already holds a journal file — recovery goes through
    /// [`DurableStore::open`], never through silent re-initialization.
    pub fn create(dir: &Path, options: StoreOptions) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(wal::FILE_NAME);
        let writer = wal::Writer::create(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::AlreadyExists {
                io::Error::new(
                    e.kind(),
                    format!("{}: durable store already exists; use open()", path.display()),
                )
            } else {
                e
            }
        })?;
        fsutil::fsync_dir(dir)?;
        let counters = Counters::new(&options.metrics);
        Ok(Self { writer, ops: 0, options, counters })
    }

    /// Open an existing store: replay the journal file from its first
    /// record (truncating a torn final record) and position it for
    /// further appends.
    pub fn open(dir: &Path, options: StoreOptions) -> io::Result<(Self, Recovered)> {
        let path = dir.join(wal::FILE_NAME);
        let replay = wal::replay(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                io::Error::new(
                    e.kind(),
                    format!("{}: not a durable store (no {})", dir.display(), wal::FILE_NAME),
                )
            } else {
                e
            }
        })?;
        let writer = wal::Writer::reopen(&path, replay.end)?;
        let counters = Counters::new(&options.metrics);
        if let Some(c) = &counters {
            c.replayed.add(replay.records.len() as u64);
        }
        let recovered = Recovered { records: replay.records, torn_tail_recovered: replay.torn };
        Ok((Self { writer, ops: 0, options, counters }, recovered))
    }

    /// Append one record (buffered; durable after the next
    /// [`sync`](DurableStore::sync)).
    pub fn append(&mut self, tag: u32, payload: &[u8]) -> io::Result<()> {
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

    /// Flush and fsync the journal file: every append so far is durable
    /// once this returns.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()?;
        if let Some(c) = &self.counters {
            c.fsyncs.inc();
        }
        Ok(())
    }
}
