//! Durable crawl journaling — the crash story for paper-duration crawls.
//!
//! The paper's mirror took a 14-month longitudinal crawl; a process
//! that long *will* be killed mid-flight. This module wires the crawl
//! through [`durable`]'s WAL, one append-only file, so a killed crawl
//! resumes instead of restarting:
//!
//! * after every completed phase, [`Journal::commit_phase`] appends the
//!   phase's store mutations as WAL records (entity upserts, the shadow
//!   validation counters), then the ETag representations cached since
//!   the previous commit (so `If-None-Match` revalidation survives the
//!   crash), then a checkpoint record, and syncs — the phase is durable
//!   once the checkpoint is. The three steps run under the
//!   `journal.entities`, `journal.reval` and `journal.sync` spans;
//! * [`Journal::recover`] rebuilds the store by replaying the whole WAL.
//!   Records after the last checkpoint belong to an interrupted phase
//!   boundary and are **discarded** (staged but never applied): the
//!   interrupted phase re-runs in full on resume, so applying a partial
//!   batch would double its vector entities. The resume path first
//!   appends a rollback marker making that discard durable — replaying
//!   the same WAL twice stays idempotent without any dedup heuristics;
//! * ETag records are the exception: they are applied immediately even
//!   when uncheckpointed, because a cached representation is
//!   content-derived and only makes the re-run cheaper (`304`s instead
//!   of full bodies — the `http.<service>.not_modified` counters).
//!
//! The WAL is the journal's only copy of the crawl. A crawl has seven
//! phases, each journaling only the store fields it owns, so every
//! entity is written once; a snapshot of the full store would re-encode
//! what the WAL already holds without shortening recovery, which reads
//! the same records either way. Nothing is ever deleted from the WAL,
//! so the journal directory holds one file.
//!
//! Entity payloads reuse [`crate::persist`]'s JSON codecs, so a WAL
//! record and an archive line are the same bytes per entity. Crawl
//! statistics are not journaled — they describe a crawl *run*, not the
//! mirror, and a resumed run legitimately has different stats.

use crate::persist;
use crate::resilience::Phase;
use crate::store::CrawlStore;
use durable::DurableStore;
use httpnet::{Headers, Response, Status};
use jsonlite::Value;
use std::io;
use std::path::Path;

pub use durable::{is_kill_error, Failpoint};

// WAL record tags.
const TAG_GAB: u32 = 1;
const TAG_USERNAME: u32 = 2;
const TAG_USER: u32 = 3;
const TAG_URL: u32 = 4;
const TAG_COMMENT: u32 = 5;
const TAG_SHADOW: u32 = 6;
const TAG_YOUTUBE: u32 = 7;
const TAG_EDGE: u32 = 8;
const TAG_REDDIT: u32 = 9;
/// Phase boundary: payload is the 1-byte phase index. Everything staged
/// since the previous checkpoint is applied atomically.
const TAG_CHECKPOINT: u32 = 100;
/// A cached `(key, ETag'd 200)` pair from the revalidation cache.
const TAG_REVAL: u32 = 101;
/// Written by resume before re-running the interrupted phase: staged
/// records before this marker are discarded on every future replay.
const TAG_ROLLBACK: u32 = 102;

fn archive_name(tag: u32) -> &'static str {
    match tag {
        TAG_GAB => "gab_accounts.jsonl",
        TAG_USER => "users.jsonl",
        TAG_URL => "urls.jsonl",
        TAG_COMMENT => "comments.jsonl",
        TAG_YOUTUBE => "youtube.jsonl",
        TAG_EDGE => "follow_edges.jsonl",
        TAG_REDDIT => "reddit.jsonl",
        other => unreachable!("tag {other} has no archive file"),
    }
}

fn bad_data(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// Everything [`Journal::recover`] rebuilt from disk.
#[derive(Debug)]
pub struct RecoveredState {
    /// The store as of the last durable checkpoint.
    pub store: CrawlStore,
    /// Phases completed (a prefix of [`Phase::ALL`]); resume re-runs the
    /// rest.
    pub completed: usize,
    /// Recovered revalidation-cache entries, in journal order — feed
    /// them back via `RevalidationCache::store`.
    pub reval_entries: Vec<(String, Response)>,
    /// How many of those landed after the last checkpoint (the
    /// interrupted phase's partial progress; resume's `304` floor).
    pub uncheckpointed_reval: usize,
    /// A torn WAL tail was truncated away during recovery.
    pub torn_tail_recovered: bool,
}

/// A durable crawl journal rooted at one directory.
#[derive(Debug)]
pub struct Journal {
    store: DurableStore,
    /// The revalidation cache's stamp up to which its entries are
    /// journaled as [`TAG_REVAL`] records, so each cached representation
    /// is written once (`RevalidationCache::for_each_entry_after`).
    reval_cursor: u64,
    completed: usize,
    metrics: obs::Registry,
}

fn store_options(failpoint: Failpoint, metrics: &obs::Registry) -> durable::StoreOptions {
    durable::StoreOptions { failpoint, metrics: Some(metrics.clone()) }
}

impl Journal {
    /// Start a fresh journal in `dir`. Fails if one already exists.
    /// `failpoint` kills the journal at a seeded append for crash
    /// testing (`Failpoint::default()` disables it).
    pub fn create(dir: &Path, failpoint: Failpoint, metrics: obs::Registry) -> io::Result<Self> {
        let store = DurableStore::create(dir, store_options(failpoint, &metrics))?;
        Ok(Self { store, reval_cursor: 0, completed: 0, metrics })
    }

    /// Rebuild crawl state from `dir` by replaying the WAL with
    /// checkpoint/rollback staging semantics (module docs).
    pub fn recover(dir: &Path, metrics: obs::Registry) -> io::Result<(Self, RecoveredState)> {
        let (durable_store, durable::Recovered { records, torn_tail_recovered }) =
            DurableStore::open(dir, store_options(Failpoint::default(), &metrics))?;

        let mut store = CrawlStore::default();
        let mut completed = 0usize;
        let mut reval_entries: Vec<(String, Response)> = Vec::new();

        // Stage entity records, apply them only at their checkpoint,
        // discard them at a rollback marker. ETag records apply
        // immediately (module docs).
        let mut pending: Vec<durable::Record> = Vec::new();
        let mut uncheckpointed_reval = 0usize;
        for rec in records {
            match rec.tag {
                TAG_CHECKPOINT => {
                    let idx = *rec.payload.first().ok_or_else(|| {
                        bad_data("wal: empty checkpoint payload")
                    })? as usize;
                    if idx != completed {
                        return Err(bad_data(format!(
                            "wal: checkpoint for phase {idx} but {completed} phases completed"
                        )));
                    }
                    for staged in pending.drain(..) {
                        apply_record(&mut store, staged.tag, &staged.payload)?;
                    }
                    completed += 1;
                    uncheckpointed_reval = 0;
                }
                TAG_ROLLBACK => pending.clear(),
                TAG_REVAL => {
                    reval_entries.push(decode_reval(&rec.payload)?);
                    uncheckpointed_reval += 1;
                }
                _ => pending.push(rec),
            }
        }

        let journal = Self { store: durable_store, reval_cursor: 0, completed, metrics };
        let state = RecoveredState {
            store,
            completed,
            reval_entries,
            uncheckpointed_reval,
            torn_tail_recovered,
        };
        Ok((journal, state))
    }

    /// Count every entry `cache` holds now as journaled: resume calls
    /// this after seeding the cache with the recovered entries, which the
    /// WAL already holds.
    pub(crate) fn mark_reval_journaled(&mut self, cache: &httpnet::RevalidationCache) {
        self.reval_cursor = cache.last_stamp();
    }

    /// Durably discard any staged (uncheckpointed) records: resume calls
    /// this before re-running the interrupted phase, so a future replay
    /// of this WAL never applies the partial batch *and* the re-run's
    /// full batch.
    pub fn rollback(&mut self) -> io::Result<()> {
        self.store.append(TAG_ROLLBACK, &[])?;
        self.store.sync()
    }

    /// Journal a completed phase: its store mutations, newly cached
    /// revalidation entries, a checkpoint; then sync. `store` is the
    /// crawl store *after* the phase ran.
    pub fn commit_phase(
        &mut self,
        phase: Phase,
        store: &CrawlStore,
        reval: Option<&httpnet::RevalidationCache>,
    ) -> io::Result<()> {
        let span = self.metrics.span("journal.entities");
        self.append_phase_delta(phase, store)?;
        span.finish();
        if let Some(cache) = reval {
            let _span = self.metrics.span("journal.reval");
            let wal = &mut self.store;
            let mut result = Ok(());
            let cursor = cache.for_each_entry_after(self.reval_cursor, |key, resp| {
                if result.is_ok() {
                    result = wal.append(TAG_REVAL, &encode_reval(key, resp));
                }
            });
            result?;
            self.reval_cursor = cursor;
        }
        let _span = self.metrics.span("journal.sync");
        self.store.append(TAG_CHECKPOINT, &[phase.index() as u8])?;
        self.completed += 1;
        self.store.sync()
    }

    /// The phases checkpointed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Append the records for the store fields `phase` owns. Map-backed
    /// entities are sorted by key; vector-backed ones are journaled in
    /// store order, which every phase leaves deterministic (each sorts
    /// its output).
    fn append_phase_delta(&mut self, phase: Phase, store: &CrawlStore) -> io::Result<()> {
        let mut put = |tag: u32, v: &Value| -> io::Result<()> {
            self.store.append(tag, jsonlite::to_string(v).as_bytes())
        };
        match phase {
            Phase::GabEnum => {
                for a in &store.gab_accounts {
                    put(TAG_GAB, &persist::gab_to_json(a))?;
                }
            }
            Phase::Probe => {
                for name in &store.dissenter_usernames {
                    self.store.append(TAG_USERNAME, name.as_bytes())?;
                }
            }
            Phase::Spider => {
                let mut users: Vec<_> = store.users.values().collect();
                users.sort_by(|a, b| a.username.cmp(&b.username));
                for u in users {
                    put(TAG_USER, &persist::user_to_json(u))?;
                }
                let mut urls: Vec<_> = store.urls.values().collect();
                urls.sort_by_key(|u| u.id);
                for u in urls {
                    put(TAG_URL, &persist::url_to_json(u))?;
                }
                let mut comments: Vec<_> = store.comments.values().collect();
                comments.sort_by_key(|c| c.id);
                for c in comments {
                    put(TAG_COMMENT, &persist::comment_to_json(c))?;
                }
            }
            Phase::Shadow => {
                self.store.append(TAG_SHADOW, &encode_shadow(store.shadow_validation))?;
            }
            Phase::Youtube => {
                for y in &store.youtube {
                    put(TAG_YOUTUBE, &persist::youtube_to_json(y))?;
                }
            }
            Phase::Social => {
                for e in &store.follow_edges {
                    put(TAG_EDGE, &persist::edge_to_json(e))?;
                }
            }
            Phase::Reddit => {
                let mut matches: Vec<_> = store.reddit.values().collect();
                matches.sort_by(|a, b| a.username.cmp(&b.username));
                for m in matches {
                    put(TAG_REDDIT, &persist::reddit_to_json(m))?;
                }
            }
        }
        Ok(())
    }
}

fn encode_shadow(validation: (usize, usize)) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&(validation.0 as u64).to_le_bytes());
    out[8..].copy_from_slice(&(validation.1 as u64).to_le_bytes());
    out
}

/// Apply one entity record to the store.
fn apply_record(store: &mut CrawlStore, tag: u32, payload: &[u8]) -> io::Result<()> {
    match tag {
        TAG_USERNAME => {
            let name = std::str::from_utf8(payload)
                .map_err(|e| bad_data(format!("username record: not UTF-8: {e}")))?;
            store.dissenter_usernames.push(name.to_owned());
        }
        TAG_SHADOW => {
            if payload.len() != 16 {
                return Err(bad_data(format!(
                    "shadow record: expected 16 bytes, got {}",
                    payload.len()
                )));
            }
            let sampled = u64::from_le_bytes(payload[..8].try_into().unwrap());
            let confirmed = u64::from_le_bytes(payload[8..].try_into().unwrap());
            store.shadow_validation = (sampled as usize, confirmed as usize);
        }
        TAG_GAB | TAG_USER | TAG_URL | TAG_COMMENT | TAG_YOUTUBE | TAG_EDGE | TAG_REDDIT => {
            let name = archive_name(tag);
            persist::apply_jsonl(store, name, payload)?;
        }
        other => return Err(bad_data(format!("unknown journal record tag {other}"))),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Revalidation-entry binary codec:
//   key_len u32 | key | status u16 | nheaders u16
//   | (name_len u16 | name | value_len u32 | value)* | body_len u32 | body
// Binary because header values and bodies are not guaranteed JSON-safe
// text, and the WAL already carries opaque bytes.
// ---------------------------------------------------------------------

fn encode_reval(key: &str, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(&resp.status.0.to_le_bytes());
    buf.extend_from_slice(&(resp.headers.len() as u16).to_le_bytes());
    for (name, value) in resp.headers.iter() {
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(value.as_bytes());
    }
    buf.extend_from_slice(&(resp.body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&resp.body);
    buf
}

/// Decode one [`TAG_REVAL`] payload.
fn decode_reval(bytes: &[u8]) -> io::Result<(String, Response)> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> io::Result<&[u8]> {
        let slice = bytes
            .get(*pos..*pos + n)
            .ok_or_else(|| bad_data("reval record: truncated"))?;
        *pos += n;
        Ok(slice)
    };
    let key_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let key = String::from_utf8(take(&mut pos, key_len)?.to_vec())
        .map_err(|e| bad_data(format!("reval record: key not UTF-8: {e}")))?;
    let status = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap());
    let nheaders = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap());
    let mut headers = Headers::new();
    for _ in 0..nheaders {
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|e| bad_data(format!("reval record: header name not UTF-8: {e}")))?;
        let value_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let value = String::from_utf8(take(&mut pos, value_len)?.to_vec())
            .map_err(|e| bad_data(format!("reval record: header value not UTF-8: {e}")))?;
        headers.add(&name, &value);
    }
    let body_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let body = take(&mut pos, body_len)?.to_vec();
    if pos != bytes.len() {
        return Err(bad_data(format!("reval record: {} trailing bytes", bytes.len() - pos)));
    }
    Ok((key, Response { status: Status(status), headers, body }))
}
