#![warn(missing_docs)]
//! The measurement apparatus — §3's methodology as code.
//!
//! Everything here talks to the services over real HTTP and reconstructs
//! the dataset the way the paper did:
//!
//! 1. [`gab_enum`] — exhaustively enumerate Gab's sequential account IDs
//!    through `https://gab.com/api/v1/accounts/<id>`, reading rate-limit
//!    headers and sleeping until reset when exhausted (§3.1, §3.4);
//! 2. [`probe`] — for every Gab username, request the Dissenter home page
//!    and classify existence **by response size** (≥10 kB vs ~150 B);
//! 3. [`spider`] — crawl home pages for author-ids and commented-URL
//!    lists, then every comment page in four visibility contexts
//!    (anonymous, NSFW, offensive, both), inferring shadow labels from the
//!    diff against the anonymous baseline, scraping the hidden
//!    `commentAuthor` metadata, and recovering ghost (deleted-Gab)
//!    accounts to a fixpoint (§3.2);
//! 4. [`shadow`] — validate a sample of inferred shadow labels against the
//!    live service, with timeout-retry hygiene (§4.3.1);
//! 5. [`youtube`] — fetch the rendered state of every YouTube URL (§3.3);
//! 6. [`social`] — walk the paginated Gab follower/following API for every
//!    Dissenter user (§3.4);
//! 7. [`reddit`] — match usernames on Reddit and pull Pushshift comment
//!    histories (§4.4.1).
//!
//! [`Crawler::full_crawl`] runs all phases and returns a [`store::CrawlStore`]
//! — the reconstructed mirror every §4 analysis consumes. The crawler never
//! reads the in-process `World`; its only input is HTTP.
//!
//! **Time.** Protocol time — when a 429 was answered, how far its
//! `X-RateLimit-Reset` or `Retry-After` lies, and the wait until then —
//! is read and waited out on [`Crawler::clock`], the services' clock. On
//! a simulated clock each throttle wait advances it instead of sleeping.
//! Transport timing (client timeouts, retry backoff after wire errors and
//! 5xx, breaker cooldowns, the per-fetch `max_elapsed`) stays on
//! `std::time::Instant`.

pub mod gab_enum;
pub mod journal;
pub mod parallel;
pub mod persist;
pub mod probe;
pub mod reddit;
pub mod resilience;
pub mod scrape;
pub mod shadow;
pub mod social;
pub mod spider;
pub mod store;
pub mod youtube;

use httpnet::ServerConfig;
use std::net::SocketAddr;

pub use journal::Failpoint;
pub use resilience::{CircuitBreaker, Phase};
pub use store::{CrawlStore, DeadLetter};

/// Crawl tuning.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Parallel worker connections per phase.
    pub workers: usize,
    /// Extra attempts for failed requests (the §4.3.1 re-request loop).
    pub retries: usize,
    /// Backoff between retries.
    pub backoff: std::time::Duration,
    /// Stop Gab enumeration after this many consecutive missing IDs.
    pub enum_gap_tolerance: u64,
    /// Validation sample size for shadow-label checks.
    pub validation_sample: usize,
    /// Client read/connect timeout — a stalled (slow-loris) server is
    /// indistinguishable from a dead one past this point.
    pub timeout: std::time::Duration,
    /// Shared retry budget per phase: total extra attempts a phase may
    /// spend across all its fetches. Once dry, every fetch gets a single
    /// attempt, so a pathological endpoint degrades coverage (visibly,
    /// via dead letters) instead of stalling the crawl.
    pub retry_budget: usize,
    /// Consecutive exhausted fetches that open an endpoint's circuit
    /// breaker.
    pub breaker_threshold: usize,
    /// How long an open breaker fast-fails before admitting a half-open
    /// probe.
    pub breaker_cooldown: std::time::Duration,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            retries: 3,
            backoff: std::time::Duration::from_millis(20),
            enum_gap_tolerance: 2_000,
            validation_sample: 100,
            timeout: std::time::Duration::from_secs(5),
            retry_budget: 10_000,
            breaker_threshold: 5,
            breaker_cooldown: std::time::Duration::from_millis(200),
        }
    }
}

/// What [`Crawler::resume`] found in the journal before re-running the
/// remainder of the crawl.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeInfo {
    /// Phases already durable at recovery time (a prefix of
    /// [`Phase::ALL`]); only the rest were re-run.
    pub completed: usize,
    /// Revalidation entries recovered from after the last checkpoint —
    /// the killed run's partial progress through the interrupted phase.
    /// Each is answerable with a `304` during the re-run, so this is a
    /// floor on the `http.<service>.not_modified` counters resume earns.
    pub uncheckpointed_reval: usize,
    /// The WAL ended in a torn record that recovery truncated away.
    pub torn_tail_recovered: bool,
}

/// Addresses of the four services.
#[derive(Debug, Clone, Copy)]
pub struct Endpoints {
    /// dissenter.com.
    pub dissenter: SocketAddr,
    /// gab.com.
    pub gab: SocketAddr,
    /// reddit.com / Pushshift.
    pub reddit: SocketAddr,
    /// Rendered YouTube.
    pub youtube: SocketAddr,
}

/// Prior-sweep knowledge for an incremental longitudinal sweep (see
/// [`Crawler::set_sweep_hint`]).
///
/// # Soundness contract
///
/// The hint lets [`gab_enum`] and [`probe`] skip the uncacheable
/// negative probes (404s carry no validator, so they are re-paid in
/// full every sweep) that a previous sweep already answered. Skipping
/// them is sound only under the world's epoch contract
/// (`synth::apply_epoch`):
///
/// * Gab IDs are minted by a monotonic counter — every account created
///   after the previous sweep has an ID **above** [`SweepHint::max_gab_id`],
///   and IDs that were unallocated (or deleted) below it never become
///   visible again. Re-checking the known IDs (conditional, mostly
///   `304`-cheap) plus scanning past the previous maximum therefore
///   finds exactly the set a from-scratch enumeration would.
/// * Existing Gab users never gain a Dissenter account mid-study (only
///   newly created users can carry one), so a username that probed
///   negative stays negative; known positives are re-probed (their
///   pages change with bans) and new accounts are probed fresh.
///
/// The sweep≡one-shot differential oracle (`longitudinal.oracle`)
/// enforces the contract end-to-end: a hint that skipped a probe it
/// should not have makes the composed study diverge from the one-shot
/// study byte-for-byte.
#[derive(Debug, Clone)]
pub struct SweepHint {
    /// Highest Gab ID visible to the previous sweep.
    pub max_gab_id: u64,
    /// Every Gab ID the previous sweep enumerated, ascending.
    pub known_gab_ids: Vec<u64>,
    /// Usernames the previous sweep confirmed as Dissenter accounts.
    pub dissenter_usernames: std::collections::HashSet<String>,
}

impl SweepHint {
    /// Derive the hint from a completed sweep's store. `None` when the
    /// store enumerated nothing (an empty hint would degenerate the next
    /// sweep's enumeration into scanning from ID 1 anyway).
    pub fn from_store(store: &CrawlStore) -> Option<Self> {
        let known_gab_ids: Vec<u64> = store.gab_accounts.iter().map(|a| a.gab_id).collect();
        let max_gab_id = *known_gab_ids.last()?;
        Some(Self {
            max_gab_id,
            known_gab_ids,
            dissenter_usernames: store.dissenter_usernames.iter().cloned().collect(),
        })
    }
}

/// The full §3 pipeline.
#[derive(Debug)]
pub struct Crawler {
    /// Service addresses.
    pub endpoints: Endpoints,
    /// Tuning.
    pub config: CrawlConfig,
    /// Per-endpoint circuit breakers, shared across phases (probe and
    /// spider hammer the same Dissenter endpoint; an outage in progress
    /// must survive the phase boundary).
    pub breakers: resilience::Breakers,
    /// Run metrics: per-phase coverage counters, request latency per
    /// service, breaker transition events, and phase wall-clock spans.
    /// Replace with a clone of an outer registry to aggregate a crawl
    /// into a larger run (the registry is a shared handle).
    pub metrics: obs::Registry,
    /// The clock the services' rate-limit resets refer to, and on which
    /// every throttle wait is waited out: a simulated clock advances
    /// past the reset instead of sleeping. Defaults to the wall; set it
    /// to the services' clock (`webfront::SimServices::clock`) so the
    /// crawler reads the instant the limiters do — wall-clock
    /// scheduling then cannot decide whether a resumed crawl lands
    /// inside a spent rate window.
    pub clock: platform::Clock,
    /// Shared ETag revalidation cache, attached to every worker client
    /// when set (see [`Crawler::enable_revalidation`]).
    reval: Option<httpnet::RevalidationCache>,
    /// Prior-sweep knowledge (see [`Crawler::set_sweep_hint`]).
    hint: Option<SweepHint>,
}

impl Crawler {
    /// A crawler with default tuning.
    pub fn new(endpoints: Endpoints) -> Self {
        Self {
            endpoints,
            config: CrawlConfig::default(),
            breakers: resilience::Breakers::default(),
            metrics: obs::Registry::new(),
            clock: platform::Clock::wall(),
            reval: None,
            hint: None,
        }
    }

    /// Attach prior-sweep knowledge for an **incremental sweep**: the
    /// enumeration re-checks the known ID set and scans only past the
    /// previous maximum, and the probe phase skips usernames that
    /// already probed negative (see [`SweepHint`] for why that is
    /// sound). The resulting store is byte-identical to a hint-free
    /// crawl of the same world; only the uncacheable negative-probe
    /// traffic disappears.
    pub fn set_sweep_hint(&mut self, hint: SweepHint) {
        self.hint = Some(hint);
    }

    /// The attached prior-sweep knowledge, if any.
    pub fn sweep_hint(&self) -> Option<&SweepHint> {
        self.hint.as_ref()
    }

    /// Turn on **incremental re-crawl**: every worker client shares one
    /// [`httpnet::RevalidationCache`], so a second [`Crawler::full_crawl`]
    /// on the same crawler sends `If-None-Match` for pages it has seen
    /// and resolves the servers' `304`s from cache instead of
    /// re-downloading bodies. The store a re-crawl produces is
    /// byte-identical to a fresh full crawl's (the cache is transparent
    /// — `simcheck`'s incremental oracle holds this across seeds);
    /// only the wire traffic shrinks, visible as `http.<service>.not_modified`
    /// counters in [`Crawler::metrics`].
    ///
    /// `capacity` bounds the number of cached representations (FIFO
    /// eviction; an evicted page is transparently re-fetched in full).
    pub fn enable_revalidation(&mut self, capacity: usize) {
        self.reval = Some(httpnet::RevalidationCache::new(capacity));
    }

    /// The shared revalidation cache, if incremental re-crawl is on.
    pub fn revalidation_cache(&self) -> Option<&httpnet::RevalidationCache> {
        self.reval.as_ref()
    }

    /// Attach an **existing** revalidation cache instead of a fresh one
    /// — longitudinal sweeps hand every sweep's crawler the same cache
    /// (revalidation keys are host-free, so validators earned against
    /// one sweep's ephemeral ports keep working on the next sweep's).
    pub fn set_revalidation(&mut self, cache: httpnet::RevalidationCache) {
        self.reval = Some(cache);
    }

    /// Run every phase: enumerate, probe, spider, shadow-diff, YouTube,
    /// social, Reddit. Returns the reconstructed dataset.
    pub fn full_crawl(&self) -> CrawlStore {
        let mut store = CrawlStore::default();
        for phase in Phase::ALL {
            self.timed_phase(phase, &mut store, phase_fn(phase));
        }
        store
    }

    /// [`Crawler::full_crawl`], journaled through a [`journal::Journal`]
    /// rooted at `dir`: each phase is checkpointed into the journal's
    /// append-only WAL file as it completes, so a killed crawl can pick
    /// up from the last phase boundary via [`Crawler::resume`] instead of
    /// starting over.
    /// `failpoint` kills the journal at a seeded append for crash tests
    /// (`Failpoint::default()` for a real crawl). Fails if `dir` already
    /// holds a journal.
    pub fn full_crawl_durable(
        &self,
        dir: &std::path::Path,
        failpoint: Failpoint,
    ) -> std::io::Result<CrawlStore> {
        let mut journal = journal::Journal::create(dir, failpoint, self.metrics.clone())?;
        let mut store = CrawlStore::default();
        for phase in Phase::ALL {
            self.timed_phase(phase, &mut store, phase_fn(phase));
            journal.commit_phase(phase, &store, self.revalidation_cache())?;
        }
        Ok(store)
    }

    /// Resume a killed [`Crawler::full_crawl_durable`] from its journal:
    /// replay the WAL into the store, seed the revalidation cache with
    /// every journaled representation (so the re-run answers
    /// `If-None-Match` with `304`s instead of re-downloading pages the
    /// dead crawl already fetched), durably roll back the interrupted
    /// phase's partial batch, and re-run only the phases after the last
    /// checkpoint. The result is
    /// indistinguishable from an uninterrupted crawl — `simcheck`'s
    /// `crash.resume` oracle holds this byte-for-byte across seeds.
    pub fn resume(&self, dir: &std::path::Path) -> std::io::Result<(CrawlStore, ResumeInfo)> {
        let (mut journal, state) = journal::Journal::recover(dir, self.metrics.clone())?;
        if let Some(cache) = &self.reval {
            for (key, resp) in &state.reval_entries {
                cache.store(key, resp);
            }
            journal.mark_reval_journaled(cache);
        }
        journal.rollback()?;
        let info = ResumeInfo {
            completed: state.completed,
            uncheckpointed_reval: state.uncheckpointed_reval,
            torn_tail_recovered: state.torn_tail_recovered,
        };
        let mut completed = state.completed;
        if resilience::mutation("resume_skips_interrupted_phase") && completed < Phase::ALL.len() {
            completed += 1;
        }
        let mut store = state.store;
        for &phase in &Phase::ALL[completed..] {
            self.timed_phase(phase, &mut store, phase_fn(phase));
            journal.commit_phase(phase, &store, self.revalidation_cache())?;
        }
        Ok((store, info))
    }

    /// Run one phase under a `crawl.<phase>` span and publish its
    /// timing-derived throughput as a `crawl.<phase>.items_per_sec`
    /// gauge (gauges, unlike counters, may differ between same-seed
    /// runs).
    fn timed_phase(
        &self,
        phase: Phase,
        store: &mut CrawlStore,
        f: impl FnOnce(&Crawler, &mut CrawlStore),
    ) {
        let span = self.metrics.span(&format!("crawl.{}", phase.name()));
        f(self, store);
        let elapsed = span.finish().as_secs_f64();
        if elapsed > 0.0 {
            let done = store.stats.phase(phase).snapshot().succeeded;
            self.metrics
                .set_gauge(&format!("crawl.{}.items_per_sec", phase.name()), done as f64 / elapsed);
        }
    }
}

/// The function that runs one pipeline phase (`full_crawl`, its durable
/// variant, and `resume` all dispatch through this table).
fn phase_fn(phase: Phase) -> fn(&Crawler, &mut CrawlStore) {
    match phase {
        Phase::GabEnum => gab_enum::enumerate,
        Phase::Probe => probe::probe_dissenter_accounts,
        Phase::Spider => spider::spider,
        Phase::Shadow => shadow::shadow_crawl,
        Phase::Youtube => youtube::crawl_youtube,
        Phase::Social => social::crawl_social,
        Phase::Reddit => reddit::crawl_reddit,
    }
}

/// Default server config used by tests and the harness when starting
/// services for a crawl.
pub fn default_server_config() -> ServerConfig {
    ServerConfig { workers: 8, queue: 256, ..Default::default() }
}
