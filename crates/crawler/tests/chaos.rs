//! Chaos suite: the full §3 crawl against every fault class the injector
//! can produce, alone and combined.
//!
//! The contract under test: a crawl through a faulty network must
//! reconstruct the *identical* mirror a fault-free crawl produces —
//! equality is checked byte-for-byte on the persisted JSONL archive,
//! which (deliberately) excludes run statistics, so "identical modulo
//! retry/dead-letter accounting" is exactly what the comparison says.
//! When the retry budget is too small to ride the faults out, the crawl
//! must still terminate, and every logical fetch must be accounted for:
//! per phase, `attempted == succeeded + dead_lettered`.
//!
//! Determinism notes: the crawl runs with one worker so the request
//! order — and therefore the server's seeded fault sequence — is fixed.
//! For equivalence runs the client timeout (50 ms) sits well under the
//! stall duration (80 ms) so a slow-loris stall always times out, and
//! well above loopback latency so a healthy response rarely does (and a
//! spurious timeout is just one more recoverable fault). The bit-exact
//! replay test is stricter: it excludes stalls and raises the timeout
//! so no wall-clock race can perturb the seeded fault stream.

use crawler::{CrawlStore, Crawler, Endpoints};
use httpnet::{FaultConfig, ServerConfig};
use platform::World;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::SimServices;

fn world() -> Arc<World> {
    static W: OnceLock<Arc<World>> = OnceLock::new();
    W.get_or_init(|| {
        let cfg = WorldConfig { scale: Scale::Custom(0.002), ..WorldConfig::small() };
        let (world, _) = synth::generate(&cfg);
        Arc::new(world)
    })
    .clone()
}

struct Knobs {
    retries: usize,
    retry_budget: usize,
    breaker_threshold: usize,
    timeout: Duration,
}

/// Generous knobs for equivalence runs: enough retries that the chance
/// of any logical fetch exhausting them is negligible.
fn generous() -> Knobs {
    Knobs {
        retries: 8,
        retry_budget: 100_000,
        breaker_threshold: 1_000_000,
        timeout: Duration::from_millis(50),
    }
}

fn crawl_with(faults: FaultConfig, knobs: Knobs) -> CrawlStore {
    let server_cfg = ServerConfig { workers: 8, queue: 256, faults, ..Default::default() };
    let services = SimServices::simulated(world(), server_cfg).expect("services");
    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.clock = services.clock.clone();
    crawler.config.workers = 1; // deterministic request order
    crawler.config.retries = knobs.retries;
    crawler.config.backoff = Duration::from_millis(1);
    crawler.config.timeout = knobs.timeout;
    crawler.config.enum_gap_tolerance = 400;
    crawler.config.retry_budget = knobs.retry_budget;
    crawler.config.breaker_threshold = knobs.breaker_threshold;
    let store = crawler.full_crawl();
    std::mem::forget(services);
    store
}

/// Persist `store` and return the archive as (file name, bytes) pairs.
fn persist_bytes(store: &CrawlStore) -> Vec<(&'static str, Vec<u8>)> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "chaos-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    crawler::persist::save(store, &dir).expect("save");
    let out = crawler::persist::FILES
        .iter()
        .map(|f| (*f, std::fs::read(dir.join(f)).expect("read")))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn baseline() -> &'static Vec<(&'static str, Vec<u8>)> {
    static B: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    B.get_or_init(|| {
        let store = crawl_with(FaultConfig::none(), generous());
        assert!(store.dead_letters().is_empty(), "fault-free crawl must not dead-letter");
        persist_bytes(&store)
    })
}

/// Crawl under `faults` and require the persisted mirror to match the
/// fault-free baseline byte-for-byte.
fn assert_equivalent(faults: FaultConfig) {
    let store = crawl_with(faults, generous());
    let dead = store.dead_letters();
    assert!(
        dead.is_empty(),
        "equivalence run must recover every fetch; dead letters: {:?}",
        &dead[..dead.len().min(5)]
    );
    let got = persist_bytes(&store);
    for ((name, want), (_, have)) in baseline().iter().zip(&got) {
        assert_eq!(want, have, "{name} differs from fault-free baseline");
    }
}

#[test]
fn recovers_from_dropped_connections() {
    assert_equivalent(FaultConfig { drop_prob: 0.08, seed: 11, ..FaultConfig::none() });
}

#[test]
fn recovers_from_injected_500s() {
    assert_equivalent(FaultConfig { error_prob: 0.08, seed: 12, ..FaultConfig::none() });
}

#[test]
fn recovers_from_truncated_bodies() {
    assert_equivalent(FaultConfig { truncate_prob: 0.08, seed: 13, ..FaultConfig::none() });
}

#[test]
fn recovers_from_midline_resets() {
    assert_equivalent(FaultConfig { reset_prob: 0.08, seed: 14, ..FaultConfig::none() });
}

#[test]
fn recovers_from_slow_loris_stalls() {
    assert_equivalent(FaultConfig {
        stall_prob: 0.02,
        stall: Duration::from_millis(80), // > the 50 ms client timeout
        seed: 15,
        ..FaultConfig::none()
    });
}

#[test]
fn recovers_from_malformed_status_lines() {
    assert_equivalent(FaultConfig { malformed_prob: 0.08, seed: 16, ..FaultConfig::none() });
}

#[test]
fn recovers_from_429_throttling() {
    assert_equivalent(FaultConfig {
        rate_limit_prob: 0.06,
        retry_after: Duration::from_millis(5),
        seed: 17,
        ..FaultConfig::none()
    });
}

#[test]
fn recovers_from_503_unavailability() {
    assert_equivalent(FaultConfig {
        unavailable_prob: 0.08,
        retry_after: Duration::from_millis(5),
        seed: 18,
        ..FaultConfig::none()
    });
}

/// A fast storm: every fault class at once, with the slow knobs turned
/// down so the suite stays quick (stall still exceeds the client timeout).
fn fast_storm(seed: u64) -> FaultConfig {
    FaultConfig {
        stall: Duration::from_millis(80),
        retry_after: Duration::from_millis(5),
        ..FaultConfig::storm(seed)
    }
}

#[test]
fn recovers_from_the_combined_storm() {
    assert_equivalent(fast_storm(1970));
}

#[test]
fn storm_with_tiny_budget_terminates_and_accounts_for_every_fetch() {
    let store = crawl_with(
        fast_storm(7),
        Knobs {
            retries: 2,
            retry_budget: 5,
            breaker_threshold: 5,
            timeout: Duration::from_millis(50),
        },
    );
    // Every logical fetch ends in exactly one bucket.
    for (phase, snap) in store.stats.phase_snapshots() {
        assert_eq!(
            snap.attempted,
            snap.succeeded + snap.dead_lettered,
            "{}: attempted must equal succeeded + dead_lettered ({snap:?})",
            phase.name()
        );
    }
    let dead = store.dead_letters();
    assert!(!dead.is_empty(), "a storm this heavy on a 5-retry budget must dead-letter");
    for d in &dead {
        assert!(!d.target.is_empty(), "dead letter must name its target");
        assert!(!d.cause.is_empty(), "dead letter must name its cause");
    }
    // The budget is tiny, so most losses cite it...
    assert!(dead.iter().any(|d| d.cause == "retry budget exhausted"));
    // ...and failure streaks long enough to open the breaker are certain
    // at this fault rate, so fast-failed fetches appear too.
    assert!(dead.iter().any(|d| d.cause == "circuit open"));
    // The coarse counters stay coherent with the per-phase view.
    let total_dead: u64 =
        store.stats.phase_snapshots().iter().map(|(_, s)| s.dead_lettered).sum();
    assert_eq!(total_dead as usize, dead.len());
}

#[test]
fn parallel_storm_keeps_accounting_and_metrics_coherent() {
    // Four workers per phase racing through a storm: the accounting
    // invariant must hold under real `parallel_fetch` concurrency, and
    // the observability registry must agree exactly with the store's own
    // counters — both sides count the same logical events, just from
    // different modules.
    let server_cfg =
        ServerConfig { workers: 8, queue: 256, faults: fast_storm(23), ..Default::default() };
    let services = SimServices::simulated(world(), server_cfg).expect("services");
    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.clock = services.clock.clone();
    crawler.config.workers = 4;
    crawler.config.retries = 2;
    crawler.config.backoff = Duration::from_millis(1);
    crawler.config.timeout = Duration::from_millis(50);
    crawler.config.enum_gap_tolerance = 400;
    crawler.config.retry_budget = 40;
    crawler.config.breaker_threshold = 5;
    let store = crawler.full_crawl();
    let snap = crawler.metrics.snapshot();
    std::mem::forget(services);

    let mut any_dead = 0u64;
    for (phase, stats) in store.stats.phase_snapshots() {
        assert_eq!(
            stats.attempted,
            stats.succeeded + stats.dead_lettered,
            "{}: every fetch ends in exactly one bucket under concurrency ({stats:?})",
            phase.name()
        );
        let counter = |suffix: &str| {
            snap.counter(&format!("crawl.{}.{suffix}", phase.name())).unwrap_or(0)
        };
        assert_eq!(counter("attempted"), stats.attempted, "{} attempted", phase.name());
        assert_eq!(counter("succeeded"), stats.succeeded, "{} succeeded", phase.name());
        assert_eq!(counter("retried"), stats.retried, "{} retried", phase.name());
        assert_eq!(
            counter("dead_lettered"),
            stats.dead_lettered,
            "{} dead_lettered",
            phase.name()
        );
        any_dead += stats.dead_lettered;
    }
    assert!(any_dead > 0, "a storm on a 40-retry budget must dead-letter somewhere");
    assert_eq!(
        any_dead as usize,
        store.dead_letters().len(),
        "dead-letter records match the counters"
    );
    // Every phase issues its HTTP through `PhaseRun::fetch`, which counts
    // one store-side request per wire attempt — so the per-service client
    // instrumentation must agree with the store exactly.
    let wire_requests: u64 = snap
        .counters_with_prefix("http.")
        .filter(|(name, _)| name.ends_with(".requests"))
        .map(|(_, v)| v)
        .sum();
    assert!(wire_requests > 0, "instrumented clients must count requests");
    assert_eq!(
        wire_requests,
        store.stats.requests.load(Ordering::Relaxed),
        "wire request counters must match the store's request count"
    );
}

#[test]
fn same_seed_and_config_replay_the_identical_crawl() {
    // Tight enough that dead letters certainly occur. Two pieces of the
    // matrix are deliberately out of scope here because they hinge on
    // wall-clock time rather than the seeded fault stream:
    //  - the breaker is disabled (an open breaker fast-fails until a
    //    real-time cooldown elapses);
    //  - stalls are excluded and the timeout is set far above loopback
    //    latency, so the client read timeout can never fire. A timeout
    //    is a race between the clock and the scheduler, and a spurious
    //    one triggers a transparent reconnect-and-resend that consumes
    //    an extra fault decision, shifting the whole seeded stream.
    // Everything else — drops, resets, truncations, malformed replies,
    // 500s, 429s, 503s, retry-budget exhaustion — must replay bit-exact.
    let storm = || FaultConfig { stall_prob: 0.0, ..fast_storm(42) };
    let knobs = || Knobs {
        retries: 2,
        retry_budget: 60,
        breaker_threshold: usize::MAX,
        timeout: Duration::from_secs(2),
    };
    let a = crawl_with(storm(), knobs());
    let b = crawl_with(storm(), knobs());

    for ((name, x), (_, y)) in persist_bytes(&a).iter().zip(&persist_bytes(&b)) {
        assert_eq!(x, y, "{name} differs between identical runs");
    }
    let key = |s: &CrawlStore| -> Vec<(crawler::Phase, String)> {
        s.dead_letters().into_iter().map(|d| (d.phase, d.target)).collect()
    };
    assert_eq!(key(&a), key(&b), "dead-letter sets must replay exactly");
    assert_eq!(
        a.stats.phase_snapshots(),
        b.stats.phase_snapshots(),
        "per-phase accounting must replay exactly"
    );
}
