//! `abuse` suite: every abuse profile driven concurrently with a polite
//! loadgen baseline against a hardened Dissenter front. Phases:
//!
//! 1. **baseline** — the polite closed-loop load alone (warmed, cached
//!    regime): the no-abuse p99 the contested runs are gated against.
//! 2. **profiles** — one mixed run per [`bench::abusegen::Profile`]:
//!    hostile clients plus the same polite load, measured mid-abuse.
//! 3. **4TCT comparison** — greedy vs polite collectors on the
//!    rate-limited per-URL route under a penalty-enabled short-window
//!    limiter (arXiv:2307.03556's polite-collector argument): same wall
//!    budget, the polite one must acquire more pages.
//!
//! Gates:
//! * polite success rate ≥ 99% and p99 ≤ 3× the no-abuse baseline
//!   (with a 10 ms jitter floor) under **every** profile;
//! * every abuse segment's books reconcile exactly
//!   (offered == served + 304 + 429 + rejected + dropped + errors);
//! * zero shadow-visibility leaks and zero ETag↔body incoherence;
//! * the slowloris phase is actually defended: hostile conns closed and
//!   counted under `conn.read_timeouts` / `conn.write_timeouts`;
//! * the limiter's books reconcile exactly against client-observed
//!   outcomes on the rate-limited route, penalized lockouts included;
//! * the polite collector out-collects the greedy one;
//! * server-process peak RSS stays under the ceiling.

use crate::{proc_status_kb, summary_json, user_targets};
use bench::abusegen::{
    greedy_collect, polite_collect, run_mixed, shadow_probe, AbuseConfig, AbuseCounts,
    AbuseTargets, CollectorOutcome, MixedOutcome, Profile,
};
use bench::loadgen::{run as run_load, LoadConfig, Mode};
use bench::report::{Args, BenchReport, Op};
use httpnet::ServerConfig;
use jsonlite::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synth::config::Scale;
use synth::WorldConfig;
use webfront::dissenter::DissenterFront;

pub const FLAGS: &[&str] = &[
    "--conns <n>",
    "--threads <n>",
    "--requests <n>",
    "--budget-ms <n>",
    "--rss-ceiling-mb <n>",
    "--scale <f64>",
    "--seed <n>",
];

/// Short, penalty-enabled per-URL window so the collectors' comparison
/// resolves in seconds instead of the production 10-req/min.
const URL_LIMIT: u32 = 3;
const URL_WINDOW_SECS: u64 = 1;
const URL_PENALTY_SECS: u64 = 3;

/// The profile set the suite must have driven, by name.
const PROFILES: [&str; 5] =
    ["greedy_scraper", "slowloris", "stampede", "pipeline_flood", "validator_replay"];

fn counts_json(c: &AbuseCounts) -> Value {
    Value::object()
        .with("offered", c.offered)
        .with("served", c.served)
        .with("not_modified", c.not_modified)
        .with("denied", c.denied)
        .with("penalized", c.penalized)
        .with("rejected", c.rejected)
        .with("dropped", c.dropped)
        .with("errors", c.errors)
        .with("leaks", c.leaks)
        .with("incoherent", c.incoherent)
        .with("closed_conns", c.closed_conns)
        .with("reconciles", c.reconciles())
}

fn collector_json(c: &CollectorOutcome) -> Value {
    Value::object()
        .with("acquired", c.acquired)
        .with("sleeps", c.sleeps)
        .with("counts", counts_json(&c.counts))
}

pub fn run(args: &Args) -> Result<BenchReport, String> {
    let conns: usize = args.get("--conns", 4)?;
    let threads: usize = args.get("--threads", 4)?;
    let requests: usize = args.get("--requests", 150)?;
    let budget_ms: u64 = args.get("--budget-ms", 3200)?;
    let rss_ceiling_mb: f64 = args.get("--rss-ceiling-mb", 512.0)?;
    let scale: f64 = args.get("--scale", 0.002)?;
    let seed: u64 = args.get("--seed", 0x0005_EEDA_B05E)?;

    // ---- Hardened services over a seeded world ------------------------
    let cfg = WorldConfig { seed, scale: Scale::Custom(scale), ..WorldConfig::small() };
    let (world, _) = synth::generate(&cfg);
    let world = Arc::new(world);
    let targets = AbuseTargets::discover(&world, 3)
        .ok_or("world has no dissenter users/urls; grow --scale")?;
    let polite_targets = user_targets(&world, 16)?;
    let registry = obs::Registry::new();
    let stamp = world.content_hash();
    let front_cache = webfront::cache::FrontCache::with_registry(
        stamp,
        httpnet::CacheConfig::default(),
        &registry,
    );
    let limiter =
        platform::RateLimiter::new(URL_LIMIT, URL_WINDOW_SECS).with_penalty(URL_PENALTY_SECS);
    // The wall clock: the polite-vs-greedy race measures real waits.
    let dissenter = Arc::new(DissenterFront::with_parts(
        world.clone(),
        front_cache,
        limiter,
        platform::Clock::wall(),
    ));
    let mut fronts = webfront::SimFronts::new(world.clone());
    fronts.dissenter = dissenter.clone();
    let hardened = ServerConfig {
        workers: 4,
        queue: 256,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_millis(400),
        header_read_timeout: Duration::from_millis(300),
        metrics: Some(registry.clone()),
        ..ServerConfig::default()
    };
    let services = webfront::SimServices::start_with(fronts, hardened)
        .expect("failed to start simulated services");
    let addr = services.dissenter.addr();

    let shadow = shadow_probe(addr, &world);
    if shadow.is_none() {
        eprintln!(
            "abuse: note — no shadow-labeled comment at this scale; \
             validator_replay probes only the anonymous path"
        );
    }

    // ---- Phase 1: no-abuse polite baseline ----------------------------
    let polite_shape = || LoadConfig {
        threads,
        requests_per_thread: requests,
        warmup_per_thread: 30,
        ..LoadConfig::default()
    };
    let baseline = run_load(addr, &polite_targets, &polite_shape(), Mode::Cached);
    println!(
        "abuse: baseline {:.0} req/s (p99 {} us, {} failures)",
        baseline.req_per_sec, baseline.p99_us, baseline.failures
    );

    // ---- Phase 2: one mixed run per profile ---------------------------
    let abuse_cfg = AbuseConfig { conns, seed, ..AbuseConfig::default() };
    let hold = Duration::from_millis(2500);
    let mut phases: Vec<(Profile, MixedOutcome)> = Vec::new();
    for profile in Profile::ALL {
        let rss_before_mb = proc_status_kb("VmRSS") as f64 / 1024.0;
        let outcome = run_mixed(
            addr,
            profile,
            &targets,
            shadow.as_ref(),
            &abuse_cfg,
            &polite_targets,
            &polite_shape(),
            hold,
        );
        println!(
            "abuse: {} — polite p99 {} us ({} failures), abuse {:?} (rss {:.1} MB)",
            profile.name(),
            outcome.polite.p99_us,
            outcome.polite.failures,
            outcome.abuse,
            rss_before_mb
        );
        phases.push((profile, outcome));
    }

    // ---- Phase 3: 4TCT polite-vs-greedy collector comparison ----------
    let budget = Duration::from_millis(budget_ms);
    let greedy = greedy_collect(addr, &targets.cuids, Instant::now() + budget);
    // Let every penalty lockout expire so the polite run starts clean.
    std::thread::sleep(Duration::from_millis(URL_PENALTY_SECS * 1000 + 600));
    let polite_c = polite_collect(addr, &targets.cuids, Instant::now() + budget);
    println!(
        "abuse: 4tct — polite acquired {} ({} reset sleeps) vs greedy {} ({} penalized denies)",
        polite_c.acquired, polite_c.sleeps, greedy.acquired, greedy.counts.penalized
    );

    let rss_peak_mb = proc_status_kb("VmHWM") as f64 / 1024.0;
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let rate_stats = dissenter.rate_stats();

    // Every segment that touched the rate-limited route, for the
    // limiter-book reconciliation.
    let mut url_books = AbuseCounts::default();
    for (profile, outcome) in &phases {
        if *profile == Profile::GreedyScraper {
            url_books.merge(&outcome.abuse);
        }
    }
    url_books.merge(&greedy.counts);
    url_books.merge(&polite_c.counts);

    let mut report = BenchReport::new(
        "abuse",
        Value::object()
            .with("scale", scale)
            .with("seed", seed)
            .with("conns", conns)
            .with("threads", threads)
            .with("requests", requests)
            .with("budget_ms", budget_ms)
            .with("rss_ceiling_mb", rss_ceiling_mb),
    );
    report.metric(
        "limiter",
        Value::object()
            .with("limit", URL_LIMIT)
            .with("window_secs", URL_WINDOW_SECS)
            .with("penalty_secs", URL_PENALTY_SECS)
            .with("allowed", rate_stats.allowed)
            .with("denied", rate_stats.denied)
            .with("penalized", rate_stats.penalized),
    );
    report.metric("baseline", summary_json(&baseline));
    report.metric(
        "profiles",
        phases.iter().fold(Value::object(), |o, (profile, outcome)| {
            o.with(
                profile.name(),
                Value::object()
                    .with("polite", summary_json(&outcome.polite))
                    .with("abuse", counts_json(&outcome.abuse)),
            )
        }),
    );
    report.metric(
        "four_tct",
        Value::object()
            .with("polite", collector_json(&polite_c))
            .with("greedy", collector_json(&greedy)),
    );
    report.metric(
        "server",
        Value::object()
            .with("requests_served", services.dissenter.requests_served())
            .with("read_timeouts", counter("conn.read_timeouts"))
            .with("write_timeouts", counter("conn.write_timeouts"))
            .with("oversize", counter("conn.oversize"))
            .with("cache_hits", counter("cache.hits"))
            .with("cache_misses", counter("cache.misses"))
            .with("rss_peak_mb", rss_peak_mb),
    );

    // Polite envelope: success ≥ 99% and p99 ≤ 3× baseline (10 ms floor
    // against microsecond-scale scheduler jitter) under every profile.
    report.gate("baseline.failures", baseline.failures as f64, Op::Eq, 0.0);
    let mut names: Vec<&str> = phases.iter().map(|(p, _)| p.name()).collect();
    names.sort_unstable();
    let mut expected = PROFILES;
    expected.sort_unstable();
    report.check("profile_set", names == expected);
    let p99_gate = (baseline.p99_us as f64 * 3.0).max(10_000.0);
    for (profile, outcome) in &phases {
        let (p, name) = (&outcome.polite, profile.name());
        let total = p.requests + p.failures;
        let success = (total > 0).then(|| p.requests as f64 / total as f64);
        report.gate(&format!("{name}.polite.success"), success, Op::Ge, 0.99);
        report.gate(&format!("{name}.polite.p99_us"), p.p99_us as f64, Op::Le, p99_gate);
        report.check(&format!("{name}.abuse.reconciles"), outcome.abuse.reconciles());
        report.gate(&format!("{name}.abuse.leaks"), outcome.abuse.leaks as f64, Op::Eq, 0.0);
        let incoherent = outcome.abuse.incoherent as f64;
        report.gate(&format!("{name}.abuse.incoherent"), incoherent, Op::Eq, 0.0);
    }

    // The slowloris phase must have been defended, and every hostile
    // close accounted by a defense counter. Keep-alive retirements at the
    // per-connection cap are graceful closes, not defense closes; only
    // the slowloris phase's closes are all defense-attributable.
    let slowloris =
        &phases.iter().find(|(p, _)| *p == Profile::Slowloris).expect("slowloris ran").1.abuse;
    report.gate("slowloris.dropped", slowloris.dropped as f64, Op::Gt, 0.0);
    report.gate("slowloris.errors", slowloris.errors as f64, Op::Eq, 0.0);
    report.gate("server.read_timeouts", counter("conn.read_timeouts") as f64, Op::Gt, 0.0);
    report.gate("server.write_timeouts", counter("conn.write_timeouts") as f64, Op::Gt, 0.0);
    let defense_closes =
        counter("conn.read_timeouts") + counter("conn.write_timeouts") + counter("conn.oversize");
    let hostile_closes = slowloris.closed_conns as f64;
    report.gate("server.defense_closes", defense_closes as f64, Op::Ge, hostile_closes);

    // Limiter books must reconcile exactly against client-observed
    // outcomes on the rate-limited route.
    let client_allowed = url_books.served + url_books.not_modified + url_books.rejected;
    report.gate("limiter.allowed", rate_stats.allowed as f64, Op::Eq, client_allowed as f64);
    report.gate("limiter.denied", rate_stats.denied as f64, Op::Eq, url_books.denied as f64);
    let penalized = url_books.penalized as f64;
    report.gate("limiter.penalized", rate_stats.penalized as f64, Op::Eq, penalized);
    report.gate("client.penalized", penalized, Op::Gt, 0.0);

    // 4TCT: the polite collector must out-collect the greedy one.
    let acquired = polite_c.acquired as f64;
    report.gate("four_tct.polite.acquired", acquired, Op::Gt, greedy.acquired as f64);
    report.gate("four_tct.polite.sleeps", polite_c.sleeps as f64, Op::Gt, 0.0);
    report.gate("server.rss_peak_mb", rss_peak_mb, Op::Le, rss_ceiling_mb);
    Ok(report)
}
