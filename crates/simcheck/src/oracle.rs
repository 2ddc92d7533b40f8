//! The oracle library: everything a scenario run must satisfy.
//!
//! [`check_scenario`] runs the pipeline end to end and applies, in
//! fail-fast order:
//!
//! 1. **obs ↔ store reconciliation** — every `crawl.<phase>.*` counter
//!    must agree exactly with the store's own [`crawler`] accounting,
//!    throttle sleeps must reconcile, and scorer counters must agree
//!    with each other and with the mirror;
//! 2. **full recovery** — inside the sampler's fault envelope the retry
//!    layer must deliver every page (no dead letters);
//! 3. **cross-crate invariants** — [`crawler::CrawlStore::check_accounting`],
//!    the platform shadow-visibility invariants on a regenerated world,
//!    world ↔ mirror fidelity field by field, monotone report curves,
//!    and SVM report sanity;
//! 4. **differential oracles** — the faulted sharded run and a clean
//!    serial run of the same world must produce a byte-identical
//!    rendered report, byte-identical CSV exports, a byte-identical
//!    persisted mirror, and identical deterministic counters;
//! 5. **incremental re-crawl** — with the client revalidation cache on,
//!    a second sweep against the same live services must persist a
//!    mirror byte-identical to the first sweep's while resolving a
//!    nonzero share of its fetches through `304 Not Modified` (the
//!    conditional-request fast path must be both engaged and invisible);
//! 6. **crash recovery** (`crash.*`) — a journaled crawl killed at the
//!    scenario's seeded WAL-op failpoint, recovered, and resumed must
//!    yield a store byte-identical to an uninterrupted run, replay its
//!    completed phases from disk without a single re-fetch, revalidate
//!    the interrupted phase's partial progress via `304`s, and feed the
//!    downstream study (rendered report + CSV exports) to byte-identical
//!    output. Recovery itself must be idempotent: opening a killed
//!    journal twice — torn tail or not — yields the same state.
//! 7. **adversarial traffic** (`abuse.*`) — the scenario's seeded abuse
//!    profile ([`bench::abusegen`]) driven against hardened services
//!    concurrently with a polite load must leave the polite client
//!    inside its starvation envelope, leak nothing across the shadow
//!    boundary, and reconcile every request — client-side books and the
//!    rate limiter's own accounting — to the last penalized 429.
//! 8. **longitudinal sweeps** (`longitudinal.*`) — a study composed
//!    sweep-by-sweep over the scenario's seeded epoch evolution (shared
//!    sim clock, shared revalidation cache, per-target ETag stamps)
//!    must equal a one-shot study of the final epoch state byte-for-byte
//!    on every artifact; the drift report must detect the mid-study
//!    scorer revision and carry genuine rescoring deltas whenever the
//!    scenario's drift is nonzero; and a sweep killed at a journaled
//!    failpoint and resumed in place must compose to the same bytes.
//! 9. **out-of-core scale path** (`scale.*`) — the streaming
//!    [`synth::WorldSource`] drained at the scenario's seeded batch size
//!    (and worker count) must rebuild a world content-identical to the
//!    materialized generator's; the spill primitives under a
//!    deliberately tiny key budget must reproduce their in-memory twins;
//!    and the study's report rebuilt at that budget must spill and still
//!    render and export byte for byte like the study's own.

use crate::scenario::Scenario;
use analysis::StudyReport;
use crawler::store::ShadowLabel;
use crawler::CrawlStore;
use dissenter_core::{render, run_study, Study};
use platform::World;
use std::fmt;
use std::path::{Path, PathBuf};

/// One oracle violation: which check tripped and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Stable check identifier (e.g. `"obs.reconcile"`).
    pub check: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Failure {
    fn new(check: &str, detail: impl Into<String>) -> Self {
        Self { check: check.to_owned(), detail: detail.into() }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Which oracle family to run: [`Family::All`] is the default sweep;
/// [`Family::Crash`] runs only the crash-recovery family (used by the
/// CI crash job and mutation smoke, where the full differential stack
/// would drown the signal in runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Every oracle, fail-fast (what [`check_scenario`] runs).
    All,
    /// Only the `crash.*` kill-point family.
    Crash,
    /// Only the `abuse.*` adversarial-traffic family.
    Abuse,
    /// Only the `longitudinal.*` sweep-composition family.
    Longitudinal,
    /// Only the `scale.*` streaming/out-of-core family.
    Scale,
}

impl Family {
    /// Parse a `--family` flag value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "all" => Ok(Self::All),
            "crash" => Ok(Self::Crash),
            "abuse" => Ok(Self::Abuse),
            "longitudinal" => Ok(Self::Longitudinal),
            "scale" => Ok(Self::Scale),
            other => Err(format!(
                "unknown family {other:?} (expected all|crash|abuse|longitudinal|scale)"
            )),
        }
    }
}

/// Run `sc` through one oracle [`Family`].
pub fn check_scenario_family(sc: &Scenario, family: Family) -> Result<(), Failure> {
    match family {
        Family::All => check_scenario(sc),
        Family::Crash => crash_recovery(sc),
        Family::Abuse => abuse_traffic(sc),
        Family::Longitudinal => longitudinal_sweeps(sc),
        Family::Scale => scale_budget_sweep(sc),
    }
}

/// Run `sc` end to end and apply every oracle. `Ok(())` means the
/// faulted, sharded run was indistinguishable from a clean serial run
/// and every invariant held.
pub fn check_scenario(sc: &Scenario) -> Result<(), Failure> {
    let faulted = run_study(&sc.config_faulted());

    reconcile_obs(&faulted)?;
    full_recovery(&faulted)?;
    faulted.store.check_accounting().map_err(|e| Failure::new("crawler.accounting", e))?;

    // The synthesizer is itself deterministic and worker-invariant, so
    // the oracle can regenerate the ground-truth world the services
    // served and hold the crawled mirror against it.
    let (world, _truth) = synth::generate(&sc.config_faulted().world);
    world.dissenter.check_invariants().map_err(|e| Failure::new("platform.invariants", e))?;
    mirror_fidelity(&world, &faulted.store)?;

    report_curves(&faulted)?;
    svm_sanity(&faulted)?;

    let control = run_study(&sc.config_control());
    differential(sc, &faulted, &control)?;

    incremental_recrawl(sc)?;
    crash_recovery(sc)?;
    abuse_traffic(sc)?;
    longitudinal_sweeps(sc)?;
    scale_budget_sweep(sc)
}

/// Oracle 9: the out-of-core scale path. Three legs:
///
/// * `scale.stream` — [`synth::WorldSource`] drained at the scenario's
///   seeded `stream_batch` (and at the scenario's worker count) must
///   rebuild a world whose served-content digest
///   ([`platform::World::content_hash`]) equals the materialized
///   generator's, with the same ground truth and comment volume. Batch
///   size and worker count are presentation knobs; a digest shift means
///   the streaming refactor leaked either into sampling order or into
///   per-batch text synthesis.
/// * `scale.spill` — the external-merge primitives under the scenario's
///   deliberately tiny key budget must reproduce the in-memory TLD,
///   domain, per-domain median and language tables exactly, on the very
///   URL/comment population the study analyzed. The in-memory tables
///   are references only: the report always counts through the spill
///   path.
/// * `scale.merge` — the study's report rebuilt at the scenario's
///   budget must write at least one spill run (`analysis.spill.runs`),
///   render byte-identically to the study's own report (counted at the
///   default budget, which no scenario world reaches, so no run is
///   written), and export byte-identical CSVs — a budget sweep over one
///   code path.
///
/// Runs on the control config (clean network): fault × spill
/// interactions belong to the differential family. `stream_batch == 0`
/// disables the family — the shrinker's off switch and the default for
/// replays written before it existed.
fn scale_budget_sweep(sc: &Scenario) -> Result<(), Failure> {
    if sc.stream_batch == 0 {
        return Ok(()); // family disabled (shrunk away, or a pre-scale replay)
    }
    let fail = |check: &str, d: String| Failure::new(check, d);
    let cfg = sc.config_control();

    // scale.stream — streamed batches vs the materialized world.
    let (reference, ref_truth) = synth::generate(&cfg.world);
    let source = synth::WorldSource::new(&cfg.world, sc.workers).with_batch_size(sc.stream_batch);
    let streamed_truth = source.truth().clone();
    let mut batches = 0usize;
    let mut streamed = platform::World::new();
    for batch in source {
        batches += 1;
        batch.apply(&mut streamed);
    }
    if streamed.content_hash() != reference.content_hash() {
        return Err(fail(
            "scale.stream",
            format!(
                "world streamed at batch size {} (workers {}) serves different content than \
                 the materialized world (digest {:016x} vs {:016x})",
                sc.stream_batch,
                sc.workers,
                streamed.content_hash(),
                reference.content_hash()
            ),
        ));
    }
    if streamed_truth.active_indices != ref_truth.active_indices
        || streamed_truth.core_author_ids != ref_truth.core_author_ids
    {
        return Err(fail(
            "scale.stream",
            "the source's ground truth diverges from the materialized generator's".to_owned(),
        ));
    }
    if batches < 2 {
        return Err(fail(
            "scale.stream",
            format!(
                "batch size {} produced only {batches} batch(es) — the streaming path \
                 was not actually exercised",
                sc.stream_batch
            ),
        ));
    }

    // scale.spill — external-merge primitives vs their in-memory twins,
    // on the study's own URL and comment population.
    let mut study = run_study(&cfg);
    let store = &study.store;
    let spill_fail = |e: std::io::Error| fail("scale.spill", format!("spill run I/O: {e}"));
    let budget = sc.spill_budget;
    let diverges = |table: &str| {
        fail("scale.spill", format!("{table} table diverges under a {budget}-key spill budget"))
    };
    let urls: Vec<&str> = store.urls.values().map(|u| u.url.as_str()).collect();
    let spilled = analysis::spill::tld_table_spilled(urls.iter().copied(), 12, budget, None)
        .map_err(spill_fail)?;
    if spilled != analysis::domains::tld_table(urls.iter().copied(), 12) {
        return Err(diverges("TLD"));
    }
    let spilled = analysis::spill::domain_table_spilled(urls.iter().copied(), 12, budget, None)
        .map_err(spill_fail)?;
    if spilled != analysis::domains::domain_table(urls.iter().copied(), 12) {
        return Err(diverges("domain"));
    }
    let url_comments: Vec<(&str, usize)> =
        store.urls.values().map(|u| (u.url.as_str(), u.declared_comment_count)).collect();
    let spilled = analysis::spill::domain_comment_medians_spilled(
        url_comments.iter().copied(),
        1,
        budget,
        None,
    )
    .map_err(spill_fail)?;
    let resident = analysis::domains::domain_comment_medians(url_comments.iter().copied(), 1);
    let bits = |rows: &[(String, usize, f64)]| -> Vec<(String, usize, u64)> {
        rows.iter().map(|(d, n, m)| (d.clone(), *n, m.to_bits())).collect()
    };
    if bits(&spilled) != bits(&resident) {
        return Err(diverges("per-domain median"));
    }
    let languages = analysis::spill::language_table_spilled(store, budget, None)
        .map_err(spill_fail)?;
    if languages != analysis::content::language_table(store) {
        return Err(diverges("language"));
    }

    // scale.merge — the control study's report rebuilt at the scenario's
    // spill budget must render and export byte-identically to the
    // study's own report (counted at the default budget, which no
    // scenario world reaches), and must actually have spilled.
    let metrics = obs::Registry::new();
    let workers = sc.workers.max(1);
    let pool = httpnet::ThreadPool::new(workers, workers * 2);
    let rebuilt = analysis::report::build_report_pooled_opts(
        store,
        &reference.baselines,
        &pool,
        Some(&metrics),
        &analysis::ReportOptions { spill_budget: budget },
    );
    if metrics.counter("analysis.spill.runs").get() == 0 {
        return Err(fail(
            "scale.merge",
            format!("a {budget}-key spill budget wrote no spill run — the leg is vacuous"),
        ));
    }
    let base = std::env::temp_dir().join(format!(
        "simcheck-scale-{}-{:016x}",
        std::process::id(),
        sc.seed
    ));
    let result = csv_identical("scale.merge", &study.report, &rebuilt, &base);
    std::fs::remove_dir_all(&base).ok();
    result?;
    let want = render::deterministic(&study);
    study.report = rebuilt;
    let have = render::deterministic(&study);
    if have != want {
        return Err(fail(
            "scale.merge",
            format!(
                "the report spilled at a {budget}-key budget renders differently: {}",
                first_diff_line(&have, &want)
            ),
        ));
    }
    Ok(())
}

/// Oracle 8: longitudinal sweeps. Builds the scenario's longitudinal
/// study twice — composed sweep-by-sweep over the seeded epoch
/// evolution, and one-shot at the final epoch state — and demands:
///
/// * `longitudinal.oracle` — every artifact (deterministic render,
///   longitudinal section, windowed CSVs, figure CSVs, persisted JSONL
///   mirror) byte-identical between the two, and the incremental sweeps
///   demonstrably 304-dominated from the second sweep on. Both modes
///   score under the same declared revision timeline, so equality must
///   hold at any drift — a crawl-, clock-, stamp-, or
///   revalidation-layer bug cannot hide behind scorer drift;
/// * `longitudinal.drift` — the drift report detects the mid-study
///   revision the schedule deploys, its calibration sample is nonempty,
///   and the rescoring deltas are genuine: exactly zero at drift 0,
///   nonzero movement on some calibration comment at drift > 0 (the
///   `skip_drift_rescore` mutation zeroes them and must trip here);
/// * `longitudinal.resume` — the composed study repeated with its last
///   sweep killed at a seeded journal failpoint and resumed in place
///   composes to the same bytes as the uninterrupted composition.
///
/// Runs on a clean network at the scenario's worker shape (fault × sweep
/// interactions belong to the differential family, not here). `epochs ==
/// 0` disables the family — the shrinker's off switch and the default
/// for replays written before it existed.
fn longitudinal_sweeps(sc: &Scenario) -> Result<(), Failure> {
    use dissenter_core::longitudinal::{artifacts, run_composed, run_one_shot, LongitudinalConfig};

    if sc.epochs == 0 {
        return Ok(()); // family disabled (shrunk away, or a pre-longitudinal replay)
    }
    let fail = |check: &str, d: String| Failure::new(check, d);
    let mut study = sc.config_control();
    study.workers = sc.workers;
    study.crawl.workers = sc.crawl_workers;
    let cfg = LongitudinalConfig {
        study,
        epochs: sc.epochs,
        drift: sc.drift,
        drift_seed: sc.world_seed,
        calibration: 64,
        durable_root: None,
        kill_sweep: None,
    };

    let composed = run_composed(&cfg);
    let one_shot = run_one_shot(&cfg);

    // longitudinal.oracle — byte equality on every artifact, then proof
    // the incremental path was actually exercised.
    let (a, b) = (artifacts(&composed), artifacts(&one_shot));
    for ((name, composed_bytes), (_, one_shot_bytes)) in a.iter().zip(&b) {
        if composed_bytes != one_shot_bytes {
            let detail = match (
                std::str::from_utf8(composed_bytes),
                std::str::from_utf8(one_shot_bytes),
            ) {
                (Ok(ca), Ok(ob)) => first_diff_line(ca, ob),
                _ => format!("{} vs {} bytes", composed_bytes.len(), one_shot_bytes.len()),
            };
            return Err(fail(
                "longitudinal.oracle",
                format!(
                    "{name}: composed sweeps diverge from the one-shot study \
                     (epochs {}, drift {}): {detail}",
                    sc.epochs, sc.drift
                ),
            ));
        }
    }
    let base_304 = composed.sweep_not_modified[0];
    if composed.sweep_not_modified[1..].iter().any(|&n| n <= base_304) {
        return Err(fail(
            "longitudinal.oracle",
            format!(
                "incremental sweeps are not 304-dominated (first sweep {base_304}, later {:?}) \
                 — the shared revalidation cache or per-target stamps are not engaging",
                &composed.sweep_not_modified[1..]
            ),
        ));
    }

    // longitudinal.drift — the mid-study revision must be detected, and
    // its rescoring deltas must be genuine.
    let boundaries = &composed.drift.boundaries;
    if boundaries.len() != 1 {
        return Err(fail(
            "longitudinal.drift",
            format!(
                "expected exactly one version boundary over {} epochs, report holds {}",
                sc.epochs,
                boundaries.len()
            ),
        ));
    }
    let b = &boundaries[0];
    if b.calibration_n == 0 {
        return Err(fail("longitudinal.drift", "empty calibration sample".to_owned()));
    }
    if sc.drift == 0.0 {
        if b.max_abs_comment_delta != 0.0 || b.flagged {
            return Err(fail(
                "longitudinal.drift",
                format!("a drift-0 redeploy moved calibration scores: {b:?}"),
            ));
        }
    } else if b.max_abs_comment_delta == 0.0 {
        return Err(fail(
            "longitudinal.drift",
            format!(
                "drift {} moved no calibration comment at the v{}->v{} boundary — the \
                 rescoring pass is not actually rescoring",
                sc.drift, b.from_version, b.to_version
            ),
        ));
    }

    // longitudinal.resume — kill the last sweep at a seeded journal op
    // and resume it; the composition must not notice.
    let root = std::env::temp_dir().join(format!(
        "simcheck-longitudinal-{}-{:016x}",
        std::process::id(),
        sc.seed
    ));
    std::fs::remove_dir_all(&root).ok();
    let kill_at = 1 + (sc.kill_fraction * 30.0) as u64;
    let killed_cfg = LongitudinalConfig {
        durable_root: Some(root.clone()),
        kill_sweep: Some((sc.epochs, kill_at)),
        ..cfg
    };
    let resumed = run_composed(&killed_cfg);
    std::fs::remove_dir_all(&root).ok();
    for ((name, want), (_, have)) in a.iter().zip(&artifacts(&resumed)) {
        if want != have {
            return Err(fail(
                "longitudinal.resume",
                format!(
                    "{name}: composition with sweep {} killed at journal op {kill_at} and \
                     resumed diverges from the uninterrupted composition",
                    sc.epochs
                ),
            ));
        }
    }
    Ok(())
}

/// Oracle 7: adversarial traffic. Serves the scenario's world through a
/// hardened [`webfront::SimServices`] stack — tight header/write
/// deadlines, a short penalty-enabled per-URL rate limit, metrics wired
/// — then drives the scenario's seeded [`bench::abusegen::Profile`]
/// with `abuse_conns` hostile connections concurrently with a polite
/// closed-loop load, plus a greedy burst on the rate-limited route so
/// penalties always engage. Demands:
///
/// * `abuse.polite` — the polite client stays inside the starvation
///   envelope: ≥ 99% success and p99 under an absolute 2 s ceiling;
/// * `abuse.leak` — zero shadow-visibility leaks (a cached or replayed
///   validator must never reveal shadowed content to the wrong viewer)
///   and zero ETag ↔ body incoherence under stampede;
/// * `abuse.reconcile` — every abuse segment's client-side books
///   balance exactly (offered = served + 304 + 429 + rejected +
///   dropped + errors), and the limiter's own `RateStats` agree with
///   client-observed outcomes on the rate-limited route to the exact
///   count — penalized lockouts included, and at least one observed;
/// * `abuse.defense` — when the profile is slowloris, the server's
///   `conn.read_timeouts`/`conn.write_timeouts` counters prove the
///   header and write deadlines actually fired, and defense closes
///   cover every hostile close the clients observed.
fn abuse_traffic(sc: &Scenario) -> Result<(), Failure> {
    use bench::abusegen::{
        greedy_collect, run_mixed, shadow_probe, AbuseConfig, AbuseCounts, AbuseTargets, Profile,
    };
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    if sc.abuse_conns == 0 {
        return Ok(()); // family disabled (shrunk away, or a pre-abuse replay)
    }
    let fail = |check: &str, d: String| Failure::new(check, d);
    let cfg = sc.config_control();
    let (world, _truth) = synth::generate(&cfg.world);
    let world = Arc::new(world);

    let registry = obs::Registry::new();
    let cache = webfront::cache::FrontCache::with_registry(
        world.content_hash(),
        httpnet::CacheConfig::default(),
        &registry,
    );
    // Short window + penalty so the limiter binds (and bites) within
    // the phase instead of the production 60 s cadence.
    let limiter = platform::RateLimiter::new(3, 1).with_penalty(3);
    let dissenter = Arc::new(webfront::dissenter::DissenterFront::with_parts(
        world.clone(),
        cache,
        limiter,
        platform::Clock::wall(),
    ));
    let mut fronts = webfront::SimFronts::new(world.clone());
    fronts.dissenter = dissenter.clone();
    let hardened = httpnet::ServerConfig {
        workers: 4,
        queue: 256,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_millis(400),
        header_read_timeout: Duration::from_millis(300),
        metrics: Some(registry.clone()),
        ..httpnet::ServerConfig::default()
    };
    let services = webfront::SimServices::start_with(fronts, hardened)
        .map_err(|e| fail("abuse.serve", e.to_string()))?;
    let addr = services.dissenter.addr();

    let targets = AbuseTargets::discover(&world, 3)
        .ok_or_else(|| fail("abuse.serve", "world has no dissenter targets".to_owned()))?;
    let shadow = shadow_probe(addr, &world);
    let mut names: Vec<String> =
        world.dissenter_users().map(|i| world.user(i).username.clone()).collect();
    names.sort_unstable();
    let polite_targets: Vec<String> =
        names.iter().take(8).map(|n| format!("/user/{n}")).collect();

    let profile = Profile::from_index(sc.abuse_profile);
    let abuse_cfg = AbuseConfig {
        conns: sc.abuse_conns,
        seed: sc.seed,
        conn_deadline: Duration::from_millis(1200),
        ..AbuseConfig::default()
    };
    let polite = bench::loadgen::LoadConfig {
        threads: 2,
        requests_per_thread: 60,
        warmup_per_thread: 10,
        ..bench::loadgen::LoadConfig::default()
    };
    let outcome = run_mixed(
        addr,
        profile,
        &targets,
        shadow.as_ref(),
        &abuse_cfg,
        &polite_targets,
        &polite,
        Duration::from_millis(2200),
    );
    // A short greedy burst on the rate-limited route regardless of
    // profile: penalties must engage (and reconcile) in every armed run.
    let greedy = greedy_collect(addr, &targets.cuids, Instant::now() + Duration::from_millis(1200));

    // abuse.polite — starvation envelope.
    let p = &outcome.polite;
    let total = p.requests + p.failures;
    if total == 0 || (p.failures as f64) > total as f64 * 0.01 {
        return Err(fail(
            "abuse.polite",
            format!(
                "polite client starved under {}: {} failures of {total} requests",
                profile.name(),
                p.failures
            ),
        ));
    }
    if p.p99_us > 2_000_000 {
        return Err(fail(
            "abuse.polite",
            format!("polite p99 {} us breaches the 2 s envelope under {}", p.p99_us, profile.name()),
        ));
    }

    // abuse.leak — shadow isolation and cache coherence.
    if outcome.abuse.leaks > 0 {
        return Err(fail(
            "abuse.leak",
            format!("{} shadow-visibility leaks under {}", outcome.abuse.leaks, profile.name()),
        ));
    }
    if outcome.abuse.incoherent > 0 {
        return Err(fail(
            "abuse.leak",
            format!(
                "{} ETag/body coherence violations under {}",
                outcome.abuse.incoherent,
                profile.name()
            ),
        ));
    }

    // abuse.reconcile — client books, then the limiter's own.
    for (tag, counts) in [(profile.name(), &outcome.abuse), ("greedy_burst", &greedy.counts)] {
        if !counts.reconciles() {
            return Err(fail("abuse.reconcile", format!("{tag} books do not balance: {counts:?}")));
        }
    }
    let mut url_books = AbuseCounts::default();
    if profile == Profile::GreedyScraper {
        url_books.merge(&outcome.abuse);
    }
    url_books.merge(&greedy.counts);
    let stats = dissenter.rate_stats();
    let client_allowed = url_books.served + url_books.not_modified + url_books.rejected;
    if stats.allowed != client_allowed
        || stats.denied != url_books.denied
        || stats.penalized != url_books.penalized
    {
        return Err(fail(
            "abuse.reconcile",
            format!(
                "limiter books diverge from client-observed outcomes: limiter \
                 allowed/denied/penalized {}/{}/{} vs client {}/{}/{}",
                stats.allowed,
                stats.denied,
                stats.penalized,
                client_allowed,
                url_books.denied,
                url_books.penalized
            ),
        ));
    }
    if url_books.penalized == 0 {
        return Err(fail(
            "abuse.reconcile",
            "no penalized lockout was ever observed (the greedy burst never bit)".to_owned(),
        ));
    }

    // abuse.defense — slowloris must be defeated by the deadline sweeps,
    // and every hostile close accounted to a defense counter.
    if profile == Profile::Slowloris {
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        if outcome.abuse.errors > 0 {
            return Err(fail(
                "abuse.defense",
                format!("{} tricklers outlived the give-up budget unclosed", outcome.abuse.errors),
            ));
        }
        if counter("conn.read_timeouts") == 0 || counter("conn.write_timeouts") == 0 {
            return Err(fail(
                "abuse.defense",
                format!(
                    "deadline defenses dead: conn.read_timeouts {} conn.write_timeouts {}",
                    counter("conn.read_timeouts"),
                    counter("conn.write_timeouts")
                ),
            ));
        }
        let defense =
            counter("conn.read_timeouts") + counter("conn.write_timeouts") + counter("conn.oversize");
        if defense < outcome.abuse.closed_conns {
            return Err(fail(
                "abuse.defense",
                format!(
                    "clients observed {} hostile closes but defense counters account {defense}",
                    outcome.abuse.closed_conns
                ),
            ));
        }
    }
    Ok(())
}

/// Oracle 6: crash recovery. Journals a reference crawl to learn the
/// WAL-op count, maps the scenario's `kill_fraction` onto a concrete
/// kill op, kills a second crawl there (torn tail per the scenario),
/// then demands: the kill actually fired (`crash.kill`), double
/// recovery is idempotent (`crash.replay`), and a resumed crawl is
/// indistinguishable from the uninterrupted one — persisted store,
/// rendered report, and CSV exports all byte-identical, with completed
/// phases replayed from disk (zero fetches) and the interrupted phase's
/// journaled partial progress answered by `304`s (`crash.resume`,
/// `crash.render`, `crash.csv`).
///
/// Runs on the control config (clean network, serial): fault × kill
/// interactions belong to the faulted differential, not here — a kill
/// must be recoverable even under ideal conditions before fault soup
/// means anything.
fn crash_recovery(sc: &Scenario) -> Result<(), Failure> {
    if sc.kill_fraction <= 0.0 {
        return Ok(()); // family disabled (shrunk away, or a pre-crash replay)
    }
    let cfg = sc.config_control();
    let fail = |check: &str, d: String| Failure::new(check, d);
    let (world, _truth) = synth::generate(&cfg.world);
    let world = std::sync::Arc::new(world);

    // Simulated time: a resume landing inside the production 60 s
    // window a killed run already spent waits it out by advancing the
    // services' clock (the crawler's sleep-until-reset handling is what
    // keeps that correct).
    let services =
        webfront::SimServices::simulated(world.clone(), crawler::default_server_config())
            .map_err(|e| fail("crash.serve", e.to_string()))?;
    let crawler_for = || {
        let mut crawler = crawler::Crawler::new(crawler::Endpoints {
            dissenter: services.dissenter.addr(),
            gab: services.gab.addr(),
            reddit: services.reddit.addr(),
            youtube: services.youtube.addr(),
        });
        crawler.clock = services.clock.clone();
        crawler.config = cfg.crawl.clone();
        crawler.config.enum_gap_tolerance =
            crawler.config.enum_gap_tolerance.min((world.gab.max_id() / 4).max(512));
        crawler.enable_revalidation(1 << 16);
        crawler
    };

    let base = std::env::temp_dir().join(format!(
        "simcheck-crash-{}-{:016x}",
        std::process::id(),
        sc.seed
    ));
    std::fs::remove_dir_all(&base).ok();
    let result = crash_recovery_in(sc, &base, &crawler_for, &world);
    std::fs::remove_dir_all(&base).ok();
    result
}

/// The body of [`crash_recovery`], separated so the caller can clean up
/// `base` on every exit path.
fn crash_recovery_in(
    sc: &Scenario,
    base: &Path,
    crawler_for: &dyn Fn() -> crawler::Crawler,
    world: &World,
) -> Result<(), Failure> {
    let fail = |check: &str, d: String| Failure::new(check, d);
    let durable = crawler::DurableConfig::default();

    // Uninterrupted journaled reference run: the byte-identity target,
    // and the WAL-op count the kill fraction indexes into.
    let reference_crawler = crawler_for();
    let reference = reference_crawler
        .full_crawl_durable(&base.join("reference"), &durable)
        .map_err(|e| fail("crash.reference", e.to_string()))?;
    let total_ops = reference_crawler
        .metrics
        .snapshot()
        .counter("wal.appends")
        .filter(|&n| n > 1)
        .ok_or_else(|| {
            fail("crash.reference", "journaled run recorded no WAL appends".to_owned())
        })?;

    // Map the unit-interval fraction onto a concrete op in [1, W].
    let kill_at = 1 + (sc.kill_fraction * (total_ops - 1) as f64) as u64;
    let killed_dir = base.join("killed");
    let kill_cfg = crawler::DurableConfig {
        failpoint: crawler::Failpoint { kill_at_op: Some(kill_at), torn_tail: sc.torn_tail },
        ..crawler::DurableConfig::default()
    };
    match crawler_for().full_crawl_durable(&killed_dir, &kill_cfg) {
        Ok(_) => {
            return Err(fail(
                "crash.kill",
                format!("failpoint at op {kill_at}/{total_ops} never fired"),
            ))
        }
        Err(e) if !crawler::journal::is_kill_error(&e) => {
            return Err(fail(
                "crash.kill",
                format!("kill at op {kill_at}/{total_ops} surfaced a foreign error: {e}"),
            ))
        }
        Err(_) => {}
    }

    // Idempotent recovery: opening the killed journal twice must yield
    // the same completed-prefix and the same store bytes (the first
    // open truncates any torn tail; the second sees a clean log).
    let recovered = |tag: &str| -> Result<(usize, Vec<Vec<u8>>), Failure> {
        let (_, state) =
            crawler::journal::Journal::recover(&killed_dir, &durable, obs::Registry::new())
                .map_err(|e| fail("crash.replay", e.to_string()))?;
        Ok((state.completed, persist_bytes(&state.store, &base.join(tag))?))
    };
    let (completed_a, bytes_a) = recovered("recover-a")?;
    let (completed_b, bytes_b) = recovered("recover-b")?;
    if completed_a != completed_b || bytes_a != bytes_b {
        return Err(fail(
            "crash.replay",
            format!(
                "double recovery diverged (completed {completed_a} vs {completed_b}, \
                 torn_tail={})",
                sc.torn_tail
            ),
        ));
    }

    // Resume must reconstruct the uninterrupted run byte for byte.
    let resumer = crawler_for();
    let (resumed, info) = resumer
        .resume(&killed_dir, &durable)
        .map_err(|e| fail("crash.resume", e.to_string()))?;
    let resumed_bytes = persist_bytes(&resumed, &base.join("persist-resumed"))?;
    let reference_bytes = persist_bytes(&reference, &base.join("persist-reference"))?;
    for (name, (a, b)) in
        crawler::persist::FILES.iter().zip(resumed_bytes.iter().zip(&reference_bytes))
    {
        if a != b {
            return Err(fail(
                "crash.resume",
                format!(
                    "{name}: resumed store bytes diverge from the uninterrupted run \
                     (killed at op {kill_at}/{total_ops}, torn_tail={})",
                    sc.torn_tail
                ),
            ));
        }
    }

    // Completed phases came back from the journal, not the network.
    let snap = resumer.metrics.snapshot();
    for phase in &crawler::Phase::ALL[..info.completed] {
        let attempted = snap.counter(&format!("crawl.{}.attempted", phase.name())).unwrap_or(0);
        if attempted != 0 {
            return Err(fail(
                "crash.resume",
                format!("completed phase {} re-fetched {attempted} pages", phase.name()),
            ));
        }
    }
    // The interrupted phase's journaled partial progress is a floor on
    // the 304s resume must earn back.
    let not_modified: u64 = ["dissenter", "gab", "reddit", "youtube"]
        .iter()
        .map(|s| snap.counter(&format!("http.{s}.not_modified")).unwrap_or(0))
        .sum();
    if not_modified < info.uncheckpointed_reval as u64 {
        return Err(fail(
            "crash.resume",
            format!(
                "resume revalidated {not_modified} fetches but the journal held {} \
                 uncheckpointed entries",
                info.uncheckpointed_reval
            ),
        ));
    }

    // Downstream: the study built from the resumed store must render and
    // export byte-identically to one built from the reference store.
    let workers = sc.workers.max(1);
    let pool = httpnet::ThreadPool::new(workers, workers * 2);
    let study_of = |store: CrawlStore| {
        let report = analysis::report::build_report_pooled_opts(
            &store,
            &world.baselines,
            &pool,
            None,
            &analysis::ReportOptions::default(),
        );
        Study {
            report,
            svm: None,
            store,
            scale_factor: sc.scale,
            runstats: dissenter_core::runstats::collect(&obs::Registry::new()),
        }
    };
    let from_resumed = study_of(resumed);
    let from_reference = study_of(reference);
    let ra = render::deterministic(&from_resumed);
    let rb = render::deterministic(&from_reference);
    if ra != rb {
        return Err(fail(
            "crash.render",
            format!(
                "report from the resumed store diverges: {}",
                first_diff_line(&ra, &rb)
            ),
        ));
    }
    csv_identical("crash.csv", &from_resumed.report, &from_reference.report, base)
}

/// Persist `store` under `dir` and read the canonical files back, in
/// [`crawler::persist::FILES`] order.
fn persist_bytes(store: &CrawlStore, dir: &Path) -> Result<Vec<Vec<u8>>, Failure> {
    let io_fail = |e: std::io::Error| Failure::new("crash.io", e.to_string());
    crawler::persist::save(store, dir).map_err(io_fail)?;
    crawler::persist::FILES
        .iter()
        .map(|f| std::fs::read(dir.join(f)).map_err(io_fail))
        .collect()
}

/// Oracle 5: incremental re-crawl. Runs two full sweeps over one set of
/// live services with a shared revalidation cache — clean network, serial
/// crawl (fault interactions are oracle 4's job) — and demands the
/// second sweep's persisted mirror be byte-identical to the first's with
/// the `304` fast path demonstrably engaged.
fn incremental_recrawl(sc: &Scenario) -> Result<(), Failure> {
    let cfg = sc.config_control();
    let fail = |check: &str, d: String| Failure::new(check, d);
    let (world, _truth) = synth::generate(&cfg.world);
    let world = std::sync::Arc::new(world);
    let services =
        webfront::SimServices::simulated(world.clone(), crawler::default_server_config())
            .map_err(|e| fail("incremental.serve", e.to_string()))?;
    let mut crawler = crawler::Crawler::new(crawler::Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.clock = services.clock.clone();
    crawler.config = cfg.crawl.clone();
    crawler.config.enum_gap_tolerance =
        crawler.config.enum_gap_tolerance.min((world.gab.max_id() / 4).max(512));
    crawler.enable_revalidation(1 << 16);

    let first = crawler.full_crawl();
    let second = crawler.full_crawl();
    for (sweep, store) in [("first", &first), ("second", &second)] {
        let letters = store.dead_letters();
        if !letters.is_empty() {
            return Err(fail(
                "incremental.recovery",
                format!(
                    "{sweep} sweep dead-lettered {} fetches on a clean network; first: {} ({})",
                    letters.len(),
                    letters[0].target,
                    letters[0].cause
                ),
            ));
        }
    }

    let base = std::env::temp_dir().join(format!(
        "simcheck-incr-{}-{:016x}",
        std::process::id(),
        sc.seed
    ));
    let io_fail = |e: std::io::Error| Failure::new("incremental.io", e.to_string());
    let result = (|| {
        let (dir_a, dir_b) = (base.join("sweep1"), base.join("sweep2"));
        crawler::persist::save(&first, &dir_a).map_err(io_fail)?;
        crawler::persist::save(&second, &dir_b).map_err(io_fail)?;
        for name in crawler::persist::FILES {
            let a = std::fs::read(dir_a.join(name)).map_err(io_fail)?;
            let b = std::fs::read(dir_b.join(name)).map_err(io_fail)?;
            if a != b {
                return Err(fail(
                    "incremental.persist",
                    format!("{name}: re-crawl bytes differ from the fresh crawl's"),
                ));
            }
        }
        Ok(())
    })();
    std::fs::remove_dir_all(&base).ok();
    result?;

    let snap = crawler.metrics.snapshot();
    let revalidated: u64 = ["dissenter", "gab", "reddit", "youtube"]
        .iter()
        .map(|s| snap.counter(&format!("http.{s}.not_modified")).unwrap_or(0))
        .sum();
    if revalidated == 0 {
        return Err(fail(
            "incremental.engaged",
            "re-crawl resolved zero fetches via 304 — the conditional fast path never fired"
                .to_owned(),
        ));
    }
    Ok(())
}

/// Obs counters must agree exactly with the crawler's own accounting —
/// the two are incremented at different layers, so any skew means one
/// side is lying.
fn reconcile_obs(study: &Study) -> Result<(), Failure> {
    let snap = &study.runstats.snapshot;
    let mut throttle_total = 0u64;
    for (phase, s) in study.store.stats.phase_snapshots() {
        let get = |suffix: &str| {
            snap.counter(&format!("crawl.{}.{suffix}", phase.name())).unwrap_or(0)
        };
        for (field, counter, store_side) in [
            ("attempted", get("attempted"), s.attempted),
            ("succeeded", get("succeeded"), s.succeeded),
            ("retried", get("retried"), s.retried),
            ("dead_lettered", get("dead_lettered"), s.dead_lettered),
        ] {
            if counter != store_side {
                return Err(Failure::new(
                    "obs.reconcile",
                    format!(
                        "phase {}: obs counter crawl.{}.{field} = {counter} but store \
                         accounting says {store_side}",
                        phase.name(),
                        phase.name(),
                    ),
                ));
            }
        }
        throttle_total += get("throttle_sleeps");
    }
    let store_sleeps =
        study.store.stats.rate_limit_sleeps.load(std::sync::atomic::Ordering::Relaxed);
    if store_sleeps != throttle_total {
        return Err(Failure::new(
            "obs.reconcile",
            format!(
                "store rate_limit_sleeps {store_sleeps} != sum of crawl.*.throttle_sleeps \
                 {throttle_total}"
            ),
        ));
    }

    // Scorer counters: perspective and dictionary score the same texts
    // in the same pass, and the scored-item shard counter tallies that
    // same volume; all Dissenter comments are among the scored texts.
    let persp = snap.counter("classify.perspective.comments").unwrap_or(0);
    let dict = snap.counter("classify.dictionary.comments").unwrap_or(0);
    let scored = snap.counter("shard.classify.score.items").unwrap_or(0);
    if persp != dict || persp != scored {
        return Err(Failure::new(
            "obs.reconcile",
            format!(
                "scorer volumes disagree: perspective {persp}, dictionary {dict}, \
                 shard.classify.score.items {scored}"
            ),
        ));
    }
    let comments = study.store.comments.len() as u64;
    if scored < comments {
        return Err(Failure::new(
            "obs.reconcile",
            format!("scored {scored} texts but the mirror holds {comments} comments"),
        ));
    }
    if let Some(svm) = snap.counter("classify.svm.comments") {
        if svm != comments {
            return Err(Failure::new(
                "obs.reconcile",
                format!("classify.svm.comments {svm} != mirror comments {comments}"),
            ));
        }
    }
    Ok(())
}

/// Inside the sampler's envelope every logical fetch must eventually
/// succeed; a dead letter here means the retry layer gave up too early.
fn full_recovery(study: &Study) -> Result<(), Failure> {
    let letters = study.store.dead_letters();
    if !letters.is_empty() {
        let first = &letters[0];
        return Err(Failure::new(
            "crawl.recovery",
            format!(
                "{} dead letters inside the recovery envelope; first: {} {} ({})",
                letters.len(),
                first.phase.name(),
                first.target,
                first.cause
            ),
        ));
    }
    Ok(())
}

/// The crawled mirror must reproduce the served world exactly: same
/// URLs with the same votes and declared counts, same comments with the
/// same text/threading, and shadow labels matching each comment's
/// (nsfw, offensive) flags.
fn mirror_fidelity(world: &World, store: &CrawlStore) -> Result<(), Failure> {
    let fail = |d: String| Err(Failure::new("mirror.fidelity", d));
    let urls = world.dissenter.urls();
    if store.urls.len() != urls.len() {
        return fail(format!("mirror has {} urls, world has {}", store.urls.len(), urls.len()));
    }
    for u in urls {
        let Some(m) = store.urls.get(&u.id) else {
            return fail(format!("url {} ({}) missing from the mirror", u.id, u.url));
        };
        if m.url != u.url || m.upvotes != u.upvotes || m.downvotes != u.downvotes {
            return fail(format!(
                "url {}: mirror ({}, +{}/-{}) != world ({}, +{}/-{})",
                u.id, m.url, m.upvotes, m.downvotes, u.url, u.upvotes, u.downvotes
            ));
        }
        let declared = world.dissenter.comment_count(u.id);
        if m.declared_comment_count != declared {
            return fail(format!(
                "url {}: declared_comment_count {} != world count {}",
                u.id, m.declared_comment_count, declared
            ));
        }
    }
    let comments = world.dissenter.comments();
    if store.comments.len() != comments.len() {
        return fail(format!(
            "mirror has {} comments, world has {}",
            store.comments.len(),
            comments.len()
        ));
    }
    for c in comments {
        let Some(m) = store.comments.get(&c.id) else {
            return fail(format!("comment {} missing from the mirror", c.id));
        };
        if m.url_id != c.url_id
            || m.author_id != c.author_id
            || m.parent != c.parent
            || m.text != c.text
            || m.created_at != c.created_at
        {
            return fail(format!("comment {}: mirror fields diverge from the world", c.id));
        }
        let expected = match (c.nsfw, c.offensive) {
            (false, false) => ShadowLabel::Standard,
            (true, false) => ShadowLabel::Nsfw,
            (false, true) => ShadowLabel::Offensive,
            (true, true) => ShadowLabel::Both,
        };
        if m.label != expected {
            return fail(format!(
                "comment {}: shadow label {:?} but flags (nsfw={}, offensive={}) imply {:?}",
                c.id, m.label, c.nsfw, c.offensive, expected
            ));
        }
    }
    Ok(())
}

/// Every distribution the report exports must be a well-formed curve:
/// finite, CDF values in [0, 1], x and y monotone non-decreasing.
fn report_curves(study: &Study) -> Result<(), Failure> {
    let r = &study.report;
    let mut curves: Vec<(String, Vec<(f64, f64)>)> =
        vec![("fig3.concentration".into(), r.activity.curve.clone())];
    for (pop, c) in
        [("all", &r.figure4.all), ("nsfw", &r.figure4.nsfw), ("offensive", &r.figure4.offensive)]
    {
        curves.push((format!("fig4.{pop}.likely_to_reject"), c.likely_to_reject.curve(101)));
        curves.push((format!("fig4.{pop}.obscene"), c.obscene.curve(101)));
        curves.push((format!("fig4.{pop}.severe_toxicity"), c.severe_toxicity.curve(101)));
    }
    for d in &r.figure7 {
        curves.push((format!("fig7.{}.likely_to_reject", d.name), d.likely_to_reject.curve(101)));
        curves.push((format!("fig7.{}.severe_toxicity", d.name), d.severe_toxicity.curve(101)));
        curves.push((format!("fig7.{}.attack_on_author", d.name), d.attack_on_author.curve(101)));
    }
    for (bias, e) in &r.figure8.attack_by_bias {
        curves.push((format!("fig8b.{}", bias.label()), e.curve(101)));
    }
    for (name, points) in curves {
        stats::ecdf::validate_curve(&points)
            .map_err(|e| Failure::new("stats.curves", format!("{name}: {e}")))?;
    }
    Ok(())
}

/// Basic sanity on the SVM report when the experiment ran: F1 in range,
/// the full grid present, and both probability vectors summing to one.
fn svm_sanity(study: &Study) -> Result<(), Failure> {
    let Some(svm) = &study.svm else { return Ok(()) };
    let fail = |d: String| Err(Failure::new("svm.sanity", d));
    if !(0.0..=1.0).contains(&svm.cv_f1) {
        return fail(format!("cv_f1 {} out of range", svm.cv_f1));
    }
    if svm.grid.is_empty() || svm.corpus_size == 0 {
        return fail(format!("empty grid ({}) or corpus ({})", svm.grid.len(), svm.corpus_size));
    }
    if !svm.grid.iter().any(|&(l, f1)| l == svm.best_lambda && f1 == svm.cv_f1) {
        return fail(format!("best (λ={}, F1={}) not on the grid", svm.best_lambda, svm.cv_f1));
    }
    for (name, v) in [("mean_class_probs", svm.mean_class_probs), ("class_shares", svm.class_shares)]
    {
        let sum: f64 = v.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return fail(format!("{name} sums to {sum}, expected 1"));
        }
    }
    Ok(())
}

/// The differential oracles: the faulted sharded run must be
/// byte-identical to the clean serial control on every deterministic
/// surface.
fn differential(sc: &Scenario, faulted: &Study, control: &Study) -> Result<(), Failure> {
    // 1. Rendered report (excludes timing-derived run stats).
    let ra = render::deterministic(faulted);
    let rb = render::deterministic(control);
    if ra != rb {
        let diff = first_diff_line(&ra, &rb);
        return Err(Failure::new(
            "differential.render",
            format!("faulted/sharded render diverges from clean/serial: {diff}"),
        ));
    }

    // 2 + 3. CSV exports and the persisted mirror, compared file by file
    // in throwaway directories.
    let base = std::env::temp_dir().join(format!(
        "simcheck-{}-{:016x}",
        std::process::id(),
        sc.seed
    ));
    let result = differential_files(faulted, control, &base);
    std::fs::remove_dir_all(&base).ok();
    result?;

    // 4. Deterministic counters: shard geometry and scorer volumes are
    // contracted to be identical for any worker count and any fault
    // history (`crawl.*` counters are NOT compared — retries and
    // throttle sleeps legitimately differ under faults).
    let diffs: Vec<String> = faulted
        .runstats
        .snapshot
        .diff_counters(&control.runstats.snapshot)
        .into_iter()
        .filter(|(name, _, _)| name.starts_with("shard.") || name.starts_with("classify."))
        .map(|(name, a, b)| format!("{name}: faulted {a} vs control {b}"))
        .collect();
    if !diffs.is_empty() {
        return Err(Failure::new(
            "differential.counters",
            format!("deterministic counters diverge: {}", diffs.join("; ")),
        ));
    }
    Ok(())
}

fn differential_files(faulted: &Study, control: &Study, base: &Path) -> Result<(), Failure> {
    let io_fail = |e: std::io::Error| Failure::new("differential.io", e.to_string());
    let read = |path: PathBuf| std::fs::read(&path).map_err(io_fail);

    csv_identical("differential.csv", &faulted.report, &control.report, base)?;

    let (mir_a, mir_b) = (base.join("mirror-faulted"), base.join("mirror-control"));
    crawler::persist::save(&faulted.store, &mir_a).map_err(io_fail)?;
    crawler::persist::save(&control.store, &mir_b).map_err(io_fail)?;
    for name in crawler::persist::FILES {
        if read(mir_a.join(name))? != read(mir_b.join(name))? {
            return Err(Failure::new("differential.persist", format!("{name} bytes differ")));
        }
    }
    Ok(())
}

/// Export both reports' CSV series under `base` and demand the same
/// file set with the same bytes; any mismatch (or export I/O error)
/// fails `check`.
fn csv_identical(
    check: &str,
    a: &StudyReport,
    b: &StudyReport,
    base: &Path,
) -> Result<(), Failure> {
    let io_fail = |e: std::io::Error| Failure::new(check, format!("CSV export I/O: {e}"));
    let (dir_a, dir_b) = (base.join("csv-a"), base.join("csv-b"));
    let files_a = analysis::export::export_csv(a, &dir_a).map_err(io_fail)?;
    let files_b = analysis::export::export_csv(b, &dir_b).map_err(io_fail)?;
    if files_a != files_b {
        return Err(Failure::new(
            check,
            format!("export file sets differ: {files_a:?} vs {files_b:?}"),
        ));
    }
    for name in &files_a {
        let read = |dir: &Path| std::fs::read(dir.join(name)).map_err(io_fail);
        if read(&dir_a)? != read(&dir_b)? {
            return Err(Failure::new(check, format!("{name} bytes differ")));
        }
    }
    Ok(())
}

/// First line where two renders diverge, for failure detail.
fn first_diff_line(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    format!("lengths differ ({} vs {} lines)", a.lines().count(), b.lines().count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MIN_SCALE;

    /// The cheapest possible scenario: serial, clean, tiny, no SVM.
    fn minimal() -> Scenario {
        Scenario {
            seed: 0,
            world_seed: 0xD15C,
            scale: MIN_SCALE,
            workers: 1,
            crawl_workers: 1,
            retries: 6,
            drop_prob: 0.0,
            error_prob: 0.0,
            truncate_prob: 0.0,
            reset_prob: 0.0,
            stall_prob: 0.0,
            malformed_prob: 0.0,
            rate_limit_prob: 0.0,
            unavailable_prob: 0.0,
            fault_seed: 0,
            svm: false,
            svm_corpus: 300,
            kill_fraction: 0.0,
            torn_tail: false,
            abuse_profile: 0,
            abuse_conns: 0,
            epochs: 0,
            drift: 0.0,
            stream_batch: 0,
            spill_budget: 0,
        }
    }

    #[test]
    fn minimal_clean_scenario_passes_every_oracle() {
        let sc = minimal();
        if let Err(f) = check_scenario(&sc) {
            panic!("minimal scenario failed: {f}");
        }
    }

    #[test]
    fn a_faulted_scenario_passes_every_oracle() {
        // One fixed fault-matrix scenario in-tree so the sweep binary is
        // not the only thing exercising the faulted differential path.
        let sc = Scenario {
            drop_prob: 0.02,
            error_prob: 0.02,
            rate_limit_prob: 0.01,
            fault_seed: 11,
            crawl_workers: 2,
            workers: 2,
            ..minimal()
        };
        if let Err(f) = check_scenario(&sc) {
            panic!("faulted scenario failed: {f}");
        }
    }

    #[test]
    fn crash_family_survives_a_torn_midpoint_kill() {
        // Family::Crash alone (the CI crash job's path): kill 40% into
        // the WAL with a torn tail, on the cheapest world.
        let sc = Scenario { kill_fraction: 0.4, torn_tail: true, ..minimal() };
        if let Err(f) = check_scenario_family(&sc, Family::Crash) {
            panic!("crash scenario failed: {f}");
        }
    }

    #[test]
    fn abuse_family_holds_under_a_seeded_slowloris() {
        // Family::Abuse alone (the CI abuse job's path): the slowloris
        // profile with two hostile conns on the cheapest world. This is
        // the profile with the richest defense accounting, so it doubles
        // as the in-tree proof that the hardened deadlines fire.
        let sc = Scenario { abuse_profile: 1, abuse_conns: 2, ..minimal() };
        if let Err(f) = check_scenario_family(&sc, Family::Abuse) {
            panic!("abuse scenario failed: {f}");
        }
    }

    #[test]
    fn longitudinal_family_holds_on_a_small_armed_scenario() {
        // Family::Longitudinal alone (the CI longitudinal job's path):
        // one epoch of evolution with a genuinely drifted mid-study
        // revision, on the cheapest world. Exercises all three legs —
        // sweep≡one-shot byte equality, drift detection with real
        // rescoring deltas, and the killed-sweep resume.
        let sc = Scenario { epochs: 1, drift: 0.2, kill_fraction: 0.5, ..minimal() };
        if let Err(f) = check_scenario_family(&sc, Family::Longitudinal) {
            panic!("longitudinal scenario failed: {f}");
        }
    }

    #[test]
    fn disarmed_longitudinal_family_is_a_no_op() {
        // epochs == 0 is the shrinker's off switch and the back-compat
        // default for old replays; it must short-circuit.
        let sc = minimal();
        assert_eq!(check_scenario_family(&sc, Family::Longitudinal), Ok(()));
    }

    #[test]
    fn scale_family_holds_at_a_tiny_batch_and_budget() {
        // Family::Scale alone (the CI scale job's path): a 64-comment
        // stream batch and a spill budget small enough to force real
        // run files, on the cheapest world. Exercises all three legs —
        // streamed≡materialized digests, spilled≡resident tables, and
        // the spilled≡default-budget report differential.
        let sc = Scenario { stream_batch: 64, spill_budget: 32, ..minimal() };
        if let Err(f) = check_scenario_family(&sc, Family::Scale) {
            panic!("scale scenario failed: {f}");
        }
    }

    #[test]
    fn disarmed_scale_family_is_a_no_op() {
        // stream_batch == 0 is the shrinker's off switch and the
        // back-compat default for old replays; it must short-circuit.
        let sc = minimal();
        assert_eq!(check_scenario_family(&sc, Family::Scale), Ok(()));
    }

    #[test]
    fn disarmed_abuse_family_is_a_no_op() {
        // abuse_conns == 0 is the shrinker's off switch and the
        // back-compat default for old replays; it must short-circuit.
        let sc = minimal();
        assert_eq!(check_scenario_family(&sc, Family::Abuse), Ok(()));
    }

    #[test]
    fn first_diff_line_pinpoints_divergence() {
        assert!(first_diff_line("a\nb\nc", "a\nX\nc").starts_with("line 2"));
        assert!(first_diff_line("a", "a\nb").contains("lengths differ"));
    }
}
