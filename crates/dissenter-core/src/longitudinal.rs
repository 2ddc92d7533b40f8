//! The longitudinal study engine: repeated incremental sweeps over a
//! time-evolving world, with scorer-version tracking and drift
//! detection.
//!
//! The paper's measurement is a 14-month *longitudinal* effort; this
//! module replays that shape. A study is a base window (everything up
//! to `STUDY_END`) plus `epochs` fixed-length epochs of seeded platform
//! evolution ([`synth::apply_epoch`]): user growth along the calibrated
//! curve, fresh comments and votes, mid-study bans, and account
//! deletions. Two ways to measure it:
//!
//! * [`run_composed`] — the longitudinal crawler: one **sweep** per
//!   epoch state, all sweeps sharing one simulated [`platform::Clock`] (so
//!   rate windows persist across sweeps) and one
//!   [`httpnet::RevalidationCache`] (so unchanged pages revalidate to
//!   `304`s against the per-target ETag stamps of
//!   [`webfront::SimFronts::for_sweep`]).
//! * [`run_one_shot`] — the retrospective crawler: a single crawl of
//!   the final epoch state.
//!
//! Both modes window the **final** mirror retrospectively: window `w`'s
//! comments (by embedded creation time) scored under the revision the
//! timeline declares for `w`. A row frozen from sweep `w`'s *own* store
//! would not be oracle-comparable — §3.2 spidering reaches a thread
//! only through some user's home page, so a thread none of sweep `w`'s
//! users had touched can enter coverage when a later epoch's comment
//! links it. That is growing reachability, not a crawler bug, and the
//! retrospective windowing is also what the paper itself does with its
//! final dataset.
//!
//! **The differential oracle:** at drift 0 the two must agree
//! byte-for-byte on every artifact ([`artifacts`]): the world is
//! append-only in timestamp order, revalidation is transparent, and
//! windowed outputs are pure functions of the store and the timeline.
//! The `longitudinal.oracle` simcheck family enforces this across
//! seeds. The composed sweeps are not decorative — every intermediate
//! sweep feeds the shared revalidation cache and clock, so a stale
//! cached representation, a stamp that failed to rotate, or a
//! mis-resumed journal poisons the final store and breaks the byte
//! equality. (Both modes apply the same timeline per window, so a
//! crawl-, clock-, stamp-, or revalidation-layer bug can never hide
//! behind scorer drift.) What a *real* retrospective study loses — old
//! scorer revisions are gone once a closed service retrains — is
//! exactly what the [`DriftReport`] quantifies: it detects every
//! version boundary, rescores a fixed calibration sample under both
//! neighbors, and flags deltas large enough to silently change a
//! longitudinal conclusion.

use crate::runstats;
use crate::{Study, StudyConfig};
use analysis::report::{build_report_pooled_opts, ReportOptions};
use analysis::windowed::{
    crossover_window, drift_csv, drift_report, epoch_end, growth_csv, growth_curve,
    window_toxicity, window_toxicity_csv, DriftReport, GrowthRow, WindowToxicity,
    DRIFT_FLAG_THRESHOLD,
};
use classify::ScorerVersion;
use crawler::{CrawlStore, Crawler, Endpoints, Failpoint};
use platform::{Clock, World};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use webfront::{SimFronts, SimServices};

/// Longitudinal study configuration.
#[derive(Debug, Clone)]
pub struct LongitudinalConfig {
    /// The underlying study (world seed/scale, crawl tuning, workers).
    /// The SVM experiment is never run by the longitudinal engine.
    pub study: StudyConfig,
    /// Epochs of evolution past the base window; the composed run
    /// performs `epochs + 1` sweeps (one per window 0..=epochs).
    pub epochs: u32,
    /// Scorer drift magnitude for the mid-study revision (0.0 = the
    /// revision is a bit-identical re-deploy; see [`ScorerVersion`]).
    pub drift: f64,
    /// Seed for the drift perturbation stream.
    pub drift_seed: u64,
    /// Calibration sample size for the drift report.
    pub calibration: usize,
    /// When set, every sweep journals into `root/sweep-<n>` (the
    /// one-shot run uses `root/one-shot`), making each sweep a
    /// resumable delta crawl.
    pub durable_root: Option<PathBuf>,
    /// Kill sweep `.0`'s durable crawl at journal op `.1`, then resume
    /// it in place — the `longitudinal.resume` oracle's crash leg.
    /// Requires `durable_root`.
    pub kill_sweep: Option<(u32, u64)>,
}

impl LongitudinalConfig {
    /// Test-sized configuration: 2 epochs, no drift, no journaling.
    pub fn small() -> Self {
        let study = crate::Study::builder().svm(false).build().expect("default config is valid");
        Self {
            drift_seed: study.world.seed,
            study,
            epochs: 2,
            drift: 0.0,
            calibration: 64,
            durable_root: None,
            kill_sweep: None,
        }
    }
}

/// The scorer-revision timeline: one entry per window. Revision 1
/// deploys mid-study (first window `epochs / 2 + 1`), so any study with
/// at least one epoch crosses exactly one version boundary; a
/// zero-epoch study never leaves revision 0. With `drift == 0` the two
/// revisions score bit-identically (the deploy was a no-op), which is
/// what lets the sweep≡one-shot oracle hold over the *same* schedule.
pub fn version_schedule(epochs: u32, drift: f64, seed: u64) -> Vec<ScorerVersion> {
    let upgrade_at = epochs / 2 + 1;
    (0..=epochs)
        .map(|w| ScorerVersion::at(if w >= upgrade_at { 1 } else { 0 }, drift, seed))
        .collect()
}

/// Everything a longitudinal run produces.
#[derive(Debug)]
pub struct LongitudinalStudy {
    /// The full §4 study of the final-state store.
    pub study: Study,
    /// Per-window growth curve.
    pub growth: Vec<GrowthRow>,
    /// Per-window toxicity rows, computed retrospectively from the
    /// final-state store, each scored under the revision the timeline
    /// declares for its window.
    pub windows: Vec<WindowToxicity>,
    /// First window whose mean severe toxicity exceeds the base
    /// window's.
    pub crossover: Option<u32>,
    /// Version boundaries with calibration rescoring deltas.
    pub drift: DriftReport,
    /// The revision timeline the run measured under.
    pub versions: Vec<ScorerVersion>,
    /// Per-sweep `304 Not Modified` totals across all four services
    /// (diagnostics — deliberately *not* rendered, so composed and
    /// one-shot artifacts can be compared byte-for-byte).
    pub sweep_not_modified: Vec<u64>,
    /// Per-sweep HTTP request totals across all four services (the
    /// denominator for the bench's 304-served fraction; diagnostics).
    pub sweep_requests: Vec<u64>,
    /// Per-sweep crawl wall-clock (diagnostics, for the bench gate).
    pub sweep_wall: Vec<Duration>,
}

fn endpoints(services: &SimServices) -> Endpoints {
    Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    }
}

/// Total (`http.<service>.not_modified`, `http.<service>.requests`)
/// across the four services.
fn http_totals(metrics: &obs::Registry) -> (u64, u64) {
    let snap = metrics.snapshot();
    let sum = |suffix: &str| {
        ["dissenter", "gab", "reddit", "youtube"]
            .iter()
            .map(|s| snap.counter(&format!("http.{s}.{suffix}")).unwrap_or(0))
            .sum()
    };
    (sum("not_modified"), sum("requests"))
}

/// One sweep: front the world at `clock` time, crawl it (optionally
/// journaled / killed+resumed), and return the reconstructed store plus
/// the sweep's crawl wall-clock and (`304`, request) totals. `hint`
/// carries the previous sweep's enumeration knowledge (incremental
/// sweeps only — the one-shot baseline crawls hint-free).
#[allow(clippy::too_many_arguments)]
fn sweep(
    cfg: &LongitudinalConfig,
    world: &Arc<World>,
    clock: &Clock,
    reval: &httpnet::RevalidationCache,
    hint: Option<crawler::SweepHint>,
    sweep_no: u32,
    dir_name: &str,
) -> (CrawlStore, Duration, u64, u64) {
    let metrics = obs::Registry::new();
    let fronts = SimFronts::for_sweep(world.clone(), &metrics, clock.clone());
    let server_config = httpnet::ServerConfig {
        faults: cfg.study.faults,
        metrics: Some(metrics.clone()),
        ..crawler::default_server_config()
    };
    let services = SimServices::start_with(fronts, server_config)
        .expect("failed to start simulated services");
    let mut crawler = Crawler::new(endpoints(&services));
    crawler.config = cfg.study.crawl.clone();
    crawler.metrics = metrics.clone();
    crawler.config.enum_gap_tolerance =
        crawler.config.enum_gap_tolerance.min((world.gab.max_id() / 4).max(512));
    crawler.set_revalidation(reval.clone());
    crawler.clock = services.clock.clone();
    if let Some(hint) = hint {
        crawler.set_sweep_hint(hint);
    }

    let started = std::time::Instant::now();
    let store = match &cfg.durable_root {
        Some(root) => {
            let dir = root.join(dir_name);
            match cfg.kill_sweep {
                Some((kill_at_sweep, kill_at_op)) if kill_at_sweep == sweep_no => {
                    let failpoint = Failpoint { kill_at_op: Some(kill_at_op), torn_tail: false };
                    let err = crawler
                        .full_crawl_durable(&dir, failpoint)
                        .expect_err("failpoint must kill the sweep");
                    assert!(
                        crawler::journal::is_kill_error(&err),
                        "sweep died of something other than the failpoint: {err}"
                    );
                    let (store, _info) = crawler.resume(&dir).expect("resume sweep");
                    store
                }
                _ => crawler
                    .full_crawl_durable(&dir, Failpoint::default())
                    .expect("durable sweep"),
            }
        }
        None => crawler.full_crawl(),
    };
    let (not_modified, requests) = http_totals(&metrics);
    (store, started.elapsed(), not_modified, requests)
}

/// Assemble the windowed outputs and final-state study shared by both
/// run modes: growth curve, retrospective per-window toxicity under the
/// revision timeline, drift report, and the full §4 report.
fn finish(
    cfg: &LongitudinalConfig,
    world: &World,
    store: CrawlStore,
    versions: Vec<ScorerVersion>,
    sweep_not_modified: Vec<u64>,
    sweep_requests: Vec<u64>,
    sweep_wall: Vec<Duration>,
) -> LongitudinalStudy {
    let metrics = obs::Registry::new();
    let workers = cfg.study.workers.max(1);
    let pool = httpnet::ThreadPool::with_metrics(workers, workers * 2, Some(&metrics));
    let growth = growth_curve(&store, cfg.epochs);
    let windows: Vec<WindowToxicity> = (0..=cfg.epochs)
        .map(|w| window_toxicity(&store, w, &versions[w as usize], &pool, Some(&metrics)))
        .collect();
    let crossover = crossover_window(&windows);
    let drift = drift_report(
        &store,
        &versions,
        cfg.calibration,
        DRIFT_FLAG_THRESHOLD,
        &pool,
        Some(&metrics),
    );
    let report = build_report_pooled_opts(
        &store,
        &world.baselines,
        &pool,
        Some(&metrics),
        &ReportOptions::default(),
    );
    let runstats = runstats::collect(&metrics);
    let study = Study {
        report,
        svm: None,
        store,
        scale_factor: cfg.study.world.scale.factor(),
        runstats,
    };
    LongitudinalStudy {
        study,
        growth,
        windows,
        crossover,
        drift,
        versions,
        sweep_not_modified,
        sweep_requests,
        sweep_wall,
    }
}

/// The longitudinal crawler: `epochs + 1` incremental sweeps over the
/// evolving world, composed into one study. Every sweep recrawls the
/// current state through the shared clock and revalidation cache; the
/// final sweep's store is the study mirror (windowed retrospectively —
/// see the module docs for why frozen per-sweep rows would not be
/// oracle-comparable).
pub fn run_composed(cfg: &LongitudinalConfig) -> LongitudinalStudy {
    let workers = cfg.study.workers.max(1);
    let versions = version_schedule(cfg.epochs, cfg.drift, cfg.drift_seed);
    let clock = Clock::simulated(epoch_end(0));
    let reval = httpnet::RevalidationCache::new(1 << 18);

    let mut sweep_not_modified = Vec::new();
    let mut sweep_requests = Vec::new();
    let mut sweep_wall = Vec::new();
    let mut last: Option<(Arc<World>, CrawlStore)> = None;
    for e in 0..=cfg.epochs {
        // The sweep happens "when" epoch e has just closed.
        clock.advance_to(epoch_end(e));
        let (world, _) = synth::world_at_epoch(&cfg.study.world, e, workers);
        let world = Arc::new(world);
        // Later sweeps crawl incrementally off the previous sweep's
        // enumeration knowledge (the store stays byte-identical — see
        // `crawler::SweepHint` for the contract).
        let hint = last.as_ref().and_then(|(_, store)| crawler::SweepHint::from_store(store));
        let (store, wall, not_modified, requests) =
            sweep(cfg, &world, &clock, &reval, hint, e, &format!("sweep-{e}"));
        sweep_wall.push(wall);
        sweep_not_modified.push(not_modified);
        sweep_requests.push(requests);
        last = Some((world, store));
    }
    let (world, store) = last.expect("at least one sweep");
    finish(cfg, &world, store, versions, sweep_not_modified, sweep_requests, sweep_wall)
}

/// The retrospective crawler: one sweep of the final epoch state, the
/// same windowing applied to that single store. The comparison baseline
/// for the sweep≡one-shot oracle.
pub fn run_one_shot(cfg: &LongitudinalConfig) -> LongitudinalStudy {
    let workers = cfg.study.workers.max(1);
    let versions = version_schedule(cfg.epochs, cfg.drift, cfg.drift_seed);
    let clock = Clock::simulated(epoch_end(cfg.epochs));
    let reval = httpnet::RevalidationCache::new(1 << 18);

    let (world, _) = synth::world_at_epoch(&cfg.study.world, cfg.epochs, workers);
    let world = Arc::new(world);
    let (store, wall, not_modified, requests) =
        sweep(cfg, &world, &clock, &reval, None, 0, "one-shot");
    finish(cfg, &world, store, versions, vec![not_modified], vec![requests], vec![wall])
}

/// Every artifact the differential oracle compares, as named byte
/// blobs: the deterministic render, the longitudinal render section,
/// the three windowed CSVs, every figure CSV, and the persisted JSONL
/// mirror. Excludes diagnostics (`sweep_not_modified`, wall-clocks,
/// runstats) by construction.
pub fn artifacts(ls: &LongitudinalStudy) -> Vec<(String, Vec<u8>)> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let mut out: Vec<(String, Vec<u8>)> = vec![
        ("render.txt".into(), crate::render::deterministic(&ls.study).into_bytes()),
        ("longitudinal.txt".into(), crate::render::longitudinal(ls).into_bytes()),
        ("growth_curve.csv".into(), growth_csv(&ls.growth).into_bytes()),
        ("window_toxicity.csv".into(), window_toxicity_csv(&ls.windows).into_bytes()),
        ("drift_report.csv".into(), drift_csv(&ls.drift).into_bytes()),
    ];
    let dir = std::env::temp_dir().join(format!(
        "longitudinal-artifacts-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let csvs = analysis::export::export_csv(&ls.study.report, &dir).expect("export csv");
    for name in csvs {
        out.push((name.clone(), std::fs::read(dir.join(&name)).expect("read csv")));
    }
    crawler::persist::save(&ls.study.store, &dir).expect("persist");
    for name in crawler::persist::FILES {
        out.push(((*name).to_owned(), std::fs::read(dir.join(name)).expect("read jsonl")));
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}
