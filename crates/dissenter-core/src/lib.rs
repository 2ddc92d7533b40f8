#![warn(missing_docs)]
//! The public pipeline: generate → serve → crawl → classify → analyze.
//!
//! [`run_study`] is the one-call entry point reproducing the entire paper:
//! it synthesizes a world at the configured scale, serves it over loopback
//! HTTP as four services (Dissenter, Gab, Reddit, rendered YouTube), runs
//! the §3 measurement methodology against those services, scores every
//! comment with the §3.5 classification stack (dictionary, Perspective
//! stand-in, SVM), and assembles every §4 table and figure into a
//! [`Study`].
//!
//! ```no_run
//! use dissenter_core::Study;
//!
//! let cfg = Study::builder().build().expect("valid study config");
//! let study = dissenter_core::run_study(&cfg);
//! println!("{}", dissenter_core::render::overview(&study));
//! assert!(study.report.overview.comments > 0);
//! ```

pub mod experiments;
pub mod longitudinal;
pub mod membudget;
pub mod render;
pub mod runstats;
pub mod svm_exp;

use analysis::report::{build_report_pooled_opts, ReportOptions, StudyReport};
use crawler::{CrawlConfig, CrawlStore, Crawler, Endpoints};
use std::sync::Arc;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::SimServices;

pub use membudget::{peak_rss_bytes, MemoryBudget};
pub use runstats::RunStats;
pub use svm_exp::SvmReport;

/// End-to-end study configuration.
///
/// Construct via [`Study::builder`] — the builder validates every knob
/// and is the only supported way to compose new configurations. The
/// struct stays public (and field-updatable) so differential harnesses
/// can derive variant configs from a validated base.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// World generation parameters.
    pub world: WorldConfig,
    /// Crawl tuning.
    pub crawl: CrawlConfig,
    /// Worker threads for CPU-bound stages (synth text generation,
    /// comment scoring, SVM cross-validation/application). Output is
    /// byte-identical for every value; see DESIGN.md "Sharding".
    pub workers: usize,
    /// Size of the synthetic labeled corpus for the SVM experiment
    /// (the Davidson corpus is 37,718 samples; scale to taste).
    pub svm_corpus: usize,
    /// Skip the SVM experiment (it is the most CPU-intensive stage).
    pub skip_svm: bool,
    /// Fault injection applied to every simulated service — run the whole
    /// study through an adverse network to exercise the crawler's
    /// resilience layer. Defaults to no faults.
    pub faults: httpnet::FaultConfig,
    /// Peak-RSS ceiling enforced at stage boundaries (see
    /// [`MemoryBudget`]). Default: unlimited.
    pub memory_budget: MemoryBudget,
    /// Journal the crawl to this directory (a one-file WAL; see
    /// `crawler::journal`). Default: in-memory only.
    pub journal_dir: Option<std::path::PathBuf>,
    /// Capacity of the client revalidation cache, enabling conditional
    /// re-fetches (`304 Not Modified`). Default: off.
    pub revalidation: Option<usize>,
}

/// Validated, fluent construction of a [`StudyConfig`].
///
/// Every setter records its value; [`build`](StudyBuilder::build)
/// validates the composition and returns all problems at once. The
/// defaults are the test-sized configuration (small world, 8 workers,
/// SVM on, clean network, in-memory everything).
///
/// ```
/// use dissenter_core::{MemoryBudget, Study};
/// use synth::Scale;
///
/// let cfg = Study::builder()
///     .scale(Scale::Custom(0.01))
///     .workers(4)
///     .svm(false)
///     .memory_budget(MemoryBudget::gib(4.0))
///     .build()
///     .expect("valid study config");
/// assert!(cfg.skip_svm);
/// ```
#[derive(Debug, Clone)]
pub struct StudyBuilder {
    cfg: StudyConfig,
    errors: Vec<String>,
}

impl Default for StudyBuilder {
    fn default() -> Self {
        Self {
            cfg: StudyConfig {
                world: WorldConfig::small(),
                crawl: CrawlConfig::default(),
                workers: 8,
                svm_corpus: 2_000,
                skip_svm: false,
                faults: httpnet::FaultConfig::none(),
                memory_budget: MemoryBudget::unlimited(),
                journal_dir: None,
                revalidation: None,
            },
            errors: Vec::new(),
        }
    }
}

impl StudyBuilder {
    /// World scale (`Scale::Custom` factors must be finite and positive).
    pub fn scale(mut self, scale: Scale) -> Self {
        let f = scale.factor();
        if !f.is_finite() || f <= 0.0 {
            self.errors.push(format!("scale factor must be finite and > 0, got {f}"));
        }
        self.cfg.world.scale = scale;
        self
    }

    /// World seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.world.seed = seed;
        self
    }

    /// Replace the whole world configuration (seed, scale, caps).
    pub fn world(mut self, world: WorldConfig) -> Self {
        self.cfg.world = world;
        self
    }

    /// CPU-bound stage workers (1..=1024; output is byte-identical for
    /// every value).
    pub fn workers(mut self, workers: usize) -> Self {
        if !(1..=1024).contains(&workers) {
            self.errors.push(format!("workers must be in 1..=1024, got {workers}"));
        }
        self.cfg.workers = workers;
        self
    }

    /// Parallel crawl connections per phase (1..=1024).
    pub fn crawl_workers(mut self, workers: usize) -> Self {
        if !(1..=1024).contains(&workers) {
            self.errors.push(format!("crawl workers must be in 1..=1024, got {workers}"));
        }
        self.cfg.crawl.workers = workers;
        self
    }

    /// Extra attempts for failed crawl requests.
    pub fn retries(mut self, retries: usize) -> Self {
        self.cfg.crawl.retries = retries;
        self
    }

    /// Backoff between crawl retries.
    pub fn backoff(mut self, backoff: std::time::Duration) -> Self {
        self.cfg.crawl.backoff = backoff;
        self
    }

    /// Replace the whole crawl configuration.
    pub fn crawl(mut self, crawl: CrawlConfig) -> Self {
        self.cfg.crawl = crawl;
        self
    }

    /// Fault injection for every simulated service (probabilities must
    /// lie in `[0, 1]`).
    pub fn faults(mut self, faults: httpnet::FaultConfig) -> Self {
        for (name, p) in [
            ("drop_prob", faults.drop_prob),
            ("error_prob", faults.error_prob),
            ("truncate_prob", faults.truncate_prob),
            ("reset_prob", faults.reset_prob),
            ("stall_prob", faults.stall_prob),
            ("malformed_prob", faults.malformed_prob),
            ("rate_limit_prob", faults.rate_limit_prob),
            ("unavailable_prob", faults.unavailable_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                self.errors.push(format!("fault {name} must be in [0, 1], got {p}"));
            }
        }
        self.cfg.faults = faults;
        self
    }

    /// Run (or skip) the SVM experiment.
    pub fn svm(mut self, enabled: bool) -> Self {
        self.cfg.skip_svm = !enabled;
        self
    }

    /// Labeled-corpus size for the SVM experiment (≥ 10). The
    /// experiment keeps the corpus's pairwise distances while it trains:
    /// n(n−1)/2 × 8 B, O(n²) — 0.6 MB at 400 samples, 16 MB at the
    /// default 2,000, 400 MB at 10,000.
    pub fn svm_corpus(mut self, n: usize) -> Self {
        if n < 10 {
            self.errors.push(format!("svm corpus must hold at least 10 samples, got {n}"));
        }
        self.cfg.svm_corpus = n;
        self
    }

    /// Journal the crawl (a one-file WAL) under `dir`.
    pub fn journal(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.journal_dir = Some(dir.into());
        self
    }

    /// Enable the client revalidation cache with `capacity` entries
    /// (≥ 1).
    pub fn revalidation(mut self, capacity: usize) -> Self {
        if capacity == 0 {
            self.errors.push("revalidation cache capacity must be at least 1".to_owned());
        }
        self.cfg.revalidation = Some(capacity);
        self
    }

    /// Enforce a peak-RSS ceiling at stage boundaries.
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        if let Some(c) = budget.ceiling_bytes() {
            if c < 64 * 1024 * 1024 {
                self.errors.push(format!(
                    "memory budget ceiling below 64 MiB cannot hold a study, got {c} bytes"
                ));
            }
        }
        self.cfg.memory_budget = budget;
        self
    }

    /// Validate the composition; returns every recorded problem at once.
    pub fn build(self) -> Result<StudyConfig, String> {
        if self.errors.is_empty() {
            Ok(self.cfg)
        } else {
            Err(format!("invalid study config: {}", self.errors.join("; ")))
        }
    }
}

/// The complete study output.
#[derive(Debug)]
pub struct Study {
    /// Every §4 table and figure.
    pub report: StudyReport,
    /// The §3.5.3 SVM experiment (None when skipped).
    pub svm: Option<SvmReport>,
    /// The raw crawl mirror.
    pub store: CrawlStore,
    /// The scale factor the world was generated at.
    pub scale_factor: f64,
    /// Run observability: stage wall-clocks, per-phase crawl coverage,
    /// per-scorer throughput, peak RSS, the full metric snapshot, and
    /// the event trace.
    pub runstats: RunStats,
}

impl Study {
    /// Start composing a [`StudyConfig`] with validated setters.
    pub fn builder() -> StudyBuilder {
        StudyBuilder::default()
    }
}

/// Comment count between memory-budget probes inside the synth stream.
const SYNTH_BUDGET_CHECK_EVERY: usize = 100_000;

/// Run the full pipeline.
///
/// CPU-bound stages (synth text generation, comment scoring, SVM
/// cross-validation and application) shard onto `cfg.workers` threads;
/// shard geometry and seed streams are keyed by stable ids, so the
/// resulting [`Study`] is byte-identical at any worker count.
///
/// The world is drained from a streaming [`synth::WorldSource`] batch by
/// batch (never more than one batch of comment texts in flight), and
/// `cfg.memory_budget` is enforced at every stage boundary plus every
/// ~100k streamed comments — a ceiling violation aborts the run naming
/// the stage that crossed it. The measured peak lands in
/// [`RunStats::peak_rss_bytes`].
pub fn run_study(cfg: &StudyConfig) -> Study {
    let metrics = obs::Registry::new();
    let budget = cfg.memory_budget;
    let workers = cfg.workers.max(1);
    // One pool shared by every scoring stage (report + SVM experiment).
    let pool = httpnet::ThreadPool::with_metrics(workers, workers * 2, Some(&metrics));

    let span = metrics.span("stage.synth");
    let source = synth::WorldSource::new(&cfg.world, workers);
    let mut world = platform::World::new();
    let mut since_check = 0usize;
    for batch in source {
        since_check += batch.len();
        batch.apply(&mut world);
        if since_check >= SYNTH_BUDGET_CHECK_EVERY {
            since_check = 0;
            budget.check("synth");
        }
    }
    span.finish();
    budget.check("synth");
    let world = Arc::new(world);

    let span = metrics.span("stage.serve");
    let server_config = httpnet::ServerConfig {
        faults: cfg.faults,
        metrics: Some(metrics.clone()),
        ..crawler::default_server_config()
    };
    // Simulated time from the end of the paper's dataset: rate-limit
    // resets are waited out by advancing the services' clock, not slept.
    let services = SimServices::simulated(world.clone(), server_config)
        .expect("failed to start simulated services");
    span.finish();
    budget.check("serve");

    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.config = cfg.crawl.clone();
    crawler.metrics = metrics.clone();
    crawler.clock = services.clock.clone();
    if let Some(capacity) = cfg.revalidation {
        crawler.enable_revalidation(capacity);
    }
    // Scale the enumeration stop-window with the world (IDs are sparse).
    crawler.config.enum_gap_tolerance = crawler
        .config
        .enum_gap_tolerance
        .min((world.gab.max_id() / 4).max(512));
    let span = metrics.span("stage.crawl");
    let store = match &cfg.journal_dir {
        Some(dir) => crawler
            .full_crawl_durable(dir, crawler::Failpoint::default())
            .expect("journaled crawl I/O"),
        None => crawler.full_crawl(),
    };
    span.finish();
    budget.check("crawl");

    // The crawl is over: shut the services down and free the served
    // world before the analysis stages. Only the baseline corpus is
    // needed from here on, and at paper scale the world's comment
    // texts are one of the two dominant resident copies (the other is
    // the crawl mirror, which *is* the dataset under analysis).
    drop(services);
    let baselines = match Arc::try_unwrap(world) {
        Ok(world) => world.baselines,
        // A front kept a handle past shutdown; keep the world alive
        // rather than fail, at the cost of the clone.
        Err(world) => world.baselines.clone(),
    };

    let span = metrics.span("stage.report");
    let report = build_report_pooled_opts(
        &store,
        &baselines,
        &pool,
        Some(&metrics),
        &ReportOptions::default(),
    );
    span.finish();
    budget.check("report");

    let svm = (!cfg.skip_svm).then(|| {
        let span = metrics.span("stage.svm");
        let r = svm_exp::run_svm_experiment_pooled(
            &store,
            cfg.svm_corpus,
            cfg.world.seed,
            &pool,
            Some(&metrics),
        );
        span.finish();
        r
    });
    let peak = budget.check("svm");
    metrics.set_gauge("mem.peak_rss_bytes", peak as f64);

    let runstats = runstats::collect(&metrics);
    Study { report, svm, store, scale_factor: cfg.world.scale.factor(), runstats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_and_collects_every_error() {
        let err = Study::builder()
            .scale(Scale::Custom(-1.0))
            .workers(0)
            .svm_corpus(3)
            .revalidation(0)
            .faults(httpnet::FaultConfig { drop_prob: 1.5, ..httpnet::FaultConfig::none() })
            .build()
            .expect_err("invalid knobs must not build");
        for needle in ["scale factor", "workers", "svm corpus", "revalidation", "drop_prob"] {
            assert!(err.contains(needle), "error must mention {needle}: {err}");
        }
    }

    #[test]
    fn builder_composes_the_full_surface() {
        let cfg = Study::builder()
            .seed(99)
            .scale(Scale::Custom(0.01))
            .workers(4)
            .crawl_workers(2)
            .retries(5)
            .backoff(std::time::Duration::from_millis(2))
            .svm(false)
            .journal("/tmp/does-not-run")
            .revalidation(256)
            .memory_budget(MemoryBudget::gib(4.0))
            .build()
            .expect("valid study config");
        assert_eq!(cfg.world.seed, 99);
        assert_eq!(cfg.crawl.workers, 2);
        assert_eq!(cfg.crawl.retries, 5);
        assert!(cfg.skip_svm);
        assert_eq!(cfg.revalidation, Some(256));
        assert_eq!(cfg.memory_budget.ceiling_bytes(), Some(4 * (1u64 << 30)));
        assert!(cfg.journal_dir.is_some());
    }

    #[test]
    fn tiny_study_runs_end_to_end() {
        let cfg = Study::builder()
            .scale(Scale::Custom(0.002))
            .svm_corpus(400)
            .build()
            .expect("valid study config");
        let study = run_study(&cfg);
        assert!(study.report.overview.comments > 100);
        assert!(study.report.overview.urls > 50);
        assert!(study.svm.as_ref().expect("svm ran").cv_f1 > 0.5);
        // Every figure section materialized.
        assert_eq!(study.report.figure7.len(), 4);
        assert!(!study.report.figure8.severe_by_bias.is_empty());
        assert!(study.report.social.users > 0);
    }

    #[test]
    fn runstats_are_fully_populated() {
        let cfg = Study::builder()
            .scale(Scale::Custom(0.002))
            .svm_corpus(400)
            .build()
            .expect("valid study config");
        let study = run_study(&cfg);
        let rs = &study.runstats;

        // The memory probe recorded a real peak (Linux runners).
        assert!(rs.peak_rss_bytes > 1024 * 1024, "peak RSS recorded: {}", rs.peak_rss_bytes);

        // Every pipeline stage ran under a span.
        let stages: Vec<&str> = rs.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(stages, vec!["synth", "serve", "crawl", "report", "svm"]);
        assert!(rs.stages.iter().all(|s| s.wall_us > 0), "stages take nonzero time: {rs:?}");

        // Every table and scoring pass of the report ran under its own
        // span; the spans are disjoint parts of the report stage.
        let parts: Vec<&str> = rs.report_spans.iter().map(|s| s.name.as_str()).collect();
        let expected = [
            "activity", "comment_ratio", "domain_medians", "domains", "figure4", "figure5",
            "figure7", "figure8", "gab_growth", "indices", "languages", "overview",
            "score.baselines", "score.dissenter", "score.reddit", "social", "table1", "tlds",
            "url_census", "youtube",
        ];
        assert_eq!(parts, expected);
        let report_us = rs.stages.iter().find(|s| s.name == "report").map(|s| s.wall_us);
        let parts_us: u64 = rs.report_spans.iter().map(|s| s.wall_us).sum();
        assert!(Some(parts_us) <= report_us, "{parts_us} µs of parts in {report_us:?} µs");

        // Every crawl phase did work and balanced its books.
        assert_eq!(rs.phases.len(), 7);
        for p in &rs.phases {
            assert!(p.attempted > 0, "phase {} attempted nothing", p.name);
            assert_eq!(p.attempted, p.succeeded + p.dead_lettered, "{}", p.name);
        }

        // Every scorer is represented with comment counts.
        let mut scorers: Vec<&str> = rs.scorers.iter().map(|s| s.name.as_str()).collect();
        scorers.sort_unstable();
        assert_eq!(scorers, vec!["dictionary", "perspective", "svm"]);
        assert!(rs.scorers.iter().all(|s| s.comments > 0), "scorers scored: {:?}", rs.scorers);

        // Every sharded stage accounted for its scatter.
        let shards: Vec<&str> = rs.shards.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(shards, vec!["classify.score", "svm.apply", "svm.cv"]);
        assert!(rs.shards.iter().all(|s| s.jobs > 0), "shards ran: {:?}", rs.shards);

        // The wire instrumentation recorded latency for every service.
        for service in ["dissenter", "gab", "reddit", "youtube"] {
            let h = rs
                .snapshot
                .histogram(&format!("http.{service}.latency"))
                .unwrap_or_else(|| panic!("latency histogram for {service}"));
            assert!(h.count > 0 && h.sum_ns > 0, "{service} latency empty: {h:?}");
        }

        // The event trace captured the stage spans as JSONL.
        assert!(rs.events_jsonl.lines().count() >= 5);
        assert!(rs.events_jsonl.contains("\"event\":\"span\""));

        // The rendered table mentions each section.
        let table = render::runstats(&study);
        for needle in ["stage wall-clock", "crawl coverage", "scorer throughput", "latency"] {
            assert!(table.contains(needle), "runstats table missing {needle}:\n{table}");
        }
    }

    #[test]
    fn same_seed_runs_report_identical_counters() {
        // Counters are the deterministic half of the observability split:
        // two studies from the same seed must agree on every counter even
        // though gauges and histograms (wall-clock) may differ.
        let cfg = Study::builder()
            .scale(Scale::Custom(0.002))
            .svm(false)
            .build()
            .expect("valid study config");
        let a = run_study(&cfg);
        let b = run_study(&cfg);
        assert_eq!(
            a.runstats.snapshot.counters, b.runstats.snapshot.counters,
            "same-seed counter sets must be identical"
        );
        assert!(!a.runstats.snapshot.counters.is_empty());
    }

    #[test]
    fn spilled_report_renders_like_the_study() {
        let cfg = Study::builder()
            .scale(Scale::Custom(0.002))
            .svm(false)
            .memory_budget(MemoryBudget::gib(64.0))
            .build()
            .expect("valid study config");
        let mut study = run_study(&cfg);
        let want = render::deterministic(&study);
        let (world, _) = synth::generate(&cfg.world);
        let pool = httpnet::ThreadPool::new(2, 4);
        let metrics = obs::Registry::new();
        study.report = build_report_pooled_opts(
            &study.store,
            &world.baselines,
            &pool,
            Some(&metrics),
            &ReportOptions { spill_budget: 16 },
        );
        assert!(
            metrics.counter("analysis.spill.runs").get() > 0,
            "a 16-key budget must write spill runs"
        );
        assert_eq!(
            render::deterministic(&study),
            want,
            "spilled tables must not change a single report byte"
        );
        assert!(study.runstats.peak_rss_bytes > 0, "budgeted run recorded its peak");
    }

    #[test]
    fn journaled_revalidating_study_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("dissenter-study-journal-{}", std::process::id()));
        let base = Study::builder()
            .scale(Scale::Custom(0.002))
            .svm(false)
            .build()
            .expect("valid study config");
        let durable = Study::builder()
            .scale(Scale::Custom(0.002))
            .svm(false)
            .journal(&dir)
            .revalidation(1024)
            .build()
            .expect("valid study config");
        let a = run_study(&base);
        let b = run_study(&durable);
        assert_eq!(
            render::deterministic(&a),
            render::deterministic(&b),
            "journaling + revalidation must not change a single report byte"
        );
        assert!(dir.exists(), "journal directory written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_survives_an_adverse_network() {
        let cfg = Study::builder()
            .scale(Scale::Custom(0.002))
            .svm(false)
            .retries(8)
            .backoff(std::time::Duration::from_millis(1))
            .faults(httpnet::FaultConfig {
                drop_prob: 0.05,
                error_prob: 0.05,
                seed: 3,
                ..httpnet::FaultConfig::none()
            })
            .build()
            .expect("valid study config");
        let study = run_study(&cfg);
        assert!(study.report.overview.comments > 100);
        assert!(
            study.store.dead_letters().is_empty(),
            "8 retries must ride out a 10% fault rate"
        );
    }
}
