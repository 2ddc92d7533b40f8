//! The two workloads, their untimed set-up, their timed unit and the
//! checks every repetition runs on its outputs.
//!
//! * `oneshot` times `run_study`: the paper's whole method, every layer
//!   doing real work on full response bodies.
//! * `analyze` crawls during set-up and times only the report (with
//!   spilling share tables) and the SVM experiment, so crawl and serve do
//!   no timed work.

use crate::{procfs, stats};
use analysis::report::{build_report_pooled_opts, ReportOptions, StudyReport};
use crawler::{CrawlStore, Crawler};
use dissenter_core::svm_exp::run_svm_experiment_pooled;
use dissenter_core::{render, runstats, Study, StudyConfig, SvmReport};
use ids::ObjectId;
use jsonlite::Value;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// The builder's default world seed.
pub const DEFAULT_SEED: u64 = 3_512_066_430;

/// World scale of `oneshot`.
const ONESHOT_SCALE: f64 = 0.01;
/// World scale of `analyze`.
const ANALYZE_SCALE: f64 = 0.01;
/// Labeled corpus of the SVM experiment.
const SVM_CORPUS: usize = 400;
/// Distinct keys per spill buffer on `analyze`: small enough that the
/// share tables write and merge runs at this scale.
const SPILL_BUDGET: usize = 256;
/// Timed passes of `analyze` over its one set-up crawl: re-analysing a
/// mirror is the workload, and the crawl costs more than a pass.
const ANALYZE_PASSES: usize = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Oneshot,
    Analyze,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Oneshot, Workload::Analyze];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot",
            Workload::Analyze => "analyze",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one repetition runs.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Worker threads of the CPU-bound stages and crawl connections.
    pub threads: usize,
    /// World scale (fraction of the paper's population).
    pub scale: f64,
    /// Extra reference checks (run once per benchmark run).
    pub reference: bool,
}

impl Params {
    /// `workload` at its benchmark scale.
    pub fn new(workload: Workload, seed: u64, threads: usize) -> Self {
        let scale = match workload {
            Workload::Oneshot => ONESHOT_SCALE,
            Workload::Analyze => ANALYZE_SCALE,
        };
        Self {
            workload,
            seed,
            threads,
            scale,
            reference: false,
        }
    }

    pub fn study(&self) -> StudyConfig {
        Study::builder()
            .scale(synth::Scale::Custom(self.scale))
            .seed(self.seed)
            .workers(self.threads)
            .crawl_workers(self.threads)
            .svm_corpus(SVM_CORPUS)
            .build()
            .expect("benchmark study configuration is valid")
    }

    /// Timed passes per repetition.
    pub fn passes(&self) -> usize {
        if self.workload == Workload::Analyze {
            ANALYZE_PASSES
        } else {
            1
        }
    }
}

/// The report options of `analyze`: every share table through the spill
/// path.
pub fn spill_options() -> ReportOptions {
    ReportOptions {
        spill_budget: SPILL_BUDGET,
        ..ReportOptions::out_of_core()
    }
}

/// The measurements and check results of one repetition, sent from the
/// child process to the parent as one JSON line.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    /// Client-side HTTP requests of the workload's crawl.
    pub crawl_requests: u64,
    pub crawl_wall_s: f64,
    /// Operations attempted: logical crawl fetches, or the passes of
    /// `analyze`.
    pub ops: u64,
    /// FNV-1a of every deterministic output, hex.
    pub digest: String,
    /// Counters that must repeat exactly for a seed.
    pub counters: Vec<(String, u64)>,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<(String, f64)>,
}

impl Rep {
    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(failure());
        }
    }

    /// Keep `result`'s value, or record its error as a failed check.
    pub fn ok<T: Default>(&mut self, result: Result<T, String>) -> T {
        result.unwrap_or_else(|e| {
            self.errors.push(e);
            T::default()
        })
    }

    pub fn to_json(&self) -> Value {
        let pairs = |v: &[(String, Value)]| Value::Object(v.to_vec());
        Value::object()
            .with("setup_s", self.setup_s)
            .with("wall_s", self.wall_s)
            .with("cpu_s", self.cpu_s)
            .with("peak_rss_mib", self.peak_rss_mib)
            .with("crawl_requests", self.crawl_requests)
            .with("crawl_wall_s", self.crawl_wall_s)
            .with("ops", self.ops)
            .with("digest", self.digest.as_str())
            .with(
                "counters",
                pairs(
                    &self
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v)))
                        .collect::<Vec<_>>(),
                ),
            )
            .with("errors", self.errors.clone())
            .with(
                "layers",
                pairs(
                    &self
                        .layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v)))
                        .collect::<Vec<_>>(),
                ),
            )
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("repetition has no number {k}"))
        };
        let int = |k: &str| {
            v.get(k)
                .and_then(Value::as_i64)
                .map(|n| n as u64)
                .ok_or(format!("repetition has no integer {k}"))
        };
        let object = |k: &str| {
            v.get(k)
                .and_then(Value::as_object)
                .ok_or(format!("repetition has no object {k}"))
        };
        Ok(Rep {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mib: num("peak_rss_mib")?,
            crawl_requests: int("crawl_requests")?,
            crawl_wall_s: num("crawl_wall_s")?,
            ops: int("ops")?,
            digest: v
                .get("digest")
                .and_then(Value::as_str)
                .ok_or("repetition has no digest")?
                .to_owned(),
            counters: object("counters")?
                .iter()
                .map(|(k, n)| {
                    Ok((
                        k.clone(),
                        n.as_i64().ok_or(format!("counter {k} is not an integer"))? as u64,
                    ))
                })
                .collect::<Result<_, String>>()?,
            errors: v
                .get("errors")
                .and_then(Value::as_array)
                .ok_or("repetition has no errors list")?
                .iter()
                .map(|e| e.as_str().unwrap_or("unreadable error").to_owned())
                .collect(),
            layers: object("layers")?
                .iter()
                .map(|(k, n)| {
                    Ok((
                        k.clone(),
                        n.as_f64()
                            .ok_or(format!("layer metric {k} is not a number"))?,
                    ))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// FNV-1a of `parts`, hex.
pub fn digest<S: AsRef<[u8]>>(parts: &[S]) -> String {
    let bytes: Vec<u8> = parts
        .iter()
        .flat_map(|p| p.as_ref().iter().copied().chain([0]))
        .collect();
    format!("{:016x}", crate::front::fnv(&bytes))
}

/// Generate the world the way `run_study` does: drain the streaming
/// source batch by batch.
pub fn synthesize(cfg: &StudyConfig) -> platform::World {
    let mut world = platform::World::new();
    for batch in synth::WorldSource::new(&cfg.world, cfg.workers) {
        batch.apply(&mut world);
    }
    world
}

/// The reference a crawl must reproduce: every thread and comment a
/// crawler can discover, starting from the home pages of live users and
/// learning new authors from the threads it reads, to a fixpoint (§3.2).
/// A thread whose only commenters are deleted accounts is invisible to
/// the paper's crawl and to this one.
#[derive(Debug, Default)]
pub struct Truth {
    urls: HashSet<ObjectId>,
    comments: HashSet<ObjectId>,
}

impl Truth {
    pub fn of(world: &platform::World) -> Self {
        let mut authors: HashSet<ObjectId> = world
            .users
            .iter()
            .filter(|u| !u.gab_deleted)
            .filter_map(|u| u.author_id)
            .collect();
        let mut truth = Truth::default();
        loop {
            let mut grew = false;
            for c in world.dissenter.comments() {
                grew |= authors.contains(&c.author_id) && truth.urls.insert(c.url_id);
            }
            for c in world
                .dissenter
                .comments()
                .iter()
                .filter(|c| truth.urls.contains(&c.url_id))
            {
                truth.comments.insert(c.id);
                grew |= authors.insert(c.author_id);
            }
            if !grew {
                return truth;
            }
        }
    }
}

/// The crawl mirrored exactly the discoverable threads and comments,
/// balanced its books, and abandoned no fetch. Adds the crawl's logical
/// fetches to `rep.ops`.
pub fn check_store(rep: &mut Rep, store: &CrawlStore, truth: &Truth) {
    let urls: HashSet<ObjectId> = store.urls.keys().copied().collect();
    let comments: HashSet<ObjectId> = store.comments.keys().copied().collect();
    rep.check(urls == truth.urls, || {
        format!(
            "crawl mirrored {} threads, {} are discoverable",
            urls.len(),
            truth.urls.len()
        )
    });
    rep.check(comments == truth.comments, || {
        format!(
            "crawl mirrored {} comments, {} are discoverable",
            comments.len(),
            truth.comments.len()
        )
    });
    if let Err(e) = store.check_accounting() {
        rep.errors.push(format!("crawl accounting: {e}"));
    }
    for (phase, s) in store.stats.phase_snapshots() {
        rep.ops += s.attempted;
        rep.check(s.dead_lettered == 0, || {
            format!(
                "phase {} dead-lettered {} fetches on a clean network",
                phase.name(),
                s.dead_lettered
            )
        });
    }
}

/// Σ client-side `http.<service>.<suffix>` over the four services.
pub fn http_total(snap: &obs::Snapshot, suffix: &str) -> u64 {
    ["dissenter", "gab", "reddit", "youtube"]
        .iter()
        .map(|s| snap.counter(&format!("http.{s}.{suffix}")).unwrap_or(0))
        .sum()
}

/// The counters that repeat exactly for a seed: per-phase coverage,
/// comments per scorer, shard geometry, requests per service.
pub fn deterministic_counters(snap: &obs::Snapshot) -> Vec<(String, u64)> {
    snap.counters
        .iter()
        .filter(|(k, _)| {
            ["crawl.", "classify.", "shard."]
                .iter()
                .any(|p| k.starts_with(p))
                || (k.starts_with("http.") && k.ends_with(".requests"))
        })
        .cloned()
        .collect()
}

/// Run the timed unit `f` `passes` times: records the median wall and
/// process CPU of a pass, then the process's peak RSS. Returns the last
/// pass's output and the wall of all passes.
pub fn measure<T>(rep: &mut Rep, passes: usize, mut f: impl FnMut(&mut Rep) -> T) -> (T, f64) {
    let (mut out, mut walls, mut cpus) = (None, Vec::new(), Vec::new());
    for _ in 0..passes {
        let cpu = procfs::process_cpu_s();
        let started = Instant::now();
        out = Some(f(rep));
        walls.push(started.elapsed().as_secs_f64());
        let cpu = cpu.and_then(|before| Ok(procfs::process_cpu_s()? - before));
        cpus.push(rep.ok(cpu));
    }
    rep.wall_s = stats::median(&walls).expect("at least one pass");
    rep.cpu_s = stats::median(&cpus).expect("at least one pass");
    rep.peak_rss_mib = rep.ok(procfs::peak_rss_mib());
    (out.expect("at least one pass"), walls.iter().sum())
}

/// Digest, counters and store checks of a one-shot study.
pub fn record_study(rep: &mut Rep, study: &Study, truth: &Truth) {
    check_store(rep, &study.store, truth);
    rep.counters = deterministic_counters(&study.runstats.snapshot);
    rep.digest = digest(&[render::deterministic(study)]);
}

/// One untraced repetition.
pub fn run(p: &Params) -> Rep {
    let mut rep = Rep::default();
    match p.workload {
        Workload::Oneshot => {
            let cfg = p.study();
            let started = Instant::now();
            let truth = Truth::of(&synthesize(&cfg));
            rep.setup_s = started.elapsed().as_secs_f64();
            let (study, _) = measure(&mut rep, 1, |_| dissenter_core::run_study(&cfg));
            let crawl = study.runstats.stages.iter().find(|s| s.name == "crawl");
            rep.crawl_wall_s = crawl.map_or(0.0, |s| s.wall_us as f64 / 1e6);
            rep.crawl_requests = http_total(&study.runstats.snapshot, "requests");
            record_study(&mut rep, &study, &truth);
        }
        Workload::Analyze => {
            let cfg = p.study();
            let started = Instant::now();
            let (store, baselines) = input_crawl(&mut rep, &cfg);
            rep.setup_s = started.elapsed().as_secs_f64();
            let pool = httpnet::ThreadPool::new(cfg.workers, cfg.workers * 2);
            let ((report, svm, metrics), _) = measure(&mut rep, p.passes(), |_| {
                analysis_pass(&cfg, &store, &baselines, &pool)
            });
            let runstats = runstats::collect(&metrics);
            let study = Study {
                report,
                svm: Some(svm),
                store,
                scale_factor: cfg.world.scale.factor(),
                runstats,
            };
            finish_analyze(&mut rep, p, study, &baselines, &pool);
        }
    }
    rep
}

/// `analyze` set-up: synthesize, serve and crawl the world as
/// `run_study` does; returns the mirror and the baseline corpora.
fn input_crawl(rep: &mut Rep, cfg: &StudyConfig) -> (CrawlStore, Vec<platform::BaselineCorpus>) {
    let world = Arc::new(synthesize(cfg));
    let truth = Truth::of(&world);
    let metrics = obs::Registry::new();
    let server_config = httpnet::ServerConfig {
        metrics: Some(metrics.clone()),
        ..crawler::default_server_config()
    };
    let services = webfront::SimServices::start(world.clone(), server_config)
        .expect("loopback services start");
    let mut crawler = Crawler::new(crawler::Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.config = cfg.crawl.clone();
    crawler.metrics = metrics.clone();
    crawler.config.enum_gap_tolerance = enum_gap_tolerance(&crawler, &world);
    let started = Instant::now();
    let store = crawler.full_crawl();
    rep.crawl_wall_s = started.elapsed().as_secs_f64();
    rep.crawl_requests = http_total(&metrics.snapshot(), "requests");
    drop(services);
    check_store(rep, &store, &truth);
    (store, baselines(world))
}

/// The enumeration stop-window `run_study` scales with the world.
pub fn enum_gap_tolerance(crawler: &Crawler, world: &platform::World) -> u64 {
    crawler
        .config
        .enum_gap_tolerance
        .min((world.gab.max_id() / 4).max(512))
}

/// The baseline corpora, freeing the rest of the world.
pub fn baselines(world: Arc<platform::World>) -> Vec<platform::BaselineCorpus> {
    match Arc::try_unwrap(world) {
        Ok(world) => world.baselines,
        Err(world) => world.baselines.clone(),
    }
}

/// One `analyze` pass: the report over spilling tables, then the SVM
/// experiment, both reporting to a fresh registry.
fn analysis_pass(
    cfg: &StudyConfig,
    store: &CrawlStore,
    baselines: &[platform::BaselineCorpus],
    pool: &httpnet::ThreadPool,
) -> (StudyReport, SvmReport, obs::Registry) {
    let metrics = obs::Registry::new();
    let report = build_report_pooled_opts(store, baselines, pool, Some(&metrics), &spill_options());
    let svm =
        run_svm_experiment_pooled(store, cfg.svm_corpus, cfg.world.seed, pool, Some(&metrics));
    (report, svm, metrics)
}

/// Digest and counters of an `analyze` study; on the reference
/// repetition also check that its spilled tables render exactly as the
/// in-memory tables of the same mirror.
pub fn finish_analyze(
    rep: &mut Rep,
    p: &Params,
    study: Study,
    baselines: &[platform::BaselineCorpus],
    pool: &httpnet::ThreadPool,
) {
    rep.ops = p.passes() as u64;
    rep.counters = deterministic_counters(&study.runstats.snapshot);
    rep.digest = digest(&[render::deterministic(&study)]);
    if p.reference {
        let Study {
            svm,
            store,
            scale_factor,
            runstats,
            ..
        } = study;
        let report =
            build_report_pooled_opts(&store, baselines, pool, None, &ReportOptions::default());
        let in_memory = Study {
            report,
            svm,
            store,
            scale_factor,
            runstats,
        };
        rep.check(
            digest(&[render::deterministic(&in_memory)]) == rep.digest,
            || "the spilled report renders differently from the in-memory report".into(),
        );
    }
}
