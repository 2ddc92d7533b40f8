//! Traced repetitions: each workload's pipeline rebuilt from the public
//! calls `run_study` makes, with a span around every call into a layer, the fronts wrapped in the timing decorator, and CPU
//! read per thread group from `/proc`.
//!
//! Thread groups: servers run on `httpnet-reactor-*` and
//! `httpnet-accept` threads, scoring pools on `httpnet-worker-*`;
//! everything else is the crawler and the code that joins the layers.
//! A traced repetition must produce the same outputs as an untraced one;
//! the parent compares their digests and counters.

use crate::front::{self, FrontStats, Services};
use crate::procfs;
use crate::trace::Tracer;
use crate::workload::{self, Params, Rep, Truth, Workload};
use analysis::report::{build_report_pooled_opts, ReportOptions, StudyReport};
use crawler::{CrawlConfig, CrawlStore, Crawler, Phase};
use dissenter_core::{runstats, Study};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use webfront::SimFronts;

const SERVER_THREADS: &[&str] = &["httpnet-reactor", "httpnet-accept"];
const POOL_THREADS: &[&str] = &["httpnet-worker"];
const FRONTS: [&str; 4] = ["dissenter", "gab", "reddit", "youtube"];

/// The function behind each crawl phase, as `Crawler::full_crawl` runs it.
fn phase_fn(phase: Phase) -> fn(&Crawler, &mut CrawlStore) {
    match phase {
        Phase::GabEnum => crawler::gab_enum::enumerate,
        Phase::Probe => crawler::probe::probe_dissenter_accounts,
        Phase::Spider => crawler::spider::spider,
        Phase::Shadow => crawler::shadow::shadow_crawl,
        Phase::Youtube => crawler::youtube::crawl_youtube,
        Phase::Social => crawler::social::crawl_social,
        Phase::Reddit => crawler::reddit::crawl_reddit,
    }
}

/// One traced repetition's recorder: spans, summed layer metrics, and
/// the decorator statistics of each front.
struct Probe {
    tracer: Tracer,
    layers: BTreeMap<String, f64>,
    fronts: [Arc<FrontStats>; 4],
    client_requests: u64,
    served: u64,
}

impl Probe {
    fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.layers.entry(name.into()).or_default() += value;
    }

    /// Run `f` under a span named `name`; returns its result and seconds.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.tracer.begin(name);
        let out = f();
        (out, self.tracer.end(span))
    }

    /// [`Probe::span`], adding the seconds to layer metric `metric`.
    fn timed<T>(&mut self, name: &str, metric: &str, f: impl FnOnce() -> T) -> T {
        let (out, s) = self.span(name, f);
        self.add(metric, s);
        out
    }

    /// Serve `world` through decorated servers and run the seven crawl
    /// phases, each under its own span. `metrics` is the registry the
    /// servers and the crawler report to, as in the untraced pipeline.
    fn crawl(
        &mut self,
        rep: &mut Rep,
        world: &Arc<platform::World>,
        config: &CrawlConfig,
        metrics: &obs::Registry,
    ) -> CrawlStore {
        let base = httpnet::ServerConfig {
            metrics: Some(metrics.clone()),
            ..crawler::default_server_config()
        };
        let stats = self.fronts.clone();
        let services = self.timed("httpnet.server.start", "httpnet.server.start_s", || {
            Services::start(SimFronts::new(world.clone()), &base, &stats)
                .expect("loopback services start")
        });
        let mut crawler = Crawler::new(services.endpoints());
        crawler.config = config.clone();
        crawler.metrics = metrics.clone();
        crawler.config.enum_gap_tolerance = workload::enum_gap_tolerance(&crawler, world);

        let before = metrics.snapshot();
        let server_cpu = rep.ok(procfs::threads_cpu_s(SERVER_THREADS));
        let process_cpu = rep.ok(procfs::process_cpu_s());
        let mut store = CrawlStore::default();
        let crawl = self.tracer.begin("crawler");
        for phase in Phase::ALL {
            let name = phase.name();
            let cpu = rep.ok(procfs::process_cpu_s());
            self.timed(
                &format!("crawler.{name}"),
                &format!("crawler.{name}.wall_s"),
                || phase_fn(phase)(&crawler, &mut store),
            );
            let cpu = rep.ok(procfs::process_cpu_s()) - cpu;
            self.add(format!("crawler.{name}.cpu_s"), cpu);
            let s = store.stats.phase(phase).snapshot();
            self.add(format!("crawler.{name}.fetches"), s.attempted as f64);
            self.add("crawler.retried", s.retried as f64);
            self.add("crawler.dead_lettered", s.dead_lettered as f64);
        }
        let wall = self.tracer.end(crawl);
        self.add("crawler.wall_s", wall);
        let process_cpu = rep.ok(procfs::process_cpu_s()) - process_cpu;
        let server_cpu = rep.ok(procfs::threads_cpu_s(SERVER_THREADS)) - server_cpu;
        self.add("httpnet.server.cpu_s", server_cpu);
        self.add("crawler.client_cpu_s", process_cpu - server_cpu);
        // Per-thread and whole-process tick counts round separately.
        rep.check(server_cpu <= process_cpu * 1.05 + 0.05, || {
            format!("server threads used {server_cpu} s CPU of the crawl's {process_cpu} s")
        });

        self.client_requests += workload::http_total(&metrics.snapshot(), "requests")
            - workload::http_total(&before, "requests");
        self.served += services
            .servers
            .iter()
            .map(httpnet::Server::requests_served)
            .sum::<u64>();
        self.timed("httpnet.server.stop", "httpnet.server.stop_s", || {
            drop(services)
        });
        store
    }

    /// The §4 report under a span, with its CPU and the part of its wall
    /// not spent scoring.
    fn report(
        &mut self,
        rep: &mut Rep,
        store: &CrawlStore,
        baselines: &[platform::BaselineCorpus],
        pool: &httpnet::ThreadPool,
        metrics: &obs::Registry,
        options: &ReportOptions,
    ) -> StudyReport {
        let scoring = scoring_s(metrics, "gather");
        let cpu = rep.ok(procfs::process_cpu_s());
        let (report, wall) = self.span("analysis.report", || {
            build_report_pooled_opts(store, baselines, pool, Some(metrics), options)
        });
        let cpu = rep.ok(procfs::process_cpu_s()) - cpu;
        self.add("analysis.report.wall_s", wall);
        self.add("analysis.report.cpu_s", cpu);
        self.add(
            "analysis.tables_wall_s",
            wall - (scoring_s(metrics, "gather") - scoring),
        );
        report
    }

    /// Scoring time and scoring-pool CPU of the analysis stage, once it
    /// is over.
    fn analysis_done(&mut self, rep: &mut Rep, metrics: &obs::Registry, pool_cpu_before: f64) {
        let pool_cpu = rep.ok(procfs::threads_cpu_s(POOL_THREADS)) - pool_cpu_before;
        self.add("pool.cpu_s", pool_cpu);
        self.add("classify.score_wall_s", scoring_s(metrics, "gather"));
        self.add("classify.score_busy_s", scoring_s(metrics, "busy"));
    }
}

/// Summed `shard.classify.score.<part>` histogram of `metrics`, seconds:
/// `gather` is the wall of the scoring scatters, `busy` their shards' busy time.
fn scoring_s(metrics: &obs::Registry, part: &str) -> f64 {
    let snap = metrics.snapshot();
    snap.histogram(&format!("shard.classify.score.{part}"))
        .map_or(0.0, |h| h.sum_ns as f64 / 1e9)
}

/// One traced repetition of `p.workload`.
pub fn run(p: &Params, trace_path: &std::path::Path) -> Rep {
    let mut rep = Rep::default();
    let mut probe = Probe {
        tracer: Tracer::new(format!(
            "{}-{}-{}",
            p.workload.name(),
            p.seed,
            std::process::id()
        )),
        layers: BTreeMap::new(),
        fronts: Default::default(),
        client_requests: 0,
        served: 0,
    };
    match p.workload {
        Workload::Oneshot => oneshot(p, &mut probe, &mut rep),
        Workload::Analyze => analyze(p, &mut probe, &mut rep),
    }
    finish_layers(&mut probe, &mut rep);

    let doc = crate::trace::chrome_document(probe.tracer.chrome_events());
    let dir = trace_path.parent().unwrap_or(std::path::Path::new("."));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(trace_path, doc)) {
        rep.errors
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }
    rep.layers = probe.layers.into_iter().collect();
    rep
}

/// Time the traced unit as `workload::measure` times the untraced one,
/// and charge the part of its wall that no top-level span covers to
/// `core.glue_s`.
fn unit<T>(
    probe: &mut Probe,
    rep: &mut Rep,
    passes: usize,
    mut f: impl FnMut(&mut Probe, &mut Rep) -> T,
) -> T {
    let before = probe.tracer.top_level_s();
    let (out, wall) = workload::measure(rep, passes, |r| f(probe, r));
    let spans = probe.tracer.top_level_s() - before;
    probe.add("core.glue_s", wall - spans);
    rep.check(spans <= wall * 1.001, || {
        format!("top-level spans cover {spans} s of a {wall} s traced wall")
    });
    out
}

/// `run_study`, call by call.
fn oneshot(p: &Params, probe: &mut Probe, rep: &mut Rep) {
    let cfg = p.study();
    let started = Instant::now();
    let truth = Truth::of(&workload::synthesize(&cfg));
    rep.setup_s = started.elapsed().as_secs_f64();
    let study = unit(probe, rep, 1, |probe, rep| {
        let metrics = obs::Registry::new();
        let pool = httpnet::ThreadPool::with_metrics(cfg.workers, cfg.workers * 2, Some(&metrics));
        let world = Arc::new(probe.timed("synth", "synth.wall_s", || workload::synthesize(&cfg)));
        let store = probe.crawl(rep, &world, &cfg.crawl, &metrics);
        let baselines = workload::baselines(world);
        let pool_cpu = rep.ok(procfs::threads_cpu_s(POOL_THREADS));
        let report = probe.report(
            rep,
            &store,
            &baselines,
            &pool,
            &metrics,
            &ReportOptions::default(),
        );
        let svm = probe.timed("core.svm_experiment", "analysis.extras_wall_s", || {
            dissenter_core::svm_exp::run_svm_experiment_pooled(
                &store,
                cfg.svm_corpus,
                cfg.world.seed,
                &pool,
                Some(&metrics),
            )
        });
        probe.analysis_done(rep, &metrics, pool_cpu);
        let runstats = runstats::collect(&metrics);
        Study {
            report,
            svm: Some(svm),
            store,
            scale_factor: cfg.world.scale.factor(),
            runstats,
        }
    });
    rep.crawl_requests = probe.client_requests;
    rep.crawl_wall_s = probe.layers["crawler.wall_s"];
    workload::record_study(rep, &study, &truth);
}

/// The `analyze` set-up crawl and timed unit, both traced; only the unit
/// counts toward the traced wall.
fn analyze(p: &Params, probe: &mut Probe, rep: &mut Rep) {
    let cfg = p.study();
    let started = Instant::now();
    let world = Arc::new(probe.timed("synth", "synth.wall_s", || workload::synthesize(&cfg)));
    let truth = Truth::of(&world);
    let store = probe.crawl(rep, &world, &cfg.crawl, &obs::Registry::new());
    rep.crawl_wall_s = probe.layers["crawler.wall_s"];
    rep.crawl_requests = probe.client_requests;
    workload::check_store(rep, &store, &truth);
    let baselines = workload::baselines(world);
    rep.setup_s = started.elapsed().as_secs_f64();

    let pool = httpnet::ThreadPool::new(cfg.workers, cfg.workers * 2);
    let (report, svm, metrics) = unit(probe, rep, p.passes(), |probe, rep| {
        let metrics = obs::Registry::new();
        let pool_cpu = rep.ok(procfs::threads_cpu_s(POOL_THREADS));
        let report = probe.report(
            rep,
            &store,
            &baselines,
            &pool,
            &metrics,
            &workload::spill_options(),
        );
        let svm = probe.timed("core.svm_experiment", "analysis.extras_wall_s", || {
            dissenter_core::svm_exp::run_svm_experiment_pooled(
                &store,
                cfg.svm_corpus,
                cfg.world.seed,
                &pool,
                Some(&metrics),
            )
        });
        probe.analysis_done(rep, &metrics, pool_cpu);
        (report, svm, metrics)
    });
    let runstats = runstats::collect(&metrics);
    let study = Study {
        report,
        svm: Some(svm),
        store,
        scale_factor: cfg.world.scale.factor(),
        runstats,
    };
    workload::finish_analyze(rep, p, study, &baselines, &pool);
}

/// Derived layer metrics, the front statistics, the wire leg and the
/// request reconciliation.
fn finish_layers(probe: &mut Probe, rep: &mut Rep) {
    let snap = probe.layers.clone();
    let get = |k: &str| snap.get(k).copied().unwrap_or(0.0);
    let (mut handled, mut handle_s, mut body) = (0u64, 0.0, 0u64);
    let mut sample = Vec::new();
    for (name, stats) in FRONTS.iter().zip(probe.fronts.clone()) {
        use std::sync::atomic::Ordering::Relaxed;
        let requests = stats.latency_ns.count();
        handled += requests;
        handle_s += stats.handle_ns.load(Relaxed) as f64 / 1e9;
        body += stats.body_bytes.load(Relaxed);
        probe.add(format!("webfront.{name}.requests"), requests as f64);
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            let us = stats.latency_ns.quantile(q).map_or(0.0, |ns| ns / 1e3);
            probe.add(format!("webfront.{name}.handle_us_{label}"), us);
        }
        sample.extend(stats.sample.lock().expect("sample lock").iter().cloned());
    }
    probe.add("webfront.handle_s", handle_s);
    probe.add("webfront.body_mib", body as f64 / (1 << 20) as f64);
    probe.add(
        "httpnet.server.transport_cpu_s",
        get("httpnet.server.cpu_s") - handle_s,
    );
    probe.add("httpnet.server.requests_served", probe.served as f64);
    probe.add("crawler.requests", probe.client_requests as f64);
    probe.add(
        "crawler.req_per_s",
        probe.client_requests as f64 / get("crawler.wall_s"),
    );
    let (client, served) = (probe.client_requests, probe.served);
    rep.check(client == served && served == handled, || {
        format!("requests disagree: client sent {client}, servers served {served}, fronts handled {handled}")
    });
    match front::wire_leg(&sample) {
        Ok((request_ns, response_ns)) => {
            probe.add("httpnet.wire.request_ns", request_ns);
            probe.add("httpnet.wire.response_ns", response_ns);
        }
        Err(e) => rep.errors.push(e),
    }
}
