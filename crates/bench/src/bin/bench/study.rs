//! `study` suite: run one fixed-seed study serially (`workers = 1`) and
//! sharded (`--workers N`, default 8), prove the deterministic report
//! renders byte-identical, and report the sharded run's
//! [`RunStats`](dissenter_core::RunStats) — stage wall-clocks, per-phase
//! crawl coverage, per-scorer throughput, shard accounting and the full
//! metric snapshot — as the suite's metrics.
//!
//! Counters (and the phase/scorer comment counts) replay identically for
//! the same seed; stage wall-clocks, rates and latency quantiles are
//! timing-derived and vary run to run. The speedup gate needs ≥ 4 CPUs:
//! below that a wall-clock ratio is noise, so the gate is refused and no
//! ratio is recorded.

use crate::{fnv1a64, stages_us, timed_study};
use bench::report::{Args, BenchReport, Op};
use dissenter_core::{render, Study};
use jsonlite::Value;
use synth::config::Scale;

pub const FLAGS: &[&str] =
    &["--scale <f64>", "--seed <n>", "--workers <n>", "--svm-corpus <n>", "--skip-svm"];

/// The sharded run must beat the serial one by this much on ≥ 4 CPUs.
const REQUIRED_SPEEDUP: f64 = 1.5;

pub fn run(args: &Args) -> Result<BenchReport, String> {
    let workers: usize = args.get("--workers", 8)?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    let mut builder = Study::builder()
        .scale(Scale::Custom(args.get("--scale", 0.004)?))
        .svm_corpus(args.get("--svm-corpus", 600)?)
        .svm(!args.has("--skip-svm"));
    if let Some(seed) = args.opt("--seed")? {
        builder = builder.seed(seed);
    }
    let mut cfg = builder.build()?;

    cfg.workers = 1;
    let (serial, serial_wall) = timed_study(&cfg);
    cfg.workers = workers;
    let (parallel, parallel_wall) = timed_study(&cfg);

    // The contract under test: the deterministic render (every paper
    // artifact; run statistics excluded as wall-clock) must be
    // byte-identical at any worker count.
    let serial_render = render::deterministic(&serial);
    let identical = serial_render == render::deterministic(&parallel);
    let rs = &parallel.runstats;

    let mut report = BenchReport::new(
        "study",
        Value::object()
            .with("seed", cfg.world.seed)
            .with("scale", parallel.scale_factor)
            .with("workers", workers)
            .with("svm_corpus", cfg.svm_corpus)
            .with("svm", !cfg.skip_svm),
    );
    report.metric("comments", parallel.report.overview.comments);
    report.metric(
        "wall_ms",
        Value::object()
            .with("serial", serial_wall.as_secs_f64() * 1e3)
            .with("parallel", parallel_wall.as_secs_f64() * 1e3),
    );
    report.metric("report_fnv1a64", format!("{:016x}", fnv1a64(serial_render.as_bytes())));
    report.metric(
        "stages_us",
        Value::object().with("serial", stages_us(&serial)).with("parallel", stages_us(&parallel)),
    );
    report.metric(
        "phases",
        rs.phases.iter().fold(Value::object(), |o, p| {
            o.with(
                &p.name,
                Value::object()
                    .with("attempted", p.attempted)
                    .with("succeeded", p.succeeded)
                    .with("retried", p.retried)
                    .with("dead_lettered", p.dead_lettered),
            )
        }),
    );
    report.metric(
        "scorers",
        rs.scorers.iter().fold(Value::object(), |o, sc| {
            o.with(
                &sc.name,
                Value::object()
                    .with("comments", sc.comments)
                    .with("comments_per_sec", sc.comments_per_sec),
            )
        }),
    );
    report.metric(
        "shards",
        rs.shards.iter().fold(Value::object(), |o, sh| {
            o.with(
                &sh.name,
                Value::object()
                    .with("jobs", sh.jobs)
                    .with("items", sh.items)
                    .with("busy_us", sh.busy_us),
            )
        }),
    );
    report.metric("peak_rss_bytes", rs.peak_rss_bytes);
    report.metric(
        "snapshot",
        jsonlite::parse(&rs.snapshot.to_json()).expect("metric snapshot serializes as JSON"),
    );

    report.check("render_identical", identical);
    if report.cpus >= 4 {
        let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
        report.gate("speedup", speedup, Op::Ge, REQUIRED_SPEEDUP);
    } else {
        let reason = format!("{} cpu(s) < 4: a wall-clock ratio is noise", report.cpus);
        report.refuse("speedup", Op::Ge, REQUIRED_SPEEDUP, &reason);
    }
    report.gate("shards", rs.shards.len() as f64, Op::Ge, 1.0);
    report.gate("phases", rs.phases.len() as f64, Op::Ge, 1.0);
    let unbalanced =
        rs.phases.iter().filter(|p| p.attempted != p.succeeded + p.dead_lettered).count();
    report.gate("phases_unbalanced", unbalanced as f64, Op::Eq, 0.0);
    Ok(report)
}
