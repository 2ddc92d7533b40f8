//! `scale` suite: run the study (default scale 1.0) under a hard
//! peak-RSS ceiling. The study streams its world and counts its report
//! tables through bounded spill buffers, so nothing needs switching on.
//!
//! Gates:
//! * **memory** — the study runs under a `MemoryBudget` at the
//!   configured ceiling (default 4 GiB). The
//!   budget is checked inside `run_study` at every stage boundary and
//!   every 100k streamed world items, so *completing at all* proves the
//!   ceiling held; the suite additionally gates the recorded
//!   `peak_rss_bytes` against the ceiling.
//! * **speedup** — on ≥ 4 CPUs the study is re-run at `workers = 1`,
//!   the deterministic render is proven byte-identical, and the
//!   wall-clock ratio must clear an Amdahl-adjusted floor: ≥ 0.6×
//!   efficiency per added effective core on the parallelizable portion.
//!   `crawl_wall_share` — the serve + crawl stages' share of total stage
//!   wall time — is what the floor carries at 1×. It treats all of that
//!   wall as serial, which is conservative: the crawl already runs on
//!   several workers, so the true serial fraction can only be smaller.
//!   Below 4 CPUs a wall-clock ratio is noise, so the gate is refused.
//! * **shape** — the run recorded exactly the five pipeline stages, and
//!   `crawl_wall_share` lies in [0, 1].

use crate::{fnv1a64, stages_us, timed_study};
use bench::report::{Args, BenchReport, Op};
use dissenter_core::{MemoryBudget, Study};
use jsonlite::Value;
use synth::config::Scale;

pub const FLAGS: &[&str] = &[
    "--scale <f64>",
    "--seed <n>",
    "--workers <n>",
    "--budget-gib <f64>",
    "--svm-corpus <n>",
    "--skip-svm",
];

/// Amdahl-adjusted speedup floor: the parallelizable `1 - serial`
/// fraction of the serial wall must scale at ≥ 0.6× efficiency per added
/// effective core, while the `serial` fraction is carried at 1×.
fn required_speedup(cpus: usize, workers: usize, serial: f64) -> f64 {
    let effective = workers.min(cpus) as f64;
    let parallel_speedup = 1.0 + 0.6 * (effective - 1.0);
    1.0 / (serial + (1.0 - serial) / parallel_speedup)
}

/// The serve + crawl stages' share of total stage wall time.
fn crawl_wall_share(study: &Study) -> f64 {
    let total: u64 = study.runstats.stages.iter().map(|s| s.wall_us).sum();
    let crawl: u64 = study
        .runstats
        .stages
        .iter()
        .filter(|s| s.name == "crawl" || s.name == "serve")
        .map(|s| s.wall_us)
        .sum();
    if total == 0 {
        0.0
    } else {
        crawl as f64 / total as f64
    }
}

pub fn run(args: &Args) -> Result<BenchReport, String> {
    let workers: usize = args.get("--workers", 8)?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    let budget_gib: f64 = args.get("--budget-gib", 4.0)?;
    let budget = MemoryBudget::gib(budget_gib);
    let mut builder = Study::builder()
        .scale(Scale::Custom(args.get("--scale", 1.0)?))
        .svm(!args.has("--skip-svm"))
        .workers(workers)
        .memory_budget(budget);
    if let Some(seed) = args.opt("--seed")? {
        builder = builder.seed(seed);
    }
    if let Some(corpus) = args.opt("--svm-corpus")? {
        builder = builder.svm_corpus(corpus);
    }
    let mut cfg = builder.build()?;
    let ceiling = budget.ceiling_bytes().ok_or("--budget-gib must be finite")?;

    eprintln!(
        "scale: study at scale factor {:.4}, {workers} workers, \
         {budget_gib} GiB budget ...",
        cfg.world.scale.factor()
    );
    let (study, wall) = timed_study(&cfg);
    let peak = study.runstats.peak_rss_bytes;
    let share = crawl_wall_share(&study);
    let overview = &study.report.overview;

    let mut report = BenchReport::new(
        "scale",
        Value::object()
            .with("seed", cfg.world.seed)
            .with("scale", study.scale_factor)
            .with("workers", workers)
            .with("budget_bytes", ceiling),
    );
    report.metric("comments", overview.comments);
    report.metric("active_users", overview.active_users);
    report.metric("urls", overview.urls);
    report.metric("wall_ms", wall.as_secs_f64() * 1e3);
    report.metric("peak_rss_bytes", peak);
    report.metric("crawl_wall_share", share);
    report.metric("stages_us", stages_us(&study));

    report.gate("peak_rss_bytes.measured", peak as f64, Op::Gt, 0.0);
    report.gate("peak_rss_bytes", peak as f64, Op::Le, ceiling as f64);
    report.gate("crawl_wall_share.min", share, Op::Ge, 0.0);
    report.gate("crawl_wall_share.max", share, Op::Le, 1.0);
    let mut stages: Vec<&str> = study.runstats.stages.iter().map(|s| s.name.as_str()).collect();
    stages.sort_unstable();
    report.check("stage_set", stages == ["crawl", "report", "serve", "svm", "synth"]);

    // Speedup leg: a second, serial run — refused below 4 CPUs.
    let floor = required_speedup(report.cpus, workers, share);
    if report.cpus < 4 {
        let reason = format!("{} cpu(s) < 4: a wall-clock ratio is noise", report.cpus);
        report.refuse("speedup", Op::Ge, floor, &reason);
        return Ok(report);
    }
    eprintln!("scale: serial control run (workers = 1) ...");
    cfg.workers = 1;
    let (serial, serial_wall) = timed_study(&cfg);
    let serial_render = dissenter_core::render::deterministic(&serial);
    let speedup = serial_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9);
    report.metric("wall_ms_serial", serial_wall.as_secs_f64() * 1e3);
    report.metric("report_fnv1a64", format!("{:016x}", fnv1a64(serial_render.as_bytes())));
    let identical = serial_render == dissenter_core::render::deterministic(&study);
    report.check("render_identical", identical);
    report.gate("speedup", speedup, Op::Ge, floor);
    Ok(report)
}
