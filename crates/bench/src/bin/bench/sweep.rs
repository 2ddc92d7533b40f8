//! `sweep` suite: run the same evolving-world study both ways — composed
//! incremental sweeps vs a one-shot retrospective crawl — and compare.
//!
//! Gates:
//! * **oracle** — every artifact (render, longitudinal section, the
//!   three windowed CSVs, figure CSVs, persisted JSONL mirror) is
//!   byte-identical between the composed and one-shot runs. Unlike the
//!   simcheck family this is checked at *nonzero* drift: both modes
//!   apply the same declared revision timeline, so the equality must
//!   hold regardless.
//! * **amortization** — every *incremental* sweep (all but the base)
//!   finishes within 1.5× the one-shot crawl's wall-clock (plus a
//!   250 ms jitter floor), even though it re-covers a strictly larger
//!   world than any sweep before it: validator reuse plus the
//!   enumeration hint must keep a re-sweep at parity with a cold crawl
//!   (measured ~0.9×, where a hint-free re-sweep lands well above 1×).
//!   The composed *total* necessarily contains `epochs + 1`
//!   full-coverage crawls and is reported (`crawl_ratio`) rather than
//!   gated.
//! * **revalidation reuse** — every post-base sweep answers more
//!   requests with `304 Not Modified` than the base sweep did and at
//!   least a quarter of its requests from cache.
//! * **drift detection** — at the configured nonzero drift the report
//!   carries exactly one version boundary, rescored on a nonempty
//!   calibration sample, with a nonzero max per-comment delta and the
//!   boundary flagged as conclusion-threatening.

use bench::report::{Args, BenchReport, Op};
use dissenter_core::longitudinal::{artifacts, run_composed, run_one_shot, LongitudinalConfig};
use jsonlite::Value;
use std::time::Instant;
use synth::config::Scale;

pub const FLAGS: &[&str] =
    &["--epochs <n>", "--drift <f64>", "--scale <f64>", "--seed <n>", "--workers <n>"];

/// An incremental sweep may take this many one-shot crawl walls (plus
/// the jitter floor below).
const SWEEP_GATE_RATIO: f64 = 1.5;
const SWEEP_GATE_FLOOR_MS: f64 = 250.0;

pub fn run(args: &Args) -> Result<BenchReport, String> {
    let epochs: u32 = args.get("--epochs", 2)?;
    let drift: f64 = args.get("--drift", 0.25)?;
    let scale: f64 = args.get("--scale", 0.003)?;
    let seed: u64 = args.get("--seed", 0x10_6601)?;
    let workers: usize = args.get("--workers", 8)?;
    if epochs < 1 {
        return Err("--epochs must be at least 1".to_owned());
    }
    if drift <= 0.0 {
        return Err("the suite gates on drift detection; pass --drift > 0".to_owned());
    }

    let study = dissenter_core::Study::builder()
        .seed(seed)
        .scale(Scale::Custom(scale))
        .workers(workers)
        .svm(false)
        .build()?;
    let cfg = LongitudinalConfig {
        study,
        epochs,
        drift,
        drift_seed: seed,
        calibration: 256,
        durable_root: None,
        kill_sweep: None,
    };

    eprintln!("sweep: one-shot crawl of the final epoch state ...");
    let t0 = Instant::now();
    let one_shot = run_one_shot(&cfg);
    let one_shot_total = t0.elapsed();
    let one_shot_crawl_ms = one_shot.sweep_wall[0].as_secs_f64() * 1e3;

    eprintln!("sweep: composed run, {} sweeps ...", epochs + 1);
    let t1 = Instant::now();
    let composed = run_composed(&cfg);
    let composed_total = t1.elapsed();
    let composed_crawl_ms: f64 = composed.sweep_wall.iter().map(|w| w.as_secs_f64() * 1e3).sum();

    let a = artifacts(&composed);
    let b = artifacts(&one_shot);
    let same_set = a.iter().map(|(n, _)| n).eq(b.iter().map(|(n, _)| n));
    let differing: Vec<&str> =
        a.iter().zip(&b).filter(|(l, r)| l.1 != r.1).map(|(l, _)| l.0.as_str()).collect();
    let bytes_compared: usize = a.iter().map(|(_, bytes)| bytes.len()).sum();
    if !differing.is_empty() {
        eprintln!("sweep: artifacts differ between composed and one-shot: {differing:?}");
    }

    let mut report = BenchReport::new(
        "sweep",
        Value::object()
            .with("epochs", epochs)
            .with("drift", drift)
            .with("scale", scale)
            .with("seed", seed)
            .with("workers", workers),
    );
    let sweeps: Vec<Value> = composed
        .sweep_wall
        .iter()
        .zip(&composed.sweep_not_modified)
        .zip(&composed.sweep_requests)
        .map(|((wall, &nm), &req)| {
            Value::object()
                .with("wall_ms", wall.as_secs_f64() * 1e3)
                .with("not_modified", nm)
                .with("requests", req)
                .with("not_modified_fraction", nm as f64 / (req as f64).max(1.0))
                .with("ratio_to_one_shot", wall.as_secs_f64() * 1e3 / one_shot_crawl_ms.max(1e-9))
        })
        .collect();
    report.metric(
        "one_shot",
        Value::object()
            .with("crawl_wall_ms", one_shot_crawl_ms)
            .with("total_wall_ms", one_shot_total.as_secs_f64() * 1e3)
            .with("requests", one_shot.sweep_requests[0]),
    );
    report.metric(
        "composed",
        Value::object()
            .with("sweeps", sweeps)
            .with("crawl_wall_ms", composed_crawl_ms)
            .with("total_wall_ms", composed_total.as_secs_f64() * 1e3)
            .with("crawl_ratio", composed_crawl_ms / one_shot_crawl_ms.max(1e-9)),
    );
    report.metric(
        "oracle",
        Value::object().with("artifacts", a.len()).with("bytes_compared", bytes_compared),
    );
    let boundaries = &composed.drift.boundaries;
    let boundary = boundaries.first();
    if let Some(b) = boundary {
        report.metric(
            "drift",
            Value::object()
                .with("boundaries", boundaries.len())
                .with("window", b.window)
                .with("calibration_n", b.calibration_n)
                .with("mean_severe_delta", b.mean_severe_delta)
                .with("mean_reject_delta", b.mean_reject_delta)
                .with("max_abs_comment_delta", b.max_abs_comment_delta)
                .with("flagged", b.flagged),
        );
    }

    // The differential oracle, at nonzero drift.
    report.check("oracle.artifact_set", same_set);
    report.check("oracle.equal", same_set && differing.is_empty());
    report.gate("oracle.artifacts", a.len() as f64, Op::Gt, 0.0);
    report.gate("oracle.bytes_compared", bytes_compared as f64, Op::Gt, 0.0);

    // Amortization and revalidation reuse, per incremental sweep.
    report.gate("one_shot.crawl_wall_ms", one_shot_crawl_ms, Op::Gt, 0.0);
    report.gate("sweeps", composed.sweep_wall.len() as f64, Op::Eq, f64::from(epochs + 1));
    let wall_gate_ms = one_shot_crawl_ms * SWEEP_GATE_RATIO + SWEEP_GATE_FLOOR_MS;
    let base_304 = composed.sweep_not_modified[0] as f64;
    for (i, ((wall, &nm), &req)) in composed
        .sweep_wall
        .iter()
        .zip(&composed.sweep_not_modified)
        .zip(&composed.sweep_requests)
        .enumerate()
        .skip(1)
    {
        let wall_ms = wall.as_secs_f64() * 1e3;
        report.gate(&format!("sweep.{i}.wall_ms"), wall_ms, Op::Le, wall_gate_ms);
        report.gate(&format!("sweep.{i}.not_modified"), nm as f64, Op::Gt, base_304);
        let fraction = nm as f64 / (req as f64).max(1.0);
        report.gate(&format!("sweep.{i}.not_modified_fraction"), fraction, Op::Ge, 0.25);
    }

    // Drift detection.
    report.gate("drift.boundaries", boundaries.len() as f64, Op::Eq, 1.0);
    report.gate("drift.calibration_n", boundary.map(|b| b.calibration_n as f64), Op::Gt, 0.0);
    let delta = boundary.map(|b| b.max_abs_comment_delta);
    report.gate("drift.max_abs_comment_delta", delta, Op::Gt, 0.0);
    report.check("drift.flagged", boundary.is_some_and(|b| b.flagged));
    Ok(report)
}
