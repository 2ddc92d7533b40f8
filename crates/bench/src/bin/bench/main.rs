//! The bench driver: one subcommand per suite, one report per run.
//!
//! ```text
//! bench <suite> [flags] [--out FILE]
//! ```
//!
//! Every suite writes a [`BenchReport`] to `bench-results/<suite>.json`
//! (or `--out FILE`) before exiting; the exit code is 1 if any gate
//! failed, 2 on bad usage, 0 otherwise. `scripts/bench.sh <suite>` is the
//! usual entry point. Run `bench` with no arguments for each suite's
//! flags.

mod abuse;
mod recovery;
mod scale;
mod study;
mod sweep;
mod transport;

use bench::loadgen::LoadSummary;
use bench::report::{Args, BenchReport};
use dissenter_core::{run_study, Study, StudyConfig};
use std::path::PathBuf;
use std::time::Duration;

/// One suite's command-line surface and entry point. A suite returns
/// `Err` only for bad usage; everything it measures becomes a gate.
struct Suite {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args) -> Result<BenchReport, String>,
}

const SUITES: [Suite; 6] = [
    Suite { name: "study", flags: study::FLAGS, run: study::run },
    Suite { name: "transport", flags: transport::FLAGS, run: transport::run },
    Suite { name: "recovery", flags: recovery::FLAGS, run: recovery::run },
    Suite { name: "abuse", flags: abuse::FLAGS, run: abuse::run },
    Suite { name: "sweep", flags: sweep::FLAGS, run: sweep::run },
    Suite { name: "scale", flags: scale::FLAGS, run: scale::run },
];

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("bench: {error}");
    }
    eprintln!("usage: bench <suite> [flags] [--out FILE]");
    for s in &SUITES {
        eprintln!("  {:<10} {}", s.name, s.flags.join(" "));
    }
    std::process::exit(2);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_else(|| usage(""));
    let suite = SUITES
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| usage(&format!("unknown suite {name:?}")));
    let flags = [suite.flags, &["--out <file>"]].concat();
    let args = Args::parse(&flags, argv).unwrap_or_else(|e| usage(&format!("{name}: {e}")));
    let out = args
        .get("--out", PathBuf::from(format!("bench-results/{name}.json")))
        .unwrap_or_else(|e| usage(&e));
    let report = (suite.run)(&args).unwrap_or_else(|e| usage(&format!("{name}: {e}")));
    let code = report.finish(&out).unwrap_or_else(|e| {
        eprintln!("bench: cannot write {}: {e}", out.display());
        1
    });
    std::process::exit(code);
}

/// FNV-1a over a rendered report — a compact fingerprint for the JSON.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn timed_study(cfg: &StudyConfig) -> (Study, Duration) {
    let started = std::time::Instant::now();
    let study = run_study(cfg);
    (study, started.elapsed())
}

/// Stage wall-clocks as `{name: us}`.
fn stages_us(study: &Study) -> jsonlite::Value {
    study
        .runstats
        .stages
        .iter()
        .fold(jsonlite::Value::object(), |o, st| o.with(&st.name, st.wall_us))
}

/// Read a `kB` field (`VmRSS`, `VmHWM`, ...) from `/proc/self/status`.
fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            if let Some(kb) = rest.split_whitespace().next() {
                return kb.parse().unwrap_or(0);
            }
        }
    }
    0
}

fn summary_json(s: &LoadSummary) -> jsonlite::Value {
    jsonlite::Value::object()
        .with("requests", s.requests)
        .with("failures", s.failures)
        .with("wall_ms", s.wall_ms)
        .with("req_per_sec", s.req_per_sec)
        .with("p50_us", s.p50_us)
        .with("p99_us", s.p99_us)
        .with("not_modified", s.not_modified)
}

/// The first `n` Dissenter user pages in username order — the loadgen
/// working set.
fn user_targets(world: &platform::World, n: usize) -> Result<Vec<String>, String> {
    let mut names: Vec<&str> =
        world.dissenter_users().map(|i| world.user(i).username.as_str()).collect();
    names.sort_unstable();
    let targets: Vec<String> = names.iter().take(n).map(|n| format!("/user/{n}")).collect();
    if targets.is_empty() {
        return Err("world has no dissenter users; grow --scale".to_owned());
    }
    Ok(targets)
}
