//! The repository benchmark.
//!
//! ```text
//! perfbench --workload oneshot|analyze [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//! ```
//!
//! Runs repetitions of one workload, each in a fresh child process (a
//! re-run of this binary), until `--seconds` have passed and at least
//! three (with `--trace 1`: two of each kind) have run. Every
//! repetition checks its outputs; the parent also
//! checks that all repetitions of the seed agree. Prints one line per
//! metric (median, min, max, n, quartile spread), then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and the
//! `metrics` `BENCHMARK.json` names, with the end-to-end metrics
//! (medians over untraced repetitions) for `--trace 0` and the per-layer
//! metrics (medians over traced repetitions, which alternate with
//! untraced ones) for `--trace 1`. Exits 1 when a check failed, 2 on bad
//! arguments.
//!
//! Traces and scratch files go under `$CARGO_TARGET_DIR/perfbench`
//! (`target/perfbench` when unset): `trace-<workload>.json` is the last
//! traced repetition's spans as Chrome trace events.

use perfbench::summary::{self, Outcome};
use perfbench::traced;
use perfbench::workload::{self, Params, Rep, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload oneshot|analyze [--seed N] [--seconds S] \
                     [--trace 0|1] [--threads N]";

/// Fewest repetitions a run makes: untraced ones for `--trace 0`, and
/// for `--trace 1` this many traced and untraced ones, alternating.
const MIN_REPS: usize = 3;
const MIN_TRACED_PAIRS: usize = 2;
/// Every repetition must be over this long after the run started.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// A run whose repetitions keep failing stops after this many.
const MAX_FAILED_REPS: usize = 3;

struct Args {
    params: Params,
    seconds: f64,
    trace: bool,
    /// Set in a child: run one repetition, traced or not.
    child: Option<bool>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut threads, mut reference) =
        (None, workload::DEFAULT_SEED, 2, false);
    let (mut seconds, mut trace, mut child) = (20.0, false, None);
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        if flag == "--reference" {
            reference = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(bad("not a duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                };
            }
            "--threads" => {
                threads = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=64).contains(n))
                    .ok_or(bad("must be 1..=64"))?;
            }
            "--child" => {
                child = Some(match value.as_str() {
                    "untraced" => false,
                    "traced" => true,
                    _ => return Err(bad("must be traced or untraced")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let params = Params {
        reference,
        ..Params::new(workload, seed, threads)
    };
    Ok(Args {
        params,
        seconds,
        trace,
        child,
    })
}

fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perfbench")
}

fn main() {
    let args = parse_args(std::env::args()).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let out = out_dir();
    if let Some(traced) = args.child {
        let rep = if traced {
            traced::run(
                &args.params,
                &out.join(format!("trace-{}.json", args.params.workload.name())),
            )
        } else {
            workload::run(&args.params)
        };
        println!("{}", jsonlite::to_string(&rep.to_json()));
        return;
    }
    let code = match run(&args, &out) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Run one repetition in a child process, killing it at `deadline`.
fn repetition(
    args: &Args,
    traced: bool,
    reference: bool,
    scratch: &Path,
    deadline: Instant,
) -> Result<Rep, String> {
    let p = &args.params;
    let out_path = scratch.join("repetition.json");
    let stdout =
        std::fs::File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        if traced { "traced" } else { "untraced" },
        "--workload",
        p.workload.name(),
    ])
    .args([
        "--seed",
        &p.seed.to_string(),
        "--threads",
        &p.threads.to_string(),
    ])
    .env("TMPDIR", scratch)
    .stdin(Stdio::null())
    .stdout(stdout);
    if reference {
        cmd.arg("--reference");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    let status = loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| format!("waiting for a repetition: {e}"))?
        {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "repetition still running after {} s; killed",
                RUN_DEADLINE.as_secs()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    if !status.success() {
        return Err(format!("repetition exited with {status}"));
    }
    let text =
        std::fs::read_to_string(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let line = text.lines().last().ok_or("repetition printed nothing")?;
    Rep::from_json(&jsonlite::parse(line).map_err(|e| format!("repetition output: {e:?}"))?)
}

/// Run the repetitions, check them, print the metrics; `Ok(correct)`.
fn run(args: &Args, out: &Path) -> Result<bool, String> {
    let started = Instant::now();
    let deadline = started + RUN_DEADLINE;
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let scratch =
        std::path::absolute(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let mut o = Outcome::default();
    for i in 0.. {
        let is_traced = args.trace && i % 2 == 1;
        match repetition(args, is_traced, i == 0, &scratch, deadline) {
            Ok(rep) if is_traced => o.traced.push(rep),
            Ok(rep) => o.untraced.push(rep),
            Err(e) => {
                o.crashed += 1;
                o.errors.push(e);
            }
        }
        let done = i + 1;
        let elapsed = started.elapsed().as_secs_f64();
        let next_ends = elapsed * (done + 1) as f64 / done as f64;
        let enough = if args.trace {
            o.traced.len().min(o.untraced.len()) >= MIN_TRACED_PAIRS
        } else {
            o.untraced.len() >= MIN_REPS
        };
        if o.crashed >= MAX_FAILED_REPS
            || Instant::now() >= deadline
            || (enough && next_ends > args.seconds)
        {
            break;
        }
    }
    std::fs::remove_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let p = &args.params;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    println!(
        "{}  seed {}  threads {}  {section}",
        p.workload.name(),
        p.seed,
        p.threads
    );
    let s = summary::summarize(args.trace, o);
    for line in &s.table {
        println!("{line}");
    }
    for e in &s.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", jsonlite::to_string(&s.result));
    Ok(s.errors.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            parse("perfbench --workload analyze --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.params.workload, Workload::Analyze);
        assert_eq!(
            (a.params.seed, a.seconds, a.trace, a.params.threads),
            (7, 20.0, true, 2)
        );
        assert!(a.child.is_none() && !a.params.reference);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "perfbench",
            "perfbench --workload nope",
            "perfbench --workload oneshot --trace 2",
            "perfbench --workload oneshot --seconds 0",
            "perfbench --workload oneshot --threads 0",
            "perfbench --workload oneshot --seed",
            "perfbench --workload oneshot --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
    }
}
