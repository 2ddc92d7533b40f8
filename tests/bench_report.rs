//! The bench report contract: how gates are judged, how a report
//! round-trips through `jsonlite`, that every committed
//! `bench-results/*.json` is a well-formed report, and how
//! `scripts/bench.sh` rejects bad usage.

use bench::report::{Args, BenchReport, Op, Status};
use jsonlite::Value;
use std::path::Path;

fn report() -> BenchReport {
    BenchReport::new("t", Value::object())
}

#[test]
fn a_gate_without_a_value_fails() {
    let mut r = report();
    r.gate("missing", None, Op::Le, 1.0);
    assert_eq!(r.gates[0].status, Status::Failed);
    assert_eq!(r.gates[0].reason.as_deref(), Some("no value"));
    assert_eq!(r.exit_code(), 1);
}

#[test]
fn inclusive_bounds_pass_at_equality() {
    let mut r = report();
    r.gate("le", 1.25, Op::Le, 1.25);
    r.gate("ge", 1.5, Op::Ge, 1.5);
    r.gate("eq", 0.0, Op::Eq, 0.0);
    r.gate("gt", 0.0, Op::Gt, 0.0);
    let status: Vec<Status> = r.gates.iter().map(|g| g.status).collect();
    use Status::*;
    assert_eq!(status, [Passed, Passed, Passed, Failed]);
}

#[test]
fn a_refused_gate_keeps_its_reason_and_exit_zero() {
    let mut r = report();
    r.check("identical", true);
    r.refuse("speedup", Op::Ge, 1.5, "2 cpus < 4");
    assert_eq!(r.gates[1].status, Status::Refused);
    assert_eq!(r.gates[1].value, None);
    assert_eq!(r.gates[1].reason.as_deref(), Some("2 cpus < 4"));
    assert_eq!(r.exit_code(), 0);
}

#[test]
fn a_failed_gate_exits_one() {
    let mut r = report();
    r.check("ok", true);
    r.check("broken", false);
    assert_eq!(r.gates[1].status, Status::Failed);
    assert_eq!(r.exit_code(), 1);
}

#[test]
fn a_report_round_trips_through_jsonlite() {
    let mut r = BenchReport::new("study", Value::object().with("scale", 0.004));
    r.metric("wall_ms", 12.5);
    r.metric("phases", Value::object().with("probe", 3u64));
    r.gate("overhead", 1.1, Op::Le, 1.25);
    r.gate("absent", None, Op::Gt, 0.0);
    r.refuse("speedup", Op::Ge, 1.5, "1 cpu < 4");
    let text = jsonlite::to_string_pretty(&r.to_json());
    let back = BenchReport::from_json(&jsonlite::parse(&text).expect("valid JSON"));
    assert_eq!(back, Ok(r));
}

#[test]
fn committed_artifacts_are_reports_with_consistent_gates() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench-results");
    for entry in std::fs::read_dir(dir).expect("bench-results/ is committed") {
        let path = entry.expect("readable entry").path();
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let committed = jsonlite::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| BenchReport::from_json(&v))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(path.file_stem().and_then(|s| s.to_str()), Some(committed.suite.as_str()));
        for g in &committed.gates {
            let context = format!("{}: {}", committed.suite, g.name);
            if g.status == Status::Refused {
                assert!(g.value.is_none() && g.reason.is_some(), "{context}");
                continue;
            }
            // Re-judge the recorded value: the stored status must be the
            // one the value, op and bound imply.
            let mut again = report();
            again.gate(&g.name, g.value, g.op, g.bound);
            assert_eq!(again.gates[0].status, g.status, "{context}");
        }
    }
}

#[test]
fn flags_parse_against_the_declared_list() {
    let flags = ["--scale <f64>", "--skip-svm"];
    let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    let a = Args::parse(&flags, argv("--scale 0.5 --skip-svm")).expect("valid");
    assert_eq!(a.get("--scale", 1.0), Ok(0.5));
    assert!(a.has("--skip-svm"));
    assert_eq!(a.get("--seed", 7u64), Ok(7));
    assert!(Args::parse(&flags, argv("--bogus")).is_err());
    assert!(Args::parse(&flags, argv("--scale")).is_err());
    let bad = Args::parse(&flags, argv("--scale x")).expect("parses");
    assert!(bad.get("--scale", 1.0).is_err());
}

#[test]
fn bench_script_rejects_a_missing_or_unknown_suite_with_exit_2() {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/bench.sh");
    for args in [&[][..], &["bogus"][..]] {
        let status = std::process::Command::new("bash")
            .arg(&script)
            .args(args)
            .stderr(std::process::Stdio::null())
            .status()
            .expect("bash runs");
        assert_eq!(status.code(), Some(2), "scripts/bench.sh {args:?}");
    }
}
