//! From repetitions to the benchmark's result: cross-repetition checks,
//! medians per metric, the printed table and the result JSON.

use crate::stats;
use crate::workload::Rep;
use jsonlite::Value;

/// The benchmark definition: metric names, units and bounds come from
/// here and nowhere else.
pub const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metrics of `section` (`end_to_end` or `per_layer`).
pub fn metric_specs(section: &str) -> Vec<MetricSpec> {
    let doc = jsonlite::parse(BENCHMARK).expect("BENCHMARK.json is valid JSON");
    let list = doc
        .get(section)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists its metrics");
    list.iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_owned(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .expect("metric unit")
                .to_owned(),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// Everything a run produced.
#[derive(Default)]
pub struct Outcome {
    pub untraced: Vec<Rep>,
    pub traced: Vec<Rep>,
    /// Repetitions that crashed, timed out or printed no result.
    pub crashed: usize,
    /// Why they did.
    pub errors: Vec<String>,
}

/// The printed table, the failed checks and the result object.
pub struct Summary {
    pub table: Vec<String>,
    pub errors: Vec<String>,
    pub result: Value,
}

/// Every repetition of a seed, traced or not, must produce the same
/// outputs, requests and counters.
fn agreement(reps: &[&Rep]) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(first) = reps.first() else {
        return errors;
    };
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.digest != first.digest {
            errors.push(format!(
                "repetition {i} output digest {} differs from {}",
                rep.digest, first.digest
            ));
        }
        if rep.crawl_requests != first.crawl_requests {
            errors.push(format!(
                "repetition {i} sent {} requests, repetition 0 sent {}",
                rep.crawl_requests, first.crawl_requests
            ));
        }
        if rep.counters != first.counters {
            let differ = rep.counters.iter().filter(|c| !first.counters.contains(c));
            let names: Vec<&str> = differ.map(|(name, _)| name.as_str()).collect();
            errors.push(format!(
                "repetition {i} counters differ from repetition 0: {names:?}"
            ));
        }
    }
    errors
}

/// Values over repetitions of every metric the run reports: end-to-end
/// metrics from untraced repetitions, per-layer metrics from traced
/// ones plus the tracing overhead.
fn values(trace: bool, o: &Outcome) -> Vec<(String, Vec<f64>)> {
    let of = |reps: &[Rep], f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    if !trace {
        return vec![
            ("setup_s".into(), of(&o.untraced, |r| r.setup_s)),
            ("wall_s".into(), of(&o.untraced, |r| r.wall_s)),
            ("cpu_s".into(), of(&o.untraced, |r| r.cpu_s)),
            ("peak_rss_mib".into(), of(&o.untraced, |r| r.peak_rss_mib)),
            (
                "crawl_req_per_s".into(),
                of(&o.untraced, |r| r.crawl_requests as f64 / r.crawl_wall_s),
            ),
        ];
    }
    let wall = |reps: &[Rep]| stats::median(&of(reps, |r| r.wall_s));
    let overhead = match (wall(&o.traced), wall(&o.untraced)) {
        (Some(t), Some(u)) => vec![t / u - 1.0],
        _ => vec![],
    };
    let mut out = vec![("bench.trace_overhead".to_owned(), overhead)];
    for rep in &o.traced {
        for (name, v) in &rep.layers {
            match out.iter_mut().find(|(k, _)| k == name) {
                Some((_, values)) => values.push(*v),
                None => out.push((name.clone(), vec![*v])),
            }
        }
    }
    out
}

/// Check the repetitions against each other and reduce them to the
/// metrics `BENCHMARK.json` declares for this kind of run.
pub fn summarize(trace: bool, o: Outcome) -> Summary {
    let all: Vec<&Rep> = o.untraced.iter().chain(&o.traced).collect();
    let mut errors = o.errors.clone();
    for (i, rep) in all.iter().enumerate() {
        errors.extend(rep.errors.iter().map(|e| format!("repetition {i}: {e}")));
    }
    errors.extend(agreement(&all));

    let values = values(trace, &o);
    let specs = metric_specs(if trace { "per_layer" } else { "end_to_end" });
    for (name, _) in &values {
        if !specs.iter().any(|s| s.name == *name) {
            errors.push(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    let (mut table, mut metrics) = (Vec::new(), Value::object());
    for spec in &specs {
        let v = values
            .iter()
            .find(|(k, _)| *k == spec.name)
            .map_or(&[][..], |(_, v)| v.as_slice());
        let Some(median) = stats::median(v).filter(|m| m.is_finite()) else {
            errors.push(format!("metric {} has no finite value", spec.name));
            continue;
        };
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = stats::spread(v);
        let unsteady = match (spread, spec.bound) {
            (Some(s), Some(b)) if s > b / 3.0 => "  (spread above a third of its bound)",
            _ => "",
        };
        table.push(format!(
            "  {:<36} {:>14.6} {:<6} min {min:.6}  max {max:.6}  n {}  spread {}{unsteady}",
            spec.name,
            median,
            spec.unit,
            v.len(),
            spread.map_or("-".into(), |s| format!("{:.2}%", s * 100.0)),
        ));
        metrics = metrics.with(
            &spec.name,
            Value::object()
                .with("value", median)
                .with("unit", spec.unit.as_str()),
        );
    }

    let crashed = o.crashed as u64;
    let attempted = all.iter().map(|r| r.ops).sum::<u64>() + crashed;
    let failed = all
        .iter()
        .filter(|r| !r.errors.is_empty())
        .map(|r| r.ops)
        .sum::<u64>()
        + crashed;
    let result = Value::object()
        .with("correct", errors.is_empty())
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics);
    Summary {
        table,
        errors,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn rep(wall_s: f64, digest: &str) -> Rep {
        Rep {
            setup_s: 0.5,
            wall_s,
            cpu_s: 2.0 * wall_s,
            peak_rss_mib: 80.0,
            crawl_requests: 1000,
            crawl_wall_s: 0.5,
            ops: 1000,
            digest: digest.into(),
            counters: vec![("crawl.spider.attempted".into(), 10)],
            ..Rep::default()
        }
    }

    #[test]
    fn benchmark_json_declares_the_workloads_and_bounded_metrics() {
        let e2e = metric_specs("end_to_end");
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(e2e.iter().any(|m| m.name == "setup_s"));
        assert!(metric_specs("per_layer").iter().all(|m| m.bound.is_none()));
        let doc = jsonlite::parse(BENCHMARK).expect("valid JSON");
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn agreeing_repetitions_give_medians_of_every_end_to_end_metric() {
        let o = Outcome {
            untraced: vec![rep(3.0, "a"), rep(1.0, "a"), rep(2.0, "a")],
            ..Outcome::default()
        };
        let s = summarize(false, o);
        assert!(s.errors.is_empty(), "{:?}", s.errors);
        let metrics = s.result.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("wall_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            metrics
                .get("crawl_req_per_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(2000.0)
        );
        assert_eq!(
            s.result.get("attempted").and_then(Value::as_i64),
            Some(3000)
        );
        assert_eq!(s.table.len(), metric_specs("end_to_end").len());
    }

    #[test]
    fn disagreeing_or_failing_repetitions_are_not_correct() {
        let mut bad = rep(1.0, "a");
        bad.errors.push("crawl mirrored 1 of 2 threads".into());
        bad.counters[0].1 = 11;
        let o = Outcome {
            untraced: vec![rep(1.0, "a"), rep(1.0, "b"), bad],
            crashed: 1,
            ..Outcome::default()
        };
        let s = summarize(false, o);
        assert_eq!(
            s.result.get("correct").and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(s.result.get("failed").and_then(Value::as_i64), Some(1001));
        let text = s.errors.join("\n");
        for needle in ["digest", "counters differ", "mirrored"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn a_traced_run_without_layer_metrics_is_not_correct() {
        let o = Outcome {
            untraced: vec![rep(1.0, "a")],
            traced: vec![rep(1.1, "a")],
            ..Outcome::default()
        };
        let s = summarize(true, o);
        assert!(
            s.errors.iter().any(|e| e.contains("synth.wall_s")),
            "{:?}",
            s.errors
        );
    }
}
