//! Every workload at a tiny scale, one untraced and one traced
//! repetition each: all checks pass, every metric `BENCHMARK.json` names
//! is reported and finite, and the result JSON round-trips through
//! `jsonlite`.

use perfbench::summary::{summarize, Outcome};
use perfbench::traced;
use perfbench::workload::{self, Params, Rep, Workload};

/// A repetition as the parent receives it: through the child's JSON line.
fn sent(rep: &Rep) -> Rep {
    let line = jsonlite::to_string(&rep.to_json());
    Rep::from_json(&jsonlite::parse(&line).expect("repetition line is JSON"))
        .expect("repetition line")
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in Workload::ALL {
        let p = Params {
            scale: 0.002,
            reference: true,
            ..Params::new(w, 11, 2)
        };
        let untraced = workload::run(&p);
        let trace = dir.join(format!("trace-{}.json", w.name()));
        let traced = traced::run(&p, &trace);
        for per_layer in [false, true] {
            let o = Outcome {
                untraced: vec![sent(&untraced)],
                traced: vec![sent(&traced)],
                ..Outcome::default()
            };
            let s = summarize(per_layer, o);
            assert!(
                s.errors.is_empty(),
                "{} (per-layer: {per_layer}): {:#?}",
                w.name(),
                s.errors
            );
            let text = jsonlite::to_string(&s.result);
            assert_eq!(jsonlite::parse(&text).expect("result is JSON"), s.result);
        }
        let events = jsonlite::parse(&std::fs::read_to_string(&trace).expect("trace written"))
            .expect("trace JSON");
        let events = events
            .get("traceEvents")
            .and_then(jsonlite::Value::as_array)
            .expect("trace events");
        assert!(
            events.len() > 10,
            "{} trace has {} spans",
            w.name(),
            events.len()
        );
    }
}
