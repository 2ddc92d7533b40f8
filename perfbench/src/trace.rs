//! In-memory spans around calls into the program's layers, written out
//! as Chrome trace-event JSON when the traced run ends.
//!
//! Spans nest: a span begun while another is open records it as its
//! parent. All spans of one run share one trace id.

use jsonlite::Value;
use std::time::{Duration, Instant};

struct Span {
    name: String,
    start: Duration,
    end: Option<Duration>,
    parent: Option<usize>,
}

/// Handle of an open span.
#[must_use = "a span is closed with `Tracer::end`"]
pub struct SpanId(usize);

/// Span recorder for one traced run.
pub struct Tracer {
    origin: Instant,
    trace_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(trace_id: String) -> Self {
        Self {
            origin: Instant::now(),
            trace_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: self.origin.elapsed(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close span `id` (and any span still open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = Some(now);
            if top == id.0 {
                break;
            }
        }
        (now - self.spans[id.0].start).as_secs_f64()
    }

    /// Summed duration of the closed spans without a parent, seconds.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .filter_map(|s| s.end.map(|e| (e - s.start).as_secs_f64()))
            .sum()
    }

    /// The closed spans as Chrome trace events (`ph: "X"`, microseconds),
    /// each naming its parent span and the run's trace id.
    pub fn chrome_events(&self) -> Vec<Value> {
        self.spans
            .iter()
            .filter_map(|s| {
                let end = s.end?;
                let parent = s.parent.map(|p| self.spans[p].name.as_str());
                Some(
                    Value::object()
                        .with("name", s.name.as_str())
                        .with("cat", "perfbench")
                        .with("ph", "X")
                        .with("ts", s.start.as_secs_f64() * 1e6)
                        .with("dur", (end - s.start).as_secs_f64() * 1e6)
                        .with("pid", 1u64)
                        .with("tid", 1u64)
                        .with(
                            "args",
                            Value::object()
                                .with("trace_id", self.trace_id.as_str())
                                .with("parent", parent),
                        ),
                )
            })
            .collect()
    }
}

/// A Chrome trace-event document holding `events`.
pub fn chrome_document(events: Vec<Value>) -> String {
    jsonlite::to_string(
        &Value::object()
            .with("traceEvents", events)
            .with("displayTimeUnit", "ms"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_roots_count_toward_the_top_level() {
        let mut t = Tracer::new("run-1".into());
        let root = t.begin("crawler");
        let child = t.begin("crawler.spider");
        std::thread::sleep(Duration::from_millis(2));
        let child_s = t.end(child);
        let root_s = t.end(root);
        assert!(root_s >= child_s && child_s >= 0.002);
        assert_eq!(t.top_level_s(), root_s);

        let events = t.chrome_events();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_str), Some("crawler"));
        assert_eq!(args.get("trace_id").and_then(Value::as_str), Some("run-1"));
        assert!(events[0]
            .get("args")
            .and_then(|a| a.get("parent"))
            .is_some_and(Value::is_null));
        let doc = jsonlite::parse(&chrome_document(events)).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn ending_a_parent_closes_its_open_children() {
        let mut t = Tracer::new("run-2".into());
        let root = t.begin("a");
        let _child = t.begin("b");
        t.end(root);
        assert_eq!(t.chrome_events().len(), 2, "both spans closed");
        let next = t.begin("c");
        t.end(next);
        assert!(t.chrome_events()[2]
            .get("args")
            .and_then(|a| a.get("parent"))
            .is_some_and(Value::is_null));
    }
}
