//! The metrics registry: named counters, gauges, and histograms.

use crate::events::{Event, EventLog};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::json;
use crate::span::Span;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A shared handle to one counter. Counters record seed-determined facts
/// and must replay identically for identical seeds.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared handle to one gauge (an `f64` last-write-wins value; gauges
/// carry timing-derived readings like items/sec and may differ between
/// otherwise identical runs).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` to the value (a total several threads contribute to,
    /// such as per-thread CPU seconds).
    pub fn add(&self, v: f64) {
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            Some((f64::from_bits(bits) + v).to_bits())
        });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Default)]
struct Maps {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

struct Inner {
    start: Instant,
    maps: Mutex<Maps>,
    events: EventLog,
}

/// The registry: a cheaply cloneable handle to one run's metrics.
#[derive(Clone)]
pub struct Registry(Arc<Inner>);

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let maps = self.0.maps.lock().unwrap_or_else(|e| e.into_inner());
        write!(
            f,
            "Registry({} counters, {} gauges, {} histograms, {} events)",
            maps.counters.len(),
            maps.gauges.len(),
            maps.histograms.len(),
            self.0.events.len()
        )
    }
}

impl Registry {
    /// An empty registry; its relative clock starts now.
    pub fn new() -> Self {
        Self(Arc::new(Inner {
            start: Instant::now(),
            maps: Mutex::new(Maps::default()),
            events: EventLog::default(),
        }))
    }

    fn maps(&self) -> std::sync::MutexGuard<'_, Maps> {
        self.0.maps.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, created on first use. Grab the handle
    /// once for hot paths; updates on the handle are lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        self.maps().counters.entry(name.to_owned()).or_default().clone()
    }

    /// Add `n` to counter `name` (cold-path convenience).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Add one to counter `name` (cold-path convenience).
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.maps().gauges.entry(name.to_owned()).or_insert_with(Gauge::new).clone()
    }

    /// Set gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.maps().histograms.entry(name.to_owned()).or_insert_with(Histogram::new).clone()
    }

    /// Record `d` into histogram `name` (cold-path convenience).
    pub fn observe(&self, name: &str, d: std::time::Duration) {
        self.histogram(name).observe(d);
    }

    /// Start a scoped wall-clock span. On [`Span::finish`] (or drop) the
    /// elapsed time lands in histogram `name` and a `span` event is
    /// appended to the log.
    pub fn span(&self, name: &str) -> Span {
        Span::start(self.clone(), name)
    }

    /// Microseconds since the registry was created (the event clock).
    pub fn elapsed_us(&self) -> u64 {
        self.0.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Append a structured event to the log.
    pub fn event(&self, name: &str, fields: &[(&str, &str)]) {
        self.0.events.push(Event {
            ts_us: self.elapsed_us(),
            name: name.to_owned(),
            fields: fields.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
        });
    }

    /// Events recorded so far (capped; see [`EventLog`](crate::Event)).
    pub fn events(&self) -> Vec<Event> {
        self.0.events.to_vec()
    }

    /// The event log rendered as JSON Lines (one event object per line).
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.0.events.to_vec() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// A plain-value copy of every metric, names sorted.
    pub fn snapshot(&self) -> Snapshot {
        let maps = self.maps();
        Snapshot {
            counters: maps.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: maps.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a registry, suitable for reporting, JSON
/// export, and cross-run comparison (compare `counters` only — gauges
/// and histograms carry wall-clock readings).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// The summary of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// All counters whose name starts with `prefix`.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// Counters that differ between two snapshots, as
    /// `(name, self_value, other_value)` sorted by name; a counter absent
    /// on one side reads 0 there. Differential testing uses this to
    /// pinpoint exactly which counters diverged between two runs that
    /// should have agreed.
    pub fn diff_counters(&self, other: &Snapshot) -> Vec<(String, u64, u64)> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.counters.len() || j < other.counters.len() {
            let (name, a, b) = match (self.counters.get(i), other.counters.get(j)) {
                (Some((ka, va)), Some((kb, vb))) => match ka.cmp(kb) {
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                        (ka.clone(), *va, *vb)
                    }
                    std::cmp::Ordering::Less => {
                        i += 1;
                        (ka.clone(), *va, 0)
                    }
                    std::cmp::Ordering::Greater => {
                        j += 1;
                        (kb.clone(), 0, *vb)
                    }
                },
                (Some((ka, va)), None) => {
                    i += 1;
                    (ka.clone(), *va, 0)
                }
                (None, Some((kb, vb))) => {
                    j += 1;
                    (kb.clone(), 0, *vb)
                }
                (None, None) => unreachable!("loop condition"),
            };
            if a != b {
                out.push((name, a, b));
            }
        }
        out
    }

    /// Render the whole snapshot as one JSON object with `counters`,
    /// `gauges`, and `histograms` sub-objects.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        push_entries(&mut s, self.counters.iter().map(|(k, v)| (k, v.to_string())));
        s.push_str("},\"gauges\":{");
        push_entries(&mut s, self.gauges.iter().map(|(k, v)| (k, json::number(*v))));
        s.push_str("},\"histograms\":{");
        push_entries(&mut s, self.histograms.iter().map(|(k, v)| (k, v.to_json())));
        s.push_str("}}");
        s
    }
}

fn push_entries<'a>(s: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json::string(k));
        s.push(':');
        s.push_str(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn diff_counters_merges_and_reports_only_changes() {
        let a = Registry::new();
        a.add("same", 5);
        a.add("changed", 1);
        a.add("only_a", 3);
        let b = Registry::new();
        b.add("same", 5);
        b.add("changed", 2);
        b.add("only_b", 4);
        let diff = a.snapshot().diff_counters(&b.snapshot());
        assert_eq!(
            diff,
            vec![
                ("changed".to_owned(), 1, 2),
                ("only_a".to_owned(), 3, 0),
                ("only_b".to_owned(), 0, 4),
            ]
        );
        assert!(a.snapshot().diff_counters(&a.snapshot()).is_empty());
    }

    #[test]
    fn counters_accumulate_and_share_handles() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(2);
        r.inc("x");
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.snapshot().counter("x"), Some(3));
        assert_eq!(r.snapshot().counter("missing"), None);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = Registry::new();
        r.set_gauge("g", 1.5);
        r.set_gauge("g", 2.5);
        assert_eq!(r.snapshot().gauge("g"), Some(2.5));
    }

    #[test]
    fn gauge_adds_from_many_threads_sum() {
        let r = Registry::new();
        let g = r.gauge("cpu_s");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..1000).for_each(|_| g.add(0.5)));
            }
        });
        assert_eq!(r.snapshot().gauge("cpu_s"), Some(2000.0));
    }

    #[test]
    fn histograms_register_and_snapshot() {
        let r = Registry::new();
        r.observe("h", Duration::from_millis(2));
        let snap = r.snapshot();
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert!(snap.histogram("nope").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.inc("z");
        r.inc("a");
        r.inc("m");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        assert_eq!(snap.counter("m"), Some(1));
    }

    #[test]
    fn prefix_query() {
        let r = Registry::new();
        r.add("crawl.probe.attempted", 4);
        r.add("crawl.spider.attempted", 2);
        r.inc("http.requests");
        let snap = r.snapshot();
        let crawl: Vec<_> = snap.counters_with_prefix("crawl.").collect();
        assert_eq!(crawl.len(), 2);
        assert_eq!(crawl.iter().map(|(_, v)| v).sum::<u64>(), 6);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let r = Registry::new();
        r.inc("c");
        r.set_gauge("g", 0.5);
        r.observe("h", Duration::from_micros(3));
        let j = r.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"counters\":{\"c\":1}"));
        assert!(j.contains("\"g\":0.5"));
        assert!(j.contains("\"histograms\":{\"h\":{"));
    }

    #[test]
    fn registry_clones_share_state() {
        let r = Registry::new();
        let r2 = r.clone();
        r2.inc("shared");
        assert_eq!(r.snapshot().counter("shared"), Some(1));
    }

    #[test]
    fn threaded_updates_are_all_counted() {
        let r = Registry::new();
        let c = r.counter("n");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
