//! Run statistics: the observability registry distilled into the
//! structured summary [`run_study`](crate::run_study) attaches to every
//! [`Study`](crate::Study).
//!
//! The split follows the obs determinism contract: `phases[*]` and
//! `scorers[*].comments` come from counters and replay identically for
//! identical seeds; stage wall-clocks and throughput rates are
//! timing-derived and may differ between otherwise identical runs.

use crawler::Phase;

/// Wall-clock for one pipeline stage (from the `stage.<name>` span) or
/// one part of the report stage (from a `report.<name>` span).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTime {
    /// Stage name (`synth`, `serve`, `crawl`, `report`, `svm`) or report
    /// part (`score.dissenter`, `tlds`, …).
    pub name: String,
    /// Elapsed wall-clock, microseconds.
    pub wall_us: u64,
}

/// Coverage accounting for one crawl phase (from `crawl.<phase>.*`
/// counters; `attempted == succeeded + dead_lettered` always holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCoverage {
    /// Phase name, pipeline order.
    pub name: String,
    /// Logical fetches started.
    pub attempted: u64,
    /// Logical fetches that delivered a response.
    pub succeeded: u64,
    /// Extra wire attempts spent retrying.
    pub retried: u64,
    /// Logical fetches abandoned to the dead-letter list.
    pub dead_lettered: u64,
}

/// Throughput for one scorer (from `classify.<scorer>.*`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScorerThroughput {
    /// Scorer name (`dictionary`, `perspective`, `svm`).
    pub name: String,
    /// Comments scored (deterministic).
    pub comments: u64,
    /// Comments per second of scorer busy time (timing-derived).
    pub comments_per_sec: f64,
}

/// Scatter-gather accounting for one sharded pipeline stage (from the
/// `shard.<label>.*` metrics emitted by
/// [`httpnet::ThreadPool::scatter_labeled`] and the scoring passes).
///
/// `jobs` and `items` are deterministic *and* worker-invariant: shard
/// geometry derives from input size and a fixed shard size, never from
/// the worker count. `busy_us` is timing-derived.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Scatter label (`classify.score`, `svm.cv`, `svm.apply`).
    pub name: String,
    /// Shards executed (deterministic).
    pub jobs: u64,
    /// Items processed across shards (deterministic).
    pub items: u64,
    /// Total per-shard busy time, microseconds (timing-derived).
    pub busy_us: u64,
}

/// The run's observability summary.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Pipeline stage wall-clocks, in pipeline order.
    pub stages: Vec<StageTime>,
    /// Wall-clock of each table and scoring pass of the report stage
    /// (every `report.<name>` span), in name order. Summed, they cover
    /// the `report` stage.
    pub report_spans: Vec<StageTime>,
    /// Per-phase crawl coverage, in pipeline order.
    pub phases: Vec<PhaseCoverage>,
    /// Per-scorer classification throughput, sorted by name.
    pub scorers: Vec<ScorerThroughput>,
    /// Per-label sharded-stage accounting, sorted by name.
    pub shards: Vec<ShardStats>,
    /// Peak resident-set size over the whole run in bytes (`VmHWM`;
    /// 0 where the platform cannot measure it).
    pub peak_rss_bytes: u64,
    /// The full metric snapshot (counters, gauges, histograms).
    pub snapshot: obs::Snapshot,
    /// The structured event trace as JSON Lines.
    pub events_jsonl: String,
}

/// Pipeline stage order for [`RunStats::stages`].
const STAGE_ORDER: [&str; 5] = ["synth", "serve", "crawl", "report", "svm"];

/// Distill `registry` into a [`RunStats`].
pub fn collect(registry: &obs::Registry) -> RunStats {
    let snapshot = registry.snapshot();

    let mut stages: Vec<StageTime> = STAGE_ORDER
        .iter()
        .filter_map(|name| {
            snapshot.histogram(&format!("stage.{name}")).map(|h| StageTime {
                name: (*name).to_owned(),
                wall_us: h.sum_ns / 1_000,
            })
        })
        .collect();
    // Any stage spans outside the known pipeline, appended in name order.
    for (name, h) in &snapshot.histograms {
        if let Some(stage) = name.strip_prefix("stage.") {
            if !STAGE_ORDER.contains(&stage) {
                stages.push(StageTime { name: stage.to_owned(), wall_us: h.sum_ns / 1_000 });
            }
        }
    }

    let report_spans = snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let part = name.strip_prefix("report.")?;
            Some(StageTime { name: part.to_owned(), wall_us: h.sum_ns / 1_000 })
        })
        .collect();

    let phases = Phase::ALL
        .iter()
        .map(|p| {
            let get =
                |suffix: &str| snapshot.counter(&format!("crawl.{}.{suffix}", p.name())).unwrap_or(0);
            PhaseCoverage {
                name: p.name().to_owned(),
                attempted: get("attempted"),
                succeeded: get("succeeded"),
                retried: get("retried"),
                dead_lettered: get("dead_lettered"),
            }
        })
        .collect();

    let scorers = snapshot
        .counters_with_prefix("classify.")
        .filter_map(|(name, comments)| {
            let scorer = name.strip_prefix("classify.")?.strip_suffix(".comments")?;
            Some(ScorerThroughput {
                name: scorer.to_owned(),
                comments,
                comments_per_sec: snapshot
                    .gauge(&format!("classify.{scorer}.comments_per_sec"))
                    .unwrap_or(0.0),
            })
        })
        .collect();

    let mut shards: Vec<ShardStats> = snapshot
        .counters_with_prefix("shard.")
        .filter_map(|(name, jobs)| {
            let label = name.strip_prefix("shard.")?.strip_suffix(".jobs")?;
            Some(ShardStats {
                name: label.to_owned(),
                jobs,
                items: snapshot.counter(&format!("shard.{label}.items")).unwrap_or(0),
                busy_us: snapshot
                    .histogram(&format!("shard.{label}.busy"))
                    .map(|h| h.sum_ns / 1_000)
                    .unwrap_or(0),
            })
        })
        .collect();
    shards.sort_by(|a, b| a.name.cmp(&b.name));

    let peak_rss_bytes = snapshot.gauge("mem.peak_rss_bytes").unwrap_or(0.0) as u64;

    RunStats {
        stages,
        report_spans,
        phases,
        scorers,
        shards,
        peak_rss_bytes,
        snapshot,
        events_jsonl: registry.events_jsonl(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn collect_orders_stages_and_fills_sections() {
        let r = obs::Registry::new();
        r.histogram("stage.report").observe(Duration::from_millis(3));
        r.histogram("stage.synth").observe(Duration::from_millis(1));
        r.histogram("stage.custom").observe(Duration::from_millis(2));
        r.histogram("report.tlds").observe(Duration::from_millis(1));
        r.histogram("report.score.dissenter").observe(Duration::from_millis(2));
        r.add("crawl.probe.attempted", 10);
        r.add("crawl.probe.succeeded", 9);
        r.add("crawl.probe.dead_lettered", 1);
        r.add("classify.dictionary.comments", 40);
        r.set_gauge("classify.dictionary.comments_per_sec", 123.0);
        r.add("shard.svm.cv.jobs", 15);
        r.add("shard.classify.score.jobs", 3);
        r.add("shard.classify.score.items", 1_200);
        r.histogram("shard.classify.score.busy").observe(Duration::from_millis(2));

        let rs = collect(&r);
        let names: Vec<&str> = rs.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["synth", "report", "custom"], "pipeline order, extras last");
        let spans: Vec<(&str, u64)> =
            rs.report_spans.iter().map(|s| (s.name.as_str(), s.wall_us)).collect();
        assert_eq!(spans, vec![("score.dissenter", 2_000), ("tlds", 1_000)], "name order");
        assert_eq!(rs.phases.len(), 7, "every phase present even when idle");
        let probe = rs.phases.iter().find(|p| p.name == "probe").unwrap();
        assert_eq!(probe.attempted, probe.succeeded + probe.dead_lettered);
        assert_eq!(rs.scorers.len(), 1);
        assert_eq!(rs.scorers[0].comments, 40);
        assert_eq!(rs.scorers[0].comments_per_sec, 123.0);
        let shard_names: Vec<&str> = rs.shards.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(shard_names, vec!["classify.score", "svm.cv"], "sorted by label");
        assert_eq!(rs.shards[0].jobs, 3);
        assert_eq!(rs.shards[0].items, 1_200);
        assert_eq!(rs.shards[0].busy_us, 2_000);
        assert_eq!(rs.shards[1].items, 0, "labels without item counters read zero");
    }
}
