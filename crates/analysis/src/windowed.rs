//! Windowed longitudinal outputs: growth curves, per-window toxicity,
//! crossover timing, and the scorer-drift report.
//!
//! The paper is a 14-month longitudinal crawl; the longitudinal engine
//! replays it as a base study window (window 0, everything up to
//! `STUDY_END`) followed by fixed-length epochs. Every function here is
//! a pure function of a [`CrawlStore`] and the window arithmetic below,
//! which is what makes the sweep≡one-shot differential oracle possible:
//! the world is append-only in timestamp order (no backdating — bans
//! flip metadata flags and deletions leave Dissenter ghosts), so the
//! comments of window *w* in sweep *w*'s store are exactly the comments
//! of window *w* in the final store.
//!
//! The drift half models a real measurement-infrastructure failure
//! mode: when a closed scoring service is silently retrained mid-study
//! ([`ScorerVersion`]),
//! per-window tables stop being comparable. [`drift_report`] detects
//! version boundaries, rescores a fixed calibration sample under both
//! revisions, and flags windows whose deltas are large enough to change
//! conclusions.

use crate::toxicity::score_texts;
use classify::ScorerVersion;
use crawler::store::CrawlStore;
use ids::clock::format_date;
use ids::{ObjectId, Timestamp, STUDY_END};
use std::fmt::Write as _;

/// Seconds per simulated epoch (30 days).
pub const EPOCH_SECS: u64 = 30 * 86_400;

/// Default conclusion-changing threshold on a calibration-sample mean
/// delta (absolute score units).
pub const DRIFT_FLAG_THRESHOLD: f64 = 0.005;

/// First instant of epoch `e` (1-based; epoch 0 is the base study
/// window and has no start of its own).
pub fn epoch_start(e: u32) -> Timestamp {
    assert!(e >= 1, "epoch 0 is the base study window");
    STUDY_END + (e as u64 - 1) * EPOCH_SECS
}

/// One past the last instant of window `e` (window 0 ends at
/// `STUDY_END`).
pub fn epoch_end(e: u32) -> Timestamp {
    STUDY_END + e as u64 * EPOCH_SECS
}

/// Which window a timestamp falls in: 0 for the base study window,
/// `e ≥ 1` for epoch `e`.
pub fn window_of(ts: Timestamp) -> u32 {
    if ts < STUDY_END {
        0
    } else {
        (1 + (ts - STUDY_END) / EPOCH_SECS) as u32
    }
}

/// One row of the per-window growth curve (§4.1 extended past the study
/// window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowthRow {
    /// Window index (0 = base study window).
    pub window: u32,
    /// Date label of the window's end.
    pub until: String,
    /// Users whose author-id timestamp falls in this window.
    pub new_users: usize,
    /// Cumulative users through this window.
    pub total_users: usize,
    /// Comments created in this window.
    pub new_comments: usize,
    /// Cumulative comments through this window.
    pub total_comments: usize,
    /// URL threads first seen in this window.
    pub new_urls: usize,
    /// Cumulative URL threads through this window.
    pub total_urls: usize,
}

/// The growth curve over windows `0..=windows`, computed from crawl
/// output only (author-id / commenturl-id embedded timestamps and
/// scraped comment creation times — the same signals the paper used).
pub fn growth_curve(store: &CrawlStore, windows: u32) -> Vec<GrowthRow> {
    let n = windows as usize + 1;
    let (mut users, mut comments, mut urls) = (vec![0usize; n], vec![0usize; n], vec![0usize; n]);
    let clamp = |w: u32| (w.min(windows)) as usize;
    for u in store.users.values() {
        users[clamp(window_of(u.author_id.timestamp()))] += 1;
    }
    for c in store.comments.values() {
        comments[clamp(window_of(c.created_at))] += 1;
    }
    for u in store.urls.values() {
        urls[clamp(window_of(u.id.timestamp()))] += 1;
    }
    let (mut tu, mut tc, mut tl) = (0usize, 0usize, 0usize);
    (0..=windows)
        .map(|w| {
            let i = w as usize;
            tu += users[i];
            tc += comments[i];
            tl += urls[i];
            GrowthRow {
                window: w,
                until: format_date(epoch_end(w)),
                new_users: users[i],
                total_users: tu,
                new_comments: comments[i],
                total_comments: tc,
                new_urls: urls[i],
                total_urls: tl,
            }
        })
        .collect()
}

/// Toxicity summary of one window's comments under one scorer revision.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowToxicity {
    /// Window index.
    pub window: u32,
    /// Date label of the window's end.
    pub until: String,
    /// Scorer revision that produced these numbers.
    pub scorer_version: u32,
    /// Comments scored.
    pub comments: usize,
    /// Mean SEVERE_TOXICITY.
    pub mean_severe: f64,
    /// Mean LIKELY_TO_REJECT.
    pub mean_reject: f64,
    /// Mean ATTACK_ON_AUTHOR.
    pub mean_attack: f64,
}

/// Comment-ids of one window, ascending — the deterministic iteration
/// order every windowed aggregate uses.
fn window_comment_ids(store: &CrawlStore, window: u32) -> Vec<ObjectId> {
    let mut ids: Vec<ObjectId> = store
        .comments
        .values()
        .filter(|c| window_of(c.created_at) == window)
        .map(|c| c.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Score window `window`'s comments under `version` and summarize.
pub fn window_toxicity(
    store: &CrawlStore,
    window: u32,
    version: &ScorerVersion,
    pool: &httpnet::ThreadPool,
    metrics: Option<&obs::Registry>,
) -> WindowToxicity {
    let ids = window_comment_ids(store, window);
    let texts: Vec<&str> = ids.iter().map(|id| store.comments[id].text.as_str()).collect();
    let scores = score_texts(&texts, version, false, pool, metrics).scores;
    let n = scores.len();
    let (mut severe, mut reject, mut attack) = (0.0f64, 0.0f64, 0.0f64);
    for s in &scores {
        severe += s.perspective.severe_toxicity;
        reject += s.perspective.likely_to_reject;
        attack += s.perspective.attack_on_author;
    }
    let mean = |sum: f64| if n > 0 { sum / n as f64 } else { 0.0 };
    WindowToxicity {
        window,
        until: format_date(epoch_end(window)),
        scorer_version: version.version,
        comments: n,
        mean_severe: mean(severe),
        mean_reject: mean(reject),
        mean_attack: mean(attack),
    }
}

/// First window (>0) whose mean SEVERE_TOXICITY exceeds the base
/// window's — the longitudinal "crossover" instant, if any.
pub fn crossover_window(rows: &[WindowToxicity]) -> Option<u32> {
    let base = rows.first()?.mean_severe;
    rows.iter().skip(1).find(|r| r.mean_severe > base).map(|r| r.window)
}

/// One detected scorer-version boundary with its rescoring deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftWindow {
    /// Window where the new revision took effect.
    pub window: u32,
    /// Revision active in the previous window.
    pub from_version: u32,
    /// Revision active from this window on.
    pub to_version: u32,
    /// Calibration comments rescored under both revisions.
    pub calibration_n: usize,
    /// New-minus-old mean SEVERE_TOXICITY over the calibration sample.
    pub mean_severe_delta: f64,
    /// New-minus-old mean LIKELY_TO_REJECT over the calibration sample.
    pub mean_reject_delta: f64,
    /// Largest per-comment |SEVERE_TOXICITY delta| in the sample.
    pub max_abs_comment_delta: f64,
    /// Deltas exceed the conclusion-changing threshold.
    pub flagged: bool,
}

/// The rescoring-delta report across a study's version timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftReport {
    /// One entry per detected version boundary, ascending by window.
    pub boundaries: Vec<DriftWindow>,
    /// Threshold used for flagging.
    pub threshold: f64,
}

impl DriftReport {
    /// Boundaries whose deltas cross the threshold.
    pub fn flagged(&self) -> Vec<&DriftWindow> {
        self.boundaries.iter().filter(|b| b.flagged).collect()
    }
}

/// Mutation failpoint shared by this crate's simcheck smokes: `true`
/// when `SIMCHECK_MUTATE` names `name` (read once per process).
pub(crate) fn mutation(name: &str) -> bool {
    static ACTIVE: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    ACTIVE.get_or_init(|| std::env::var("SIMCHECK_MUTATE").ok()).as_deref() == Some(name)
}

/// Detect scorer-version boundaries in `versions` (one entry per window,
/// index = window) and rescore a calibration sample across each
/// boundary.
///
/// The calibration sample is the first `calibration` comment-ids
/// (ascending) of the base window — fixed text, so any score movement is
/// the scorer's doing, not the platform's. A boundary is flagged when
/// either mean delta exceeds `threshold` in absolute value: drift large
/// enough to silently change a longitudinal conclusion.
pub fn drift_report(
    store: &CrawlStore,
    versions: &[ScorerVersion],
    calibration: usize,
    threshold: f64,
    pool: &httpnet::ThreadPool,
    metrics: Option<&obs::Registry>,
) -> DriftReport {
    let mut report = DriftReport { boundaries: Vec::new(), threshold };
    let sample_ids: Vec<ObjectId> =
        window_comment_ids(store, 0).into_iter().take(calibration.max(1)).collect();
    let texts: Vec<&str> =
        sample_ids.iter().map(|id| store.comments[id].text.as_str()).collect();
    for w in 1..versions.len() {
        let (prev, cur) = (&versions[w - 1], &versions[w]);
        if prev.version == cur.version && prev.drift == cur.drift && prev.seed == cur.seed {
            continue;
        }
        if mutation("skip_drift_rescore") {
            // Failpoint: report the boundary but skip the rescoring pass,
            // leaving every delta zero — exactly the silent-drift blind
            // spot the longitudinal.drift oracle exists to catch.
            report.boundaries.push(DriftWindow {
                window: w as u32,
                from_version: prev.version,
                to_version: cur.version,
                calibration_n: texts.len(),
                mean_severe_delta: 0.0,
                mean_reject_delta: 0.0,
                max_abs_comment_delta: 0.0,
                flagged: false,
            });
            continue;
        }
        let old = score_texts(&texts, prev, false, pool, metrics).scores;
        let new = score_texts(&texts, cur, false, pool, metrics).scores;
        let n = texts.len();
        let (mut dsev, mut drej, mut dmax) = (0.0f64, 0.0f64, 0.0f64);
        for (o, s) in old.iter().zip(&new) {
            let ds = s.perspective.severe_toxicity - o.perspective.severe_toxicity;
            dsev += ds;
            drej += s.perspective.likely_to_reject - o.perspective.likely_to_reject;
            dmax = dmax.max(ds.abs());
        }
        let mean = |sum: f64| if n > 0 { sum / n as f64 } else { 0.0 };
        let (msev, mrej) = (mean(dsev), mean(drej));
        report.boundaries.push(DriftWindow {
            window: w as u32,
            from_version: prev.version,
            to_version: cur.version,
            calibration_n: n,
            mean_severe_delta: msev,
            mean_reject_delta: mrej,
            max_abs_comment_delta: dmax,
            flagged: msev.abs() > threshold || mrej.abs() > threshold,
        });
    }
    report
}

/// `growth_curve.csv` — one row per window.
pub fn growth_csv(rows: &[GrowthRow]) -> String {
    let mut s = String::from(
        "window,until,new_users,total_users,new_comments,total_comments,new_urls,total_urls\n",
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{},{}",
            r.window, r.until, r.new_users, r.total_users, r.new_comments, r.total_comments,
            r.new_urls, r.total_urls
        );
    }
    s
}

/// `window_toxicity.csv` — one row per window.
pub fn window_toxicity_csv(rows: &[WindowToxicity]) -> String {
    let mut s = String::from(
        "window,until,scorer_version,comments,mean_severe,mean_reject,mean_attack\n",
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{:.6},{:.6},{:.6}",
            r.window, r.until, r.scorer_version, r.comments, r.mean_severe, r.mean_reject,
            r.mean_attack
        );
    }
    s
}

/// `drift_report.csv` — one row per detected version boundary.
pub fn drift_csv(report: &DriftReport) -> String {
    let mut s = String::from(
        "window,from_version,to_version,calibration_n,mean_severe_delta,mean_reject_delta,max_abs_comment_delta,flagged\n",
    );
    for b in &report.boundaries {
        let _ = writeln!(
            s,
            "{},{},{},{},{:.6},{:.6},{:.6},{}",
            b.window, b.from_version, b.to_version, b.calibration_n, b.mean_severe_delta,
            b.mean_reject_delta, b.max_abs_comment_delta, b.flagged
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_arithmetic_is_consistent() {
        assert_eq!(window_of(STUDY_END - 1), 0);
        assert_eq!(window_of(STUDY_END), 1);
        assert_eq!(window_of(STUDY_END + EPOCH_SECS - 1), 1);
        assert_eq!(window_of(STUDY_END + EPOCH_SECS), 2);
        assert_eq!(epoch_start(1), STUDY_END);
        assert_eq!(epoch_end(0), STUDY_END);
        assert_eq!(epoch_end(2), epoch_start(3));
        for e in 1..5 {
            assert_eq!(window_of(epoch_start(e)), e);
            assert_eq!(window_of(epoch_end(e) - 1), e);
        }
    }

    #[test]
    fn crossover_finds_first_exceeding_window() {
        let row = |w: u32, severe: f64| WindowToxicity {
            window: w,
            until: String::new(),
            scorer_version: 0,
            comments: 1,
            mean_severe: severe,
            mean_reject: 0.0,
            mean_attack: 0.0,
        };
        let rows = vec![row(0, 0.2), row(1, 0.15), row(2, 0.25), row(3, 0.3)];
        assert_eq!(crossover_window(&rows), Some(2));
        assert_eq!(crossover_window(&rows[..2]), None);
        assert_eq!(crossover_window(&[]), None);
    }

    #[test]
    fn csv_shapes_are_stable() {
        let g = GrowthRow {
            window: 0,
            until: "2020-04-30".into(),
            new_users: 3,
            total_users: 3,
            new_comments: 9,
            total_comments: 9,
            new_urls: 2,
            total_urls: 2,
        };
        let csv = growth_csv(std::slice::from_ref(&g));
        assert!(csv.starts_with("window,until,"));
        assert!(csv.contains("0,2020-04-30,3,3,9,9,2,2\n"));
        let d = DriftReport {
            boundaries: vec![DriftWindow {
                window: 1,
                from_version: 0,
                to_version: 1,
                calibration_n: 5,
                mean_severe_delta: 0.0123456,
                mean_reject_delta: -0.01,
                max_abs_comment_delta: 0.2,
                flagged: true,
            }],
            threshold: DRIFT_FLAG_THRESHOLD,
        };
        let csv = drift_csv(&d);
        assert!(csv.contains("1,0,1,5,0.012346,-0.010000,0.200000,true\n"));
        assert_eq!(d.flagged().len(), 1);
    }
}
