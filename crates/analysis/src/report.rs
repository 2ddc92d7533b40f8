//! The assembled study report: every §4 table and figure from one crawl.

use crate::content::{youtube_breakdown, YoutubeBreakdown};
use crate::domains::ShareRow;
use crate::social::{analyze_social, SocialAnalysis};
use crate::toxicity::{
    figure4, figure7_dataset, figure8, score_texts, CommentScores, Figure4, Figure7Dataset,
    Figure8,
};
use crate::url::{census, UrlCensus};
use crate::users::{
    activity_concentration, gab_growth, ghost_users, joined_by, table1, ActivityConcentration,
    FlagRow, GabGrowth,
};
use crate::votes::{figure5, Figure5};
use classify::ScorerVersion;
use crawler::store::CrawlStore;
use graph::CoreCriteria;
use ids::ObjectId;
use platform::BaselineCorpus;
use std::collections::HashMap;
use textkit::langid::Lang;

/// Headline counts (§1, §4.1.1).
#[derive(Debug, Clone, Default)]
pub struct Overview {
    /// Gab accounts enumerated.
    pub gab_accounts: usize,
    /// Dissenter accounts found by the probe.
    pub dissenter_users: usize,
    /// Users discovered only through comments (deleted Gab accounts).
    pub ghost_users: usize,
    /// Users with ≥1 comment.
    pub active_users: usize,
    /// Total comments and replies.
    pub comments: usize,
    /// Distinct commented URLs.
    pub urls: usize,
    /// NSFW-labeled comments.
    pub nsfw_comments: usize,
    /// "Offensive"-labeled comments.
    pub offensive_comments: usize,
    /// Fraction of users joined by March 2019.
    pub joined_by_march_2019: f64,
    /// Shadow-label validation (sampled, confirmed).
    pub shadow_validation: (usize, usize),
}

/// Figure 6: Dissenter-vs-Reddit comment ratios.
#[derive(Debug, Clone, Default)]
pub struct CommentRatio {
    /// Ratio `d/(d+r)` per user with activity on either platform.
    pub ratios: Vec<f64>,
    /// Usernames matched on Reddit.
    pub matched_usernames: usize,
    /// Users active on at least one platform (the Fig. 6 population).
    pub active_either: usize,
    /// Fraction posting only on Dissenter (ratio = 1).
    pub dissenter_only: f64,
    /// Fraction posting only on Reddit (ratio = 0).
    pub reddit_only: f64,
}

/// Table 3 row.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Dataset name.
    pub name: String,
    /// Declared comment count (full corpus size).
    pub declared_comments: u64,
    /// Comments actually scored (subsampled corpus).
    pub scored_comments: usize,
    /// Dissenter users represented (Reddit only).
    pub dissenter_users: Option<usize>,
}

/// Everything §4 reports.
#[derive(Debug)]
pub struct StudyReport {
    /// Headline counts.
    pub overview: Overview,
    /// Fig. 2.
    pub gab_growth: GabGrowth,
    /// Fig. 3.
    pub activity: ActivityConcentration,
    /// Table 1 (population size, rows).
    pub table1: (usize, Vec<FlagRow>),
    /// Table 2 left half.
    pub tlds: Vec<ShareRow>,
    /// Table 2 right half.
    pub domains: Vec<ShareRow>,
    /// Per-domain comment-volume medians (top rows).
    pub domain_medians: Vec<(String, usize, f64)>,
    /// §4.2.1 URL anomaly census.
    pub url_census: UrlCensus,
    /// §4.2.2.
    pub youtube: YoutubeBreakdown,
    /// §4.2.3 language table.
    pub languages: Vec<(Lang, usize, f64)>,
    /// Fig. 4.
    pub figure4: Figure4,
    /// Fig. 5.
    pub figure5: Figure5,
    /// Fig. 6.
    pub comment_ratio: CommentRatio,
    /// Table 3.
    pub table3: Vec<BaselineRow>,
    /// Fig. 7 datasets (Dissenter, Reddit, NY Times, Daily Mail).
    pub figure7: Vec<Figure7Dataset>,
    /// Fig. 8.
    pub figure8: Figure8,
    /// §4.5.
    pub social: SocialAnalysis,
    /// Per-comment scores (kept for downstream consumers, e.g. the SVM
    /// application pass and ablation benches).
    pub scores: HashMap<ObjectId, CommentScores>,
}

/// How the report's table aggregations run.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Distinct resident keys per [`crate::spill`] buffer before a run
    /// is written. A table with fewer distinct keys writes no run, so
    /// the default keeps test-scale tables resident and spills only
    /// paper-scale key sets; the rows are byte-identical at every
    /// budget.
    pub spill_budget: usize,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self { spill_budget: crate::spill::DEFAULT_SPILL_BUDGET }
    }
}

impl ReportOptions {
    /// The same as [`ReportOptions::default`]: every report counts its
    /// tables through [`crate::spill`]. Kept for callers that still
    /// spell the spill path by name.
    pub fn out_of_core() -> Self {
        Self::default()
    }
}

/// Build the full report from a crawl plus the Table-3 baseline corpora.
///
/// Every scoring pass is sharded onto `pool` (see [`score_texts`] for
/// the determinism contract and the metrics exported); the Dissenter
/// pass also detects each comment's language there. The Table-2 share
/// tables, per-domain medians and the language table count through
/// [`crate::spill`] at `options.spill_budget`, adding the runs they
/// write to the `analysis.spill.runs` counter. The per-author comment
/// index and the per-user comment counts are built once and shared by
/// the tables that read them.
///
/// Each table and each scoring pass runs under its own `report.<name>`
/// span on `metrics`; together they cover the whole build.
pub fn build_report_pooled_opts(
    store: &CrawlStore,
    baselines: &[BaselineCorpus],
    pool: &httpnet::ThreadPool,
    metrics: Option<&obs::Registry>,
    options: &ReportOptions,
) -> StudyReport {
    let launch = ScorerVersion::launch(0);

    // Comments in id order: the store is a hash map, and this order
    // feeds the push-order statistics of Figs. 7 and 8.
    let (comment_ids, scores, dissenter_scores, comment_languages) =
        span(metrics, "score.dissenter", || {
            let mut comment_ids: Vec<ObjectId> = store.comments.keys().copied().collect();
            comment_ids.sort_unstable();
            let texts: Vec<&str> =
                comment_ids.iter().map(|id| store.comments[id].text.as_str()).collect();
            let scored = score_texts(&texts, &launch, true, pool, metrics);
            let perspective: Vec<classify::PerspectiveScores> =
                scored.scores.iter().map(|s| s.perspective).collect();
            let scores: HashMap<ObjectId, CommentScores> =
                comment_ids.iter().copied().zip(scored.scores).collect();
            (comment_ids, scores, perspective, scored.languages)
        });

    let (by_author, user_comment_counts) = span(metrics, "indices", || {
        (store.comments_by_author(), crate::users::comment_counts(store))
    });
    let overview = span(metrics, "overview", || {
        let ghosts = ghost_users(store).len();
        Overview {
            gab_accounts: store.gab_accounts.len(),
            dissenter_users: store.dissenter_usernames.len() + ghosts,
            ghost_users: ghosts,
            active_users: by_author.len(),
            comments: store.comments.len(),
            urls: store.urls.len(),
            nsfw_comments: store.nsfw_comments().count(),
            offensive_comments: store.offensive_comments().count(),
            joined_by_march_2019: joined_by(store, 2019, 3),
            shadow_validation: store.shadow_validation,
        }
    });

    // Fig. 6 / Table 3 Reddit side. Stores are hash maps: iterate reddit
    // matches by username (and, below, urls by id) so every derived
    // sequence is identical across runs — downstream order-insensitivity
    // is then a bonus, not a load-bearing assumption of the
    // byte-identical export contract.
    let (reddit_names, comment_ratio) = span(metrics, "comment_ratio", || {
        let mut reddit_names: Vec<&str> = store.reddit.keys().map(String::as_str).collect();
        reddit_names.sort_unstable();
        let mut ratios = Vec::new();
        let mut active_either = 0usize;
        for name in &reddit_names {
            let m = &store.reddit[*name];
            let d = user_comment_counts.get(*name).copied().unwrap_or(0) as f64;
            let r = m.total_comments as f64;
            if d + r > 0.0 {
                active_either += 1;
                ratios.push(d / (d + r));
            }
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let ratio = CommentRatio {
            matched_usernames: store.reddit.len(),
            active_either,
            dissenter_only: ratios.iter().filter(|&&r| r >= 1.0).count() as f64
                / ratios.len().max(1) as f64,
            reddit_only: ratios.iter().filter(|&&r| r <= 0.0).count() as f64
                / ratios.len().max(1) as f64,
            ratios,
        };
        (reddit_names, ratio)
    });
    let activity =
        span(metrics, "activity", || activity_concentration(store, &user_comment_counts));
    let social = span(metrics, "social", || {
        analyze_social(store, &by_author, &scores, CoreCriteria::default())
    });
    drop((by_author, user_comment_counts));

    // Fig. 7: Dissenter + Reddit (crawled texts) + the two baselines.
    let perspective_of = |texts: &[&str]| -> Vec<classify::PerspectiveScores> {
        let scored = score_texts(texts, &launch, false, pool, metrics);
        scored.scores.iter().map(|s| s.perspective).collect()
    };
    let (reddit_scores, reddit_row) = span(metrics, "score.reddit", || {
        let texts: Vec<&str> = reddit_names
            .iter()
            .flat_map(|name| store.reddit[*name].comments.iter().map(String::as_str))
            .collect();
        let row = BaselineRow {
            name: "Reddit".into(),
            declared_comments: store.reddit.values().map(|m| m.total_comments).sum(),
            scored_comments: texts.len(),
            dissenter_users: Some(
                store.reddit.values().filter(|m| m.total_comments > 0).count(),
            ),
        };
        (perspective_of(&texts), row)
    });
    let baseline_scores: Vec<Vec<classify::PerspectiveScores>> =
        span(metrics, "score.baselines", || {
            baselines
                .iter()
                .map(|corpus| {
                    let texts: Vec<&str> = corpus.comments.iter().map(String::as_str).collect();
                    perspective_of(&texts)
                })
                .collect()
        });
    let mut table3 = vec![reddit_row];
    table3.extend(baselines.iter().map(|corpus| BaselineRow {
        name: corpus.name.clone(),
        declared_comments: corpus.comments.len() as u64,
        scored_comments: corpus.comments.len(),
        dissenter_users: None,
    }));
    let figure7 = span(metrics, "figure7", || {
        let mut datasets = vec![
            figure7_dataset("Dissenter", &dissenter_scores),
            figure7_dataset("Reddit", &reddit_scores),
        ];
        datasets.extend(
            baselines.iter().zip(&baseline_scores).map(|(c, s)| figure7_dataset(&c.name, s)),
        );
        datasets
    });

    // Table 2 + languages: the only whole-corpus aggregations with
    // unbounded key sets, so they count through bounded spill buffers.
    // Spill-run I/O hits the temp dir only; failure there is
    // unrecoverable for the run.
    let budget = options.spill_budget;
    let (url_ids, url_strings, url_census) = span(metrics, "url_census", || {
        let mut url_ids: Vec<ObjectId> = store.urls.keys().copied().collect();
        url_ids.sort_unstable();
        let url_strings: Vec<&str> =
            url_ids.iter().map(|id| store.urls[id].url.as_str()).collect();
        let url_census = census(url_strings.iter().copied());
        (url_ids, url_strings, url_census)
    });
    let tlds = span(metrics, "tlds", || {
        crate::spill::tld_table_spilled(url_strings.iter().copied(), 12, budget, metrics)
    })
    .expect("spill run I/O");
    let domains = span(metrics, "domains", || {
        crate::spill::domain_table_spilled(url_strings.iter().copied(), 12, budget, metrics)
    })
    .expect("spill run I/O");
    let domain_medians = span(metrics, "domain_medians", || {
        let url_comment_counts = url_ids.iter().map(|id| {
            let u = &store.urls[id];
            (u.url.as_str(), u.declared_comment_count)
        });
        crate::spill::domain_comment_medians_spilled(url_comment_counts, 1, budget, metrics)
    })
    .expect("spill run I/O")
    .into_iter()
    .take(12)
    .collect();
    let languages = span(metrics, "languages", || {
        crate::spill::language_table_spilled(comment_languages, budget, metrics)
    })
    .expect("spill run I/O");

    let gab_growth = span(metrics, "gab_growth", || gab_growth(store));
    let table1 = span(metrics, "table1", || table1(store));
    let youtube = span(metrics, "youtube", || youtube_breakdown(store));
    let figure4 = span(metrics, "figure4", || figure4(store, &scores));
    let figure5 = span(metrics, "figure5", || figure5(store, &scores));
    let figure8 = span(metrics, "figure8", || figure8(store, &comment_ids, &scores));

    StudyReport {
        overview,
        gab_growth,
        activity,
        table1,
        tlds,
        domains,
        domain_medians,
        url_census,
        youtube,
        languages,
        figure4,
        figure5,
        comment_ratio,
        table3,
        figure7,
        figure8,
        social,
        scores,
    }
}

/// Run `f` under the span `report.<name>` on `metrics`, if any.
fn span<T>(metrics: Option<&obs::Registry>, name: &str, f: impl FnOnce() -> T) -> T {
    let _span = metrics.map(|m| m.span(&format!("report.{name}")));
    f()
}

#[cfg(test)]
mod tests {
    // `build_report_pooled_opts` is exercised end-to-end by the
    // workspace integration tests (tests/full_study.rs) against a crawled
    // world; unit coverage for each section lives in the sibling modules.
}
