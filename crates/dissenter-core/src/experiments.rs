//! The experiment index: one entry per paper artifact, mapping it to the
//! modules that implement it and the harness target that regenerates it.
//! `EXPERIMENTS.md` mirrors this table with measured results.

/// One reproducible artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Stable id (also the `repro` subcommand).
    pub id: &'static str,
    /// The paper artifact.
    pub artifact: &'static str,
    /// What the paper reports.
    pub paper_result: &'static str,
    /// Implementing modules.
    pub modules: &'static str,
    /// Criterion bench target, when one exists.
    pub bench: Option<&'static str>,
}

/// The full index.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "overview",
        artifact: "§1/§4.1.1 headline statistics",
        paper_result: "101k users, 1.68M comments, 588k URLs; 47% active; 77% joined by Mar 2019; ~1,300 deleted-Gab commenters",
        modules: "synth::world, crawler::{gab_enum,probe,spider}, analysis::users",
        bench: Some("pipeline::stages/full_report_build"),
    },
    Experiment {
        id: "fig2",
        artifact: "Figure 2 — Gab IDs vs creation date",
        paper_result: "IDs generally monotone in time with two anomaly periods",
        modules: "ids::gabid, synth::world, crawler::gab_enum, analysis::users",
        bench: Some("network::crawl_ops/gab_account_fetch_parse + pipeline::artifacts/fig2_gab_growth"),
    },
    Experiment {
        id: "fig3",
        artifact: "Figure 3 — comments per active user CDF",
        paper_result: "~90% of comments from ~14% of active users",
        modules: "synth::world, analysis::users, stats::ecdf",
        bench: Some("pipeline::artifacts/fig3_activity_concentration"),
    },
    Experiment {
        id: "table1",
        artifact: "Table 1 — user flags & view filters (n=47,165)",
        paper_result: "2 admins, 8 banned, 0 moderators; nsfw filter 15.04%, offensive 7.33%",
        modules: "platform::model, crawler::spider (hidden metadata), analysis::users",
        bench: None,
    },
    Experiment {
        id: "table2",
        artifact: "Table 2 — top TLDs and domains",
        paper_result: ".com 77.6%; youtube.com 20.75%, twitter.com 6.87%; fringe domains top median volume",
        modules: "synth::names, analysis::{url,domains}",
        bench: Some("pipeline::artifacts/table2_domain_tables"),
    },
    Experiment {
        id: "urls",
        artifact: "§4.2.1 — URL anomaly census",
        paper_result: "97% HTTPS; ~400 protocol dups; ~60 trailing-slash dups; 13 file:// URLs; chrome:// URLs",
        modules: "analysis::url",
        bench: None,
    },
    Experiment {
        id: "youtube",
        artifact: "§4.2.2 — YouTube breakdown",
        paper_result: "128k URLs: 125k video/2k channel/1k user; 109k active vs 16k unavailable; ~400 hate-policy removals; >10% comments disabled; Fox 2.4% vs CNN 0.6%",
        modules: "platform::youtube, crawler::youtube, analysis::content",
        bench: None,
    },
    Experiment {
        id: "languages",
        artifact: "§4.2.3 — comment languages",
        paper_result: "94% English, 2% German, fr/es/it < 0.5% each",
        modules: "textkit::langid, analysis::content",
        bench: Some("pipeline::artifacts/languages_table + substrates::textkit/langid_detect"),
    },
    Experiment {
        id: "fig4",
        artifact: "Figure 4 — NSFW/offensive vs all comments",
        paper_result: "offensive ≫ NSFW ≫ all; 80% of offensive score >0.95 LTR vs 25% NSFW, <20% all",
        modules: "crawler::shadow, classify::perspective, analysis::toxicity",
        bench: None,
    },
    Experiment {
        id: "fig5",
        artifact: "Figure 5 — toxicity vs net votes",
        paper_result: "zero-vote URLs most toxic; toxicity falls with |net votes|; negative > positive",
        modules: "synth::world (vote model), analysis::votes",
        bench: None,
    },
    Experiment {
        id: "fig6",
        artifact: "Table 3 + Figure 6 — Reddit overlap",
        paper_result: "56% username match; >1/3 Dissenter-only, ~20% Reddit-only",
        modules: "platform::reddit, crawler::reddit, analysis::report",
        bench: None,
    },
    Experiment {
        id: "fig7",
        artifact: "Figure 7 — four-community Perspective CDFs",
        paper_result: "Dissenter: 75% ≥0.5 LTR, 50% ≥0.75; ~20% ≥0.5 severe (2× Reddit); NYT lowest",
        modules: "synth::baselines, classify::perspective, analysis::toxicity",
        bench: Some("pipeline::artifacts/fig7_score_all_comments + classify_bench::scoring/perspective_1k_comments"),
    },
    Experiment {
        id: "fig8",
        artifact: "Figure 8 — scores by Allsides bias",
        paper_result: "severe peaks at Center, lowest at Right; attack-on-author monotone Left→Right; all pairs KS p<0.01",
        modules: "analysis::allsides, analysis::toxicity, stats::ks",
        bench: None,
    },
    Experiment {
        id: "fig9",
        artifact: "Figure 9 + §4.5.1 — social network & hateful core",
        paper_result: "power-law degrees; 15,702 isolated; popular ∩ prolific = ∅; core = 42 users, 6 components, giant 32",
        modules: "crawler::social, graph::*, analysis::social",
        bench: Some("pipeline::artifacts/fig9_social_analysis + substrates::graph/*"),
    },
    Experiment {
        id: "covert",
        artifact: "§6 extension — covert-channel detection",
        paper_result: "left as future work: fictitious-URL threads as hidden conversations",
        modules: "analysis::covert (non-web anchors, closed conversations, shadow-only threads)",
        bench: None,
    },
    Experiment {
        id: "svm",
        artifact: "§3.5.3 — SVM training & application",
        paper_result: "ADASYN + grid search + 5-fold CV → F1 = 0.87; class probabilities for all comments",
        modules: "synth::labeled, classify::{svm,adasyn,cv,metrics}",
        bench: Some("classify_bench::training/svm_train_1k_x3class + ablations::ablation_adasyn/*"),
    },
    Experiment {
        id: "runstats",
        artifact: "run statistics — stage timings, crawl coverage, scorer throughput",
        paper_result: "not a paper artifact: the observability report for the run itself",
        modules: "obs::*, dissenter_core::runstats, render::runstats",
        bench: Some("scripts/bench.sh study → bench-results/study.json"),
    },
    Experiment {
        id: "simcheck",
        artifact: "simulation testing — differential oracles, invariants, shrink-to-replay",
        paper_result: "not a paper artifact: randomized end-to-end correctness evidence for the pipeline",
        modules: "simcheck::{scenario,oracle,shrink,replay}, invariant hooks across platform/crawler/stats/classify/obs",
        bench: Some("scripts/simcheck.sh (seeded scenario sweep)"),
    },
];

/// Look up an experiment by id.
pub fn by_id(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn lookup_works() {
        assert!(by_id("fig7").is_some());
        assert!(by_id("nope").is_none());
    }

    #[test]
    fn covers_every_table_and_figure() {
        // Tables 1–3 and Figures 2–9 of the paper must all be indexed.
        for needle in ["Table 1", "Table 2", "Table 3", "Figure 2", "Figure 3", "Figure 4",
                       "Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9"] {
            assert!(
                EXPERIMENTS.iter().any(|e| e.artifact.contains(needle)),
                "{needle} missing from the experiment index"
            );
        }
    }
}
