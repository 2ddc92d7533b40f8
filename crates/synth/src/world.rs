//! The end-to-end world generator (the materializing convenience wrapper).
//!
//! [`generate`] builds a complete [`platform::World`] from a
//! [`WorldConfig`]: Gab users (with the ID-counter anomalies of Fig. 2),
//! the Dissenter subset (77% joining by March 2019), Table-1 flag priors,
//! Table-2 URL/domain composition, calibrated comment text (Figs. 4, 7, 8),
//! votes conditioned on toxicity (Fig. 5), the follower graph with the
//! planted hateful core (Fig. 9, §4.5.1), the Reddit mirror (Fig. 6), the
//! YouTube state space (§4.2.2), and the Table-3 baseline corpora.
//!
//! It is a thin wrapper that drains a streaming
//! [`crate::source::WorldSource`] into one `World`; use the source
//! directly to process batches without materializing everything at once.
//! This module keeps the phenomenon knobs ([`bias_severity_mult`],
//! [`bias_attack_mult`]) and the [`GroundTruth`] the source reports.

use crate::config::WorldConfig;
use crate::source::WorldSource;
use ids::ObjectId;
use platform::World;

/// Generation-time ground truth, kept out of the [`World`] the crawler
/// sees; used by tests and the experiment harness for validation only.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Author-ids of the planted hateful-core members.
    pub core_author_ids: Vec<ObjectId>,
    /// World user indexes of Dissenter users.
    pub dissenter_indices: Vec<u32>,
    /// World user indexes of *active* (≥1 comment) Dissenter users.
    pub active_indices: Vec<u32>,
    /// Per-active-user latent toxicity heat (parallel to
    /// `active_indices`).
    pub user_heat: Vec<f64>,
}

/// Allsides-style bias classes — re-exported from the analysis crate so
/// the phenomenon generator and the measurement share one public mapping.
pub use analysis::allsides::Bias;

/// Bias of a domain (the shared Allsides mapping).
pub fn domain_bias(domain: &str) -> Bias {
    analysis::allsides::bias_of_domain(domain)
}

/// SEVERE_TOXICITY heat multiplier per bias class (Fig. 8a: center peaks,
/// right lowest).
pub fn bias_severity_mult(b: Bias) -> f64 {
    match b {
        Bias::Left => 0.95,
        Bias::LeftCenter => 1.08,
        Bias::Center => 1.30,
        Bias::RightCenter => 0.82,
        Bias::Right => 0.55,
        Bias::NotRanked => 1.0,
    }
}

/// ATTACK_ON_AUTHOR multiplier per bias class (Fig. 8b: monotone from
/// left to right).
pub fn bias_attack_mult(b: Bias) -> f64 {
    match b {
        Bias::Left => 1.8,
        Bias::LeftCenter => 1.45,
        Bias::Center => 1.15,
        Bias::RightCenter => 0.9,
        Bias::Right => 0.65,
        Bias::NotRanked => 1.0,
    }
}

/// Generate a complete world: the one collect wrapper over
/// [`WorldSource`], which it drains serially into one `World`. The
/// result is byte-identical to draining a source at any worker count
/// and batch size. Prefer the source for batch-at-a-time processing.
///
/// ```no_run
/// let (world, truth) = synth::generate(&synth::WorldConfig::small());
/// assert_eq!(truth.dissenter_indices.is_empty(), false);
/// assert!(world.dissenter.total_comments() > 0);
/// ```
pub fn generate(cfg: &WorldConfig) -> (World, GroundTruth) {
    WorldSource::new(cfg, 1).collect_world()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{paper, Scale};
    use ids::clock::from_ymd;
    use platform::{User, YtKind, YtState};

    fn small_world() -> &'static (World, GroundTruth) {
        static WORLD: std::sync::OnceLock<(World, GroundTruth)> = std::sync::OnceLock::new();
        WORLD.get_or_init(|| generate(&WorldConfig::small()))
    }

    #[test]
    fn headline_counts_scale() {
        let (w, t) = small_world();
        let cfg = WorldConfig::small();
        let n_diss = w.dissenter_user_count();
        assert!((n_diss as f64 - cfg.n(paper::DISSENTER_USERS) as f64).abs() < 5.0, "{n_diss}");
        let total = w.dissenter.total_comments();
        let want = cfg.n(paper::COMMENTS);
        assert!(
            (total as f64) > 0.9 * want as f64 && (total as f64) < 1.2 * want as f64,
            "comments {total} want ~{want}"
        );
        assert!(w.dissenter.url_count() >= cfg.n(paper::URLS), "{}", w.dissenter.url_count());
        assert_eq!(t.active_indices.len(), w.dissenter.active_author_count().max(t.active_indices.len()));
    }

    #[test]
    fn active_fraction_near_half() {
        let (w, t) = small_world();
        let frac = t.active_indices.len() as f64 / w.dissenter_user_count() as f64;
        assert!((frac - 0.47).abs() < 0.05, "{frac}");
    }

    #[test]
    fn early_join_fraction() {
        let (w, _) = small_world();
        let cutoff = from_ymd(2019, 4, 1);
        let (mut early, mut total) = (0, 0);
        for u in &w.users {
            if let Some(aid) = u.author_id {
                total += 1;
                if aid.timestamp() < cutoff {
                    early += 1;
                }
            }
        }
        let frac = early as f64 / total as f64;
        assert!((frac - 0.77).abs() < 0.05, "{frac}");
    }

    #[test]
    fn comment_concentration_matches_fig3() {
        let (w, t) = small_world();
        let counts: Vec<u64> = t
            .active_indices
            .iter()
            .map(|&i| {
                let aid = w.user(i).author_id.expect("dissenter");
                w.dissenter.comments_for_author(aid).len() as u64
            })
            .collect();
        let f = stats::ecdf::fraction_for_share(&counts, 0.9);
        assert!((0.07..0.25).contains(&f), "90% of comments from {f} of active users");
    }

    #[test]
    fn deleted_accounts_leave_orphans() {
        let (w, _) = small_world();
        let deleted: Vec<&User> = w.users.iter().filter(|u| u.gab_deleted).collect();
        assert!(!deleted.is_empty());
        for u in deleted.iter().take(5) {
            assert!(u.author_id.is_some(), "deleted accounts were Dissenter users");
            assert!(w.gab.user_by_gab_id(u.gab_id).is_none(), "gone from the Gab API");
        }
    }

    #[test]
    fn admins_exist() {
        let (w, _) = small_world();
        let admins: Vec<&User> = w.users.iter().filter(|u| u.flags.is_admin).collect();
        assert_eq!(admins.len(), 2);
        let names: Vec<&str> = admins.iter().map(|u| u.username.as_str()).collect();
        assert!(names.contains(&"a") && names.contains(&"shadowknight412"), "{names:?}");
    }

    #[test]
    fn shadow_content_rates() {
        let (w, _) = small_world();
        let total = w.dissenter.total_comments() as f64;
        let nsfw = w.dissenter.comments().iter().filter(|c| c.nsfw).count() as f64;
        let off = w.dissenter.comments().iter().filter(|c| c.offensive).count() as f64;
        assert!((nsfw / total - 0.006).abs() < 0.004, "nsfw rate {}", nsfw / total);
        assert!((off / total - 0.005).abs() < 0.004, "offensive rate {}", off / total);
    }

    #[test]
    fn url_anomalies_present() {
        let (w, _) = small_world();
        let urls = w.dissenter.urls();
        assert!(urls.iter().any(|u| u.url.starts_with("file://")));
        assert!(urls.iter().any(|u| u.url.starts_with("chrome://")));
        let https = urls.iter().filter(|u| u.url.starts_with("https://")).count() as f64;
        let frac = https / urls.len() as f64;
        assert!(frac > 0.9, "https fraction {frac}");
    }

    #[test]
    fn youtube_states_cover_reasons() {
        let (w, _) = small_world();
        let mut kinds = std::collections::HashSet::new();
        let mut unavailable = 0usize;
        let mut total = 0usize;
        for (_, c) in w.youtube.iter() {
            kinds.insert(c.kind);
            total += 1;
            if matches!(c.state, YtState::Unavailable(_)) {
                unavailable += 1;
            }
        }
        assert!(total > 100, "{total}");
        assert!(kinds.contains(&YtKind::Video));
        let frac = unavailable as f64 / total as f64;
        assert!((0.05..0.25).contains(&frac), "unavailable {frac}");
    }

    #[test]
    fn reddit_match_rate() {
        let (w, _) = small_world();
        let frac = w.reddit.account_count() as f64 / w.dissenter_user_count() as f64;
        assert!((frac - 0.56).abs() < 0.05, "{frac}");
    }

    #[test]
    fn deterministic_world() {
        let (a, _) = generate(&WorldConfig { seed: 77, ..WorldConfig::small() });
        let (b, _) = generate(&WorldConfig { seed: 77, ..WorldConfig::small() });
        assert_eq!(a.dissenter.total_comments(), b.dissenter.total_comments());
        assert_eq!(a.dissenter.comments()[0].text, b.dissenter.comments()[0].text);
        assert_eq!(a.users.len(), b.users.len());
        assert_eq!(a.users[100].username, b.users[100].username);
    }

    #[test]
    fn sharded_world_identical_for_any_worker_count() {
        let cfg = WorldConfig { scale: Scale::Custom(0.003), ..WorldConfig::small() };
        let (serial, _) = generate(&cfg);
        for workers in [2, 8] {
            let (par, _) = WorldSource::new(&cfg, workers).collect_world();
            assert_eq!(par.dissenter.total_comments(), serial.dissenter.total_comments());
            assert!(
                par.dissenter
                    .comments()
                    .iter()
                    .zip(serial.dissenter.comments())
                    .all(|(a, b)| a.text == b.text && a.id == b.id),
                "workers={workers}: comment stream diverged"
            );
            assert_eq!(par.baselines[0].comments, serial.baselines[0].comments);
            assert_eq!(par.baselines[1].comments, serial.baselines[1].comments);
        }
    }

    #[test]
    fn custom_tiny_scale_generates() {
        let cfg = WorldConfig { scale: Scale::Custom(0.004), ..WorldConfig::small() };
        let (w, t) = generate(&cfg);
        assert!(w.dissenter.total_comments() > 0);
        assert!(!t.core_author_ids.is_empty());
    }
}
