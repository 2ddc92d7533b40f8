//! §4.1 — user-base characterization.
//!
//! Growth (via the timestamps embedded in author-ids), comment-activity
//! concentration (Fig. 3), Table 1 flag/filter aggregation from the hidden
//! metadata, ghost (deleted-Gab) accounting, and Gab-ID monotonicity
//! (Fig. 2).

use crawler::store::CrawlStore;
use ids::clock::year_month;
use std::collections::HashMap;

/// Fig. 2 series: `(gab_id, created_epoch)` in ID order, plus the
/// monotone fraction.
#[derive(Debug, Clone)]
pub struct GabGrowth {
    /// The scatter series.
    pub series: Vec<(u64, u64)>,
    /// Fraction of consecutive ID pairs with non-decreasing creation time.
    pub monotone_fraction: f64,
}

/// Build the Fig. 2 series from the enumeration.
pub fn gab_growth(store: &CrawlStore) -> GabGrowth {
    let series: Vec<(u64, u64)> =
        store.gab_accounts.iter().map(|a| (a.gab_id, a.created_epoch)).collect();
    let monotone_fraction =
        ids::gabid::monotone_fraction(series.iter().map(|&(i, t)| (i, t)).collect());
    GabGrowth { series, monotone_fraction }
}

/// Fraction of discovered users who joined on or before `(year, month)`.
pub fn joined_by(store: &CrawlStore, year: i64, month: u32) -> f64 {
    let total = store.users.len().max(1);
    let early = store
        .users
        .values()
        .filter(|u| year_month(u.author_id.timestamp()) <= (year, month))
        .count();
    early as f64 / total as f64
}

/// Per-user comment counts (active users only), username-keyed.
pub fn comment_counts(store: &CrawlStore) -> HashMap<String, u64> {
    let mut by_author: HashMap<ids::ObjectId, u64> = HashMap::new();
    for c in store.comments.values() {
        *by_author.entry(c.author_id).or_insert(0) += 1;
    }
    store
        .users
        .values()
        .filter_map(|u| by_author.get(&u.author_id).map(|&n| (u.username.clone(), n)))
        .collect()
}

/// Fig. 3: concentration curve plus the headline "x% of active users make
/// 90% of comments" figure.
#[derive(Debug, Clone)]
pub struct ActivityConcentration {
    /// `(user_fraction, comment_fraction)` curve (descending activity).
    pub curve: Vec<(f64, f64)>,
    /// Smallest user fraction producing 90% of comments.
    pub user_fraction_for_90pct: f64,
    /// Number of active users.
    pub active_users: usize,
    /// Total users discovered.
    pub total_users: usize,
}

/// Compute Fig. 3 from the per-user comment counts of
/// [`comment_counts`].
pub fn activity_concentration(
    store: &CrawlStore,
    comment_counts: &HashMap<String, u64>,
) -> ActivityConcentration {
    let counts: Vec<u64> = comment_counts.values().copied().collect();
    ActivityConcentration {
        curve: stats::ecdf::concentration_curve(&counts, 100),
        user_fraction_for_90pct: stats::ecdf::fraction_for_share(&counts, 0.9),
        active_users: counts.len(),
        total_users: store.users.len() + inactive_probe_only(store),
    }
}

fn inactive_probe_only(store: &CrawlStore) -> usize {
    // Users found by the probe but never seen commenting (they appear in
    // dissenter_usernames but have no comments → not in the active set).
    store
        .dissenter_usernames
        .iter()
        .filter(|n| !store.users.contains_key(*n))
        .count()
}

/// One Table-1 row: label plus count and percentage over users with
/// metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FlagRow {
    /// Flag name as printed in Table 1.
    pub name: &'static str,
    /// Users with the flag set.
    pub count: usize,
    /// Percentage over the metadata population.
    pub percent: f64,
}

/// Table 1: user flags and view filters over users with hidden metadata
/// (= active users).
pub fn table1(store: &CrawlStore) -> (usize, Vec<FlagRow>) {
    let metas: Vec<&crawler::store::HiddenMeta> =
        store.users.values().filter_map(|u| u.meta.as_ref()).collect();
    let n = metas.len();
    let row = |name: &'static str, pred: &dyn Fn(&crawler::store::HiddenMeta) -> bool| {
        let count = metas.iter().filter(|m| pred(m)).count();
        FlagRow { name, count, percent: 100.0 * count as f64 / n.max(1) as f64 }
    };
    let rows = vec![
        row("canLogin", &|m| m.can_login),
        row("canPost", &|m| m.can_post),
        row("canReport", &|m| m.can_report),
        row("canChat", &|m| m.can_chat),
        row("canVote", &|m| m.can_vote),
        row("isBanned", &|m| m.is_banned),
        row("isAdmin", &|m| m.is_admin),
        row("isModerator", &|m| m.is_moderator),
        row("is pro", &|m| m.is_pro),
        row("is donor", &|m| m.is_donor),
        row("is investor", &|m| m.is_investor),
        row("is premium", &|m| m.is_premium),
        row("is tippable", &|m| m.is_tippable),
        row("is private", &|m| m.is_private),
        row("verified", &|m| m.verified),
        row("filter: pro", &|m| m.filter_pro),
        row("filter: verified", &|m| m.filter_verified),
        row("filter: standard", &|m| m.filter_standard),
        row("filter: nsfw", &|m| m.filter_nsfw),
        row("filter: offensive", &|m| m.filter_offensive),
    ];
    (n, rows)
}

/// Ghost users: crawled (they commented) but absent from the probe list —
/// their Gab accounts were deleted (§4.1.1 found ~1,300).
pub fn ghost_users(store: &CrawlStore) -> Vec<&str> {
    let probed: std::collections::HashSet<&str> =
        store.dissenter_usernames.iter().map(String::as_str).collect();
    let mut out: Vec<&str> = store
        .users
        .keys()
        .map(String::as_str)
        .filter(|n| !probed.contains(*n))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::store::{CrawledComment, CrawledUser, HiddenMeta, ShadowLabel};
    use ids::{EntityKind, ObjectIdGen};

    fn store_with_users() -> CrawlStore {
        let mut store = CrawlStore::default();
        let mut ag = ObjectIdGen::new(EntityKind::Author, 0);
        let mut cg = ObjectIdGen::new(EntityKind::Comment, 1);
        let mut ug = ObjectIdGen::new(EntityKind::CommentUrl, 2);
        let url_id = ug.next(1_551_200_000);
        for (i, name) in ["alice", "bob", "carol"].iter().enumerate() {
            let author_id = ag.next(1_551_200_000 + i as u64 * 40 * 86_400);
            store.users.insert(
                name.to_string(),
                CrawledUser {
                    username: name.to_string(),
                    author_id,
                    display_name: String::new(),
                    bio: String::new(),
                    url_ids: vec![],
                    meta: Some(HiddenMeta {
                        language: "en".into(),
                        can_login: true,
                        is_pro: i == 0,
                        filter_nsfw: i < 2,
                        ..Default::default()
                    }),
                },
            );
            store.dissenter_usernames.push(name.to_string());
            // alice: 8 comments, bob: 1, carol: 1.
            let n = if i == 0 { 8 } else { 1 };
            for _ in 0..n {
                let id = cg.next(1_552_000_000);
                store.comments.insert(
                    id,
                    CrawledComment {
                        id,
                        url_id,
                        author_id,
                        parent: None,
                        text: "x".into(),
                        created_at: 1_552_000_000,
                        label: ShadowLabel::Standard,
                    },
                );
            }
        }
        store
    }

    #[test]
    fn concentration_identifies_whale() {
        let store = store_with_users();
        let a = activity_concentration(&store, &comment_counts(&store));
        assert_eq!(a.active_users, 3);
        // Alice (1/3 of users) produces 80% — 90% needs 2/3 of users.
        assert!((a.user_fraction_for_90pct - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn table1_counts_flags() {
        let store = store_with_users();
        let (n, rows) = table1(&store);
        assert_eq!(n, 3);
        let pro = rows.iter().find(|r| r.name == "is pro").unwrap();
        assert_eq!(pro.count, 1);
        let nsfw = rows.iter().find(|r| r.name == "filter: nsfw").unwrap();
        assert_eq!(nsfw.count, 2);
        assert!((nsfw.percent - 66.666).abs() < 0.01);
    }

    #[test]
    fn ghost_detection() {
        let mut store = store_with_users();
        // dave commented but was never probed.
        let mut ag = ObjectIdGen::new(EntityKind::Author, 9);
        store.users.insert(
            "dave".into(),
            CrawledUser {
                username: "dave".into(),
                author_id: ag.next(1_553_000_000),
                display_name: String::new(),
                bio: String::new(),
                url_ids: vec![],
                meta: None,
            },
        );
        assert_eq!(ghost_users(&store), vec!["dave"]);
    }

    #[test]
    fn joined_by_fraction() {
        let store = store_with_users();
        // All three joined by mid-2019.
        assert_eq!(joined_by(&store, 2019, 12), 1.0);
        assert!(joined_by(&store, 2019, 3) < 1.0);
    }
}
