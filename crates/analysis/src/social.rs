//! §4.5 — the Dissenter social network.
//!
//! Builds the directed follow graph over commenting users from the crawled
//! Gab-proxy edges, then computes Figure 9 (degree scatter, toxicity vs
//! degree), power-law fits, PageRank, the prolific-vs-popular disjointness
//! observation, and the hateful core.

use crate::toxicity::CommentScores;
use crawler::store::{CrawlStore, CrawledComment};
use graph::{extract_hateful_core, pagerank, CoreCriteria, DiGraph, HatefulCore};
use ids::ObjectId;
use stats::{fit_power_law, log_bins, PowerLawFit};
use std::collections::HashMap;

/// The assembled social-network analysis.
#[derive(Debug)]
pub struct SocialAnalysis {
    /// The graph over commenting users.
    pub graph: DiGraph,
    /// Node → author-id mapping.
    pub authors: Vec<ObjectId>,
    /// Users in the network (paper: 45,524).
    pub users: usize,
    /// Users with no edges at all (paper: 15,702).
    pub isolated: usize,
    /// In-degree power-law fit.
    pub in_fit: Option<PowerLawFit>,
    /// Out-degree power-law fit.
    pub out_fit: Option<PowerLawFit>,
    /// Top-3 follower counts (paper: 10,705 / 9,588 / 8,183 at full scale).
    pub top_in_degrees: Vec<usize>,
    /// Top-3 following counts.
    pub top_out_degrees: Vec<usize>,
    /// Figure 9a scatter: `(in_degree, out_degree)` per node.
    pub degree_scatter: Vec<(u64, u64)>,
    /// Spearman ρ between in- and out-degree over connected nodes — the
    /// paper's "the number of Dissenters each user follows is proportional
    /// to the number of followers".
    pub degree_spearman: Option<f64>,
    /// Figure 9b: toxicity (mean, median) per follower-count decade.
    pub toxicity_by_followers: Vec<(Option<u32>, f64, f64)>,
    /// Figure 9c: toxicity (mean, median) per following-count decade.
    pub toxicity_by_following: Vec<(Option<u32>, f64, f64)>,
    /// Overlap between top-10 in-degree users and top-10 commenters
    /// (paper: none).
    pub popular_prolific_overlap: usize,
    /// The extracted hateful core.
    pub core: HatefulCore,
    /// PageRank of every node.
    pub pagerank: Vec<f64>,
}

/// Build the full §4.5 analysis. `by_author` is the store's
/// [`CrawlStore::comments_by_author`] index.
pub fn analyze_social(
    store: &CrawlStore,
    by_author: &HashMap<ObjectId, Vec<&CrawledComment>>,
    scores: &HashMap<ObjectId, CommentScores>,
    criteria: CoreCriteria,
) -> SocialAnalysis {
    // Nodes: authors with ≥1 comment or reply.
    let mut authors: Vec<ObjectId> = by_author.keys().copied().collect();
    authors.sort();
    let index: HashMap<ObjectId, u32> =
        authors.iter().enumerate().map(|(i, &a)| (a, i as u32)).collect();

    let mut g = DiGraph::with_nodes(authors.len());
    for &(from, to) in &store.follow_edges {
        if let (Some(&f), Some(&t)) = (index.get(&from), index.get(&to)) {
            g.add_edge(f, t);
        }
    }

    // Per-node comment counts and median toxicity.
    let mut counts = vec![0u64; authors.len()];
    let mut med_tox = vec![f64::NAN; authors.len()];
    let mut mean_tox = vec![f64::NAN; authors.len()];
    for (i, a) in authors.iter().enumerate() {
        let comments = &by_author[a];
        counts[i] = comments.len() as u64;
        let sev: Vec<f64> = comments
            .iter()
            .filter_map(|c| scores.get(&c.id).map(|s| s.perspective.severe_toxicity))
            .collect();
        if !sev.is_empty() {
            med_tox[i] = stats::median(&sev).expect("non-empty");
            mean_tox[i] = stats::mean(&sev).expect("non-empty");
        }
    }

    let in_degrees = g.in_degrees();
    let out_degrees = g.out_degrees();
    let isolated = g.isolated_nodes().len();
    let degree_scatter: Vec<(u64, u64)> =
        in_degrees.iter().zip(&out_degrees).map(|(&i, &o)| (i, o)).collect();

    let connected: Vec<(f64, f64)> = degree_scatter
        .iter()
        .filter(|&&(i, o)| i > 0 || o > 0)
        .map(|&(i, o)| (i as f64, o as f64))
        .collect();
    let degree_spearman = stats::spearman(
        &connected.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        &connected.iter().map(|&(_, o)| o).collect::<Vec<_>>(),
    );

    let positive = |xs: &[u64]| xs.iter().filter(|&&d| d > 0).map(|&d| d as f64).collect::<Vec<_>>();
    let in_fit = fit_power_law(&positive(&in_degrees), 1.0);
    let out_fit = fit_power_law(&positive(&out_degrees), 1.0);

    let top = |xs: &[u64]| {
        let mut v: Vec<usize> = xs.iter().map(|&d| d as usize).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v.truncate(3);
        v
    };

    // Fig 9b/9c: toxicity by degree decade (log10 bins; degree 0 = None).
    let tox_by = |degrees: &[u64]| {
        let pairs: Vec<(u64, f64)> = degrees
            .iter()
            .zip(&med_tox)
            .filter(|(_, &t)| !t.is_nan())
            .map(|(&d, &t)| (d, t))
            .collect();
        log_bins(&pairs, 10.0)
            .into_iter()
            .map(|(bin, vals)| {
                let mean = stats::mean(&vals).unwrap_or(0.0);
                let median = stats::median(&vals).unwrap_or(0.0);
                (bin, mean, median)
            })
            .collect::<Vec<_>>()
    };

    // Popular vs prolific overlap.
    let mut by_in: Vec<u32> = (0..authors.len() as u32).collect();
    by_in.sort_by_key(|&v| std::cmp::Reverse(in_degrees[v as usize]));
    let mut by_count: Vec<u32> = (0..authors.len() as u32).collect();
    by_count.sort_by_key(|&v| std::cmp::Reverse(counts[v as usize]));
    let top_in: std::collections::HashSet<u32> = by_in.iter().take(10).copied().collect();
    let popular_prolific_overlap =
        by_count.iter().take(10).filter(|v| top_in.contains(v)).count();

    let core = extract_hateful_core(&g, &counts, &med_tox, criteria);
    let pr = pagerank(&g, 0.85, 1e-9, 100);

    SocialAnalysis {
        users: authors.len(),
        isolated,
        in_fit,
        out_fit,
        top_in_degrees: top(&in_degrees),
        top_out_degrees: top(&out_degrees),
        degree_scatter,
        degree_spearman,
        toxicity_by_followers: tox_by(&in_degrees),
        toxicity_by_following: tox_by(&out_degrees),
        popular_prolific_overlap,
        core,
        pagerank: pr,
        graph: g,
        authors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classify::PerspectiveScores;
    use crawler::store::{CrawledComment, ShadowLabel};
    use ids::{EntityKind, ObjectIdGen};

    /// Tiny store: 4 authors; a & b are a toxic mutual pair with ≥ 3
    /// comments each; c follows a one-way; d is isolated.
    fn store_and_scores() -> (CrawlStore, HashMap<ObjectId, CommentScores>) {
        let mut store = CrawlStore::default();
        let mut scores = HashMap::new();
        let mut ag = ObjectIdGen::new(EntityKind::Author, 0);
        let mut cg = ObjectIdGen::new(EntityKind::Comment, 1);
        let authors: Vec<ObjectId> = (0..4).map(|_| ag.next(5)).collect();
        let toxicity = [0.8, 0.7, 0.1, 0.05];
        for (a, &tox) in authors.iter().zip(&toxicity) {
            for _ in 0..3 {
                let id = cg.next(6);
                store.comments.insert(
                    id,
                    CrawledComment {
                        id,
                        url_id: cg.next(7),
                        author_id: *a,
                        parent: None,
                        text: String::new(),
                        created_at: 6,
                        label: ShadowLabel::Standard,
                    },
                );
                scores.insert(
                    id,
                    CommentScores {
                        perspective: PerspectiveScores { severe_toxicity: tox, ..Default::default() },
                        dictionary: 0.0,
                    },
                );
            }
        }
        store.follow_edges = vec![
            (authors[0], authors[1]),
            (authors[1], authors[0]),
            (authors[2], authors[0]),
        ];
        (store, scores)
    }

    #[test]
    fn core_is_the_toxic_mutual_pair() {
        let (store, scores) = store_and_scores();
        let crit = CoreCriteria { min_comments: 3, min_median_toxicity: 0.3 };
        let a = analyze_social(&store, &store.comments_by_author(), &scores, crit);
        assert_eq!(a.users, 4);
        assert_eq!(a.isolated, 1);
        assert_eq!(a.core.size(), 2);
        assert_eq!(a.core.components.count(), 1);
    }

    #[test]
    fn degree_scatter_covers_all_nodes() {
        let (store, scores) = store_and_scores();
        let by_author = store.comments_by_author();
        let a = analyze_social(&store, &by_author, &scores, CoreCriteria::default());
        assert_eq!(a.degree_scatter.len(), 4);
        let max_in = a.degree_scatter.iter().map(|&(i, _)| i).max().unwrap();
        assert_eq!(max_in, 2, "author 0 has two followers");
        assert_eq!(a.top_in_degrees[0], 2);
    }

    #[test]
    fn toxicity_bins_have_zero_degree_bucket() {
        let (store, scores) = store_and_scores();
        let by_author = store.comments_by_author();
        let a = analyze_social(&store, &by_author, &scores, CoreCriteria::default());
        assert!(a.toxicity_by_followers.iter().any(|(b, _, _)| b.is_none()));
    }

    #[test]
    fn pagerank_covers_graph() {
        let (store, scores) = store_and_scores();
        let by_author = store.comments_by_author();
        let a = analyze_social(&store, &by_author, &scores, CoreCriteria::default());
        assert_eq!(a.pagerank.len(), 4);
        assert!((a.pagerank.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }
}
