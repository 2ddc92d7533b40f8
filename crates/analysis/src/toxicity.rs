//! §§4.3–4.4 — toxicity scoring and distribution comparisons.
//!
//! All comments (Dissenter + baselines) are scored with the full §3.5
//! stack: the hate dictionary, the four Perspective-style models, and —
//! via [`crate::report`] — the SVM class probabilities. This module owns
//! the scoring pass and the Figure 4 / 7 / 8 aggregations.

use crate::allsides::{bias_of_domain, Bias};
use crate::url::ParsedUrl;
use classify::{HateDictionary, PerspectiveModel, PerspectiveScores, ScorerVersion};
use crawler::store::{CrawlStore, ShadowLabel};
use ids::ObjectId;
use stats::{ks_two_sample_sketch, EcdfSketch, KsResult};
use std::collections::HashMap;

/// Scores for one comment.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommentScores {
    /// Perspective-style model outputs.
    pub perspective: PerspectiveScores,
    /// Dictionary hate ratio.
    pub dictionary: f64,
}

/// Score a batch of texts under `version` on a shared
/// [`httpnet::ThreadPool`], split into fixed-size index-ordered shards
/// and merged in shard order — byte-identical output for any pool size
/// (scoring is a pure function of the text). The launch revision
/// ([`ScorerVersion::launch`]) is the standard model; the windowed
/// longitudinal analysis passes drifted revisions to reproduce
/// mid-study scorer retraining.
///
/// Exports per-scorer throughput to `metrics`:
/// `classify.<scorer>.comments` counters (text counts, deterministic),
/// `classify.<scorer>.busy` histograms (per-shard scorer busy time),
/// `classify.<scorer>.comments_per_sec` gauges (per-core rate: comments
/// over summed cross-shard busy time), plus `shard.classify.score.*`
/// shard execution metrics (deterministic `jobs`/`items` counts,
/// wall-clock `busy`/`gather` histograms).
pub fn score_texts(
    texts: &[&str],
    version: &ScorerVersion,
    pool: &httpnet::ThreadPool,
    metrics: Option<&obs::Registry>,
) -> Vec<CommentScores> {
    use std::time::{Duration, Instant};
    let version = *version;
    let bounds = classify::shard::shard_bounds(texts.len(), classify::shard::DEFAULT_SHARD_SIZE);
    // (scores, perspective busy, dictionary busy) per shard.
    let jobs: Vec<_> = bounds
        .iter()
        .map(|r| {
            let shard: Vec<String> = texts[r.clone()].iter().map(|t| (*t).to_owned()).collect();
            move || {
                let model = PerspectiveModel::versioned(&version);
                let dict = HateDictionary::standard();
                let mut persp_busy = Duration::ZERO;
                let mut dict_busy = Duration::ZERO;
                let scores = shard
                    .iter()
                    .map(|t| {
                        let t0 = Instant::now();
                        let perspective = model.score(t);
                        let t1 = Instant::now();
                        let dictionary = dict.score(t);
                        persp_busy += t1 - t0;
                        dict_busy += t1.elapsed();
                        CommentScores { perspective, dictionary }
                    })
                    .collect::<Vec<_>>();
                (scores, persp_busy, dict_busy)
            }
        })
        .collect();
    let out = pool.scatter_labeled("classify.score", metrics, jobs);
    if let Some(registry) = metrics {
        let n = texts.len() as u64;
        registry.add("shard.classify.score.items", n);
        let persp_total: Duration = out.iter().map(|(_, p, _)| *p).sum();
        let dict_total: Duration = out.iter().map(|(_, _, d)| *d).sum();
        for (scorer, busy) in [("perspective", persp_total), ("dictionary", dict_total)] {
            registry.add(&format!("classify.{scorer}.comments"), n);
            registry.observe(&format!("classify.{scorer}.busy"), busy);
            if busy > Duration::ZERO {
                // Cumulative per-core rate across every scoring pass so
                // far in this registry's lifetime.
                let comments = registry.counter(&format!("classify.{scorer}.comments")).get();
                let busy_total = registry
                    .histogram(&format!("classify.{scorer}.busy"))
                    .snapshot()
                    .sum_ns as f64
                    / 1e9;
                registry.set_gauge(
                    &format!("classify.{scorer}.comments_per_sec"),
                    comments as f64 / busy_total,
                );
            }
        }
    }
    out.into_iter().flat_map(|(scores, _, _)| scores).collect()
}

/// One Figure-4 style dataset: streaming ECDF sketches of the three
/// §4.3.1 models for a comment subset. Sketch statistics are
/// bit-identical to the vector-backed [`stats::Ecdf`] they replaced
/// (see `stats::stream`), so every rendered byte is unchanged.
#[derive(Debug, Clone, Default)]
pub struct ShadowCdfs {
    /// LIKELY_TO_REJECT ECDF sketch.
    pub likely_to_reject: EcdfSketch,
    /// OBSCENE ECDF sketch.
    pub obscene: EcdfSketch,
    /// SEVERE_TOXICITY ECDF sketch.
    pub severe_toxicity: EcdfSketch,
    /// Sample size.
    pub n: usize,
}

impl ShadowCdfs {
    fn push(&mut self, s: &PerspectiveScores) {
        self.likely_to_reject.push(s.likely_to_reject);
        self.obscene.push(s.obscene);
        self.severe_toxicity.push(s.severe_toxicity);
        self.n += 1;
    }
}

/// Figure 4: All vs NSFW-only vs Offensive-only.
#[derive(Debug, Clone)]
pub struct Figure4 {
    /// All comments.
    pub all: ShadowCdfs,
    /// NSFW-labeled comments.
    pub nsfw: ShadowCdfs,
    /// Offensive-labeled comments.
    pub offensive: ShadowCdfs,
}

/// Compute Figure 4 from pre-computed scores.
pub fn figure4(store: &CrawlStore, scores: &HashMap<ObjectId, CommentScores>) -> Figure4 {
    let mut all = ShadowCdfs::default();
    let mut nsfw = ShadowCdfs::default();
    let mut off = ShadowCdfs::default();
    for c in store.comments.values() {
        let Some(s) = scores.get(&c.id) else { continue };
        all.push(&s.perspective);
        match c.label {
            ShadowLabel::Nsfw => nsfw.push(&s.perspective),
            ShadowLabel::Offensive => off.push(&s.perspective),
            ShadowLabel::Both => {
                nsfw.push(&s.perspective);
                off.push(&s.perspective);
            }
            ShadowLabel::Standard => {}
        }
    }
    Figure4 { all, nsfw, offensive: off }
}

/// Figure 7: the four-dataset comparison. Datasets are scored score
/// vectors for each model.
#[derive(Debug, Clone)]
pub struct Figure7Dataset {
    /// Dataset name.
    pub name: String,
    /// LIKELY_TO_REJECT ECDF sketch.
    pub likely_to_reject: EcdfSketch,
    /// SEVERE_TOXICITY ECDF sketch.
    pub severe_toxicity: EcdfSketch,
    /// ATTACK_ON_AUTHOR ECDF sketch.
    pub attack_on_author: EcdfSketch,
    /// Comments scored.
    pub n: usize,
}

/// Build one Figure-7 dataset from raw scores.
pub fn figure7_dataset(name: &str, scores: &[PerspectiveScores]) -> Figure7Dataset {
    let mut d = Figure7Dataset {
        name: name.to_owned(),
        likely_to_reject: EcdfSketch::new(),
        severe_toxicity: EcdfSketch::new(),
        attack_on_author: EcdfSketch::new(),
        n: scores.len(),
    };
    for s in scores {
        d.likely_to_reject.push(s.likely_to_reject);
        d.severe_toxicity.push(s.severe_toxicity);
        d.attack_on_author.push(s.attack_on_author);
    }
    d
}

/// Figure 8: Dissenter scores conditioned on the URL's Allsides bias.
#[derive(Debug, Clone)]
pub struct Figure8 {
    /// Per-bias SEVERE_TOXICITY sketches (Fig. 8a's boxes render the
    /// sketch's `n`/`mean`/`median`, which match the old
    /// `stats::Describe` fields bit for bit).
    pub severe_by_bias: Vec<(Bias, EcdfSketch)>,
    /// Per-bias ATTACK_ON_AUTHOR ECDF sketches (Fig. 8b).
    pub attack_by_bias: Vec<(Bias, EcdfSketch)>,
    /// Pairwise KS tests on SEVERE_TOXICITY across ranked biases.
    pub ks_severe: Vec<(Bias, Bias, KsResult)>,
    /// Comments on unranked URLs.
    pub unranked_comments: usize,
    /// Comments on ranked URLs.
    pub ranked_comments: usize,
}

/// Compute Figure 8 from pre-computed scores.
pub fn figure8(store: &CrawlStore, scores: &HashMap<ObjectId, CommentScores>) -> Figure8 {
    // URL id → bias.
    let bias_of_url: HashMap<ObjectId, Bias> = store
        .urls
        .iter()
        .map(|(&id, u)| {
            let bias = ParsedUrl::parse(&u.url)
                .filter(|p| !p.host.is_empty())
                .map(|p| bias_of_domain(&p.domain()))
                .unwrap_or(Bias::NotRanked);
            (id, bias)
        })
        .collect();
    let mut severe: HashMap<Bias, EcdfSketch> = HashMap::new();
    let mut attack: HashMap<Bias, EcdfSketch> = HashMap::new();
    let mut unranked = 0usize;
    let mut ranked = 0usize;
    // Comments in id order: the store is a hash map, so without this the
    // per-bias push order (and the push-order f64 mean the sketch keeps)
    // would vary run to run and break the byte-identical export contract.
    let mut comment_ids: Vec<ObjectId> = store.comments.keys().copied().collect();
    comment_ids.sort_unstable();
    for id in comment_ids {
        let c = &store.comments[&id];
        let Some(s) = scores.get(&c.id) else { continue };
        let bias = bias_of_url.get(&c.url_id).copied().unwrap_or(Bias::NotRanked);
        if bias == Bias::NotRanked {
            unranked += 1;
        } else {
            ranked += 1;
        }
        severe.entry(bias).or_default().push(s.perspective.severe_toxicity);
        attack.entry(bias).or_default().push(s.perspective.attack_on_author);
    }
    let severe_by_bias: Vec<(Bias, EcdfSketch)> = Bias::ALL
        .iter()
        .filter_map(|&b| severe.get(&b).map(|s| (b, s.clone())))
        .collect();
    let attack_by_bias: Vec<(Bias, EcdfSketch)> = Bias::ALL
        .iter()
        .filter_map(|&b| attack.get(&b).map(|s| (b, s.clone())))
        .collect();
    let ranked_biases: Vec<Bias> = Bias::ALL.into_iter().filter(|&b| b != Bias::NotRanked).collect();
    let mut ks_severe = Vec::new();
    for (i, &a) in ranked_biases.iter().enumerate() {
        for &b in &ranked_biases[i + 1..] {
            if let (Some(va), Some(vb)) = (severe.get(&a), severe.get(&b)) {
                if !va.is_empty() && !vb.is_empty() {
                    ks_severe.push((a, b, ks_two_sample_sketch(va, vb)));
                }
            }
        }
    }
    Figure8 {
        severe_by_bias,
        attack_by_bias,
        ks_severe,
        unranked_comments: unranked,
        ranked_comments: ranked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_texts_parallel_matches_serial() {
        let texts: Vec<String> = (0..100)
            .map(|i| format!("comment number {i} about the news and the media today"))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let launch = ScorerVersion::launch(0);
        let par = score_texts(&refs, &launch, &httpnet::ThreadPool::new(4, 8), None);
        let ser = score_texts(&refs, &launch, &httpnet::ThreadPool::new(1, 2), None);
        assert_eq!(par.len(), ser.len());
        for (a, b) in par.iter().zip(&ser) {
            assert_eq!(a.perspective.severe_toxicity, b.perspective.severe_toxicity);
            assert_eq!(a.dictionary, b.dictionary);
        }
    }

    #[test]
    fn figure7_dataset_shapes() {
        let scores = vec![
            PerspectiveScores { severe_toxicity: 0.1, likely_to_reject: 0.2, obscene: 0.0, attack_on_author: 0.0 },
            PerspectiveScores { severe_toxicity: 0.9, likely_to_reject: 0.95, obscene: 0.1, attack_on_author: 0.2 },
        ];
        let d = figure7_dataset("Test", &scores);
        assert_eq!(d.n, 2);
        assert_eq!(d.severe_toxicity.eval(0.5), 0.5);
        assert_eq!(d.likely_to_reject.eval(0.99), 1.0);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let pool = httpnet::ThreadPool::new(4, 8);
        assert!(score_texts(&[], &ScorerVersion::launch(0), &pool, None).is_empty());
        let d = figure7_dataset("Empty", &[]);
        assert_eq!(d.n, 0);
    }
}
