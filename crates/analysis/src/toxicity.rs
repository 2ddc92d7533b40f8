//! §§4.3–4.4 — toxicity scoring and distribution comparisons.
//!
//! All comments (Dissenter + baselines) are scored with the full §3.5
//! stack: the hate dictionary, the four Perspective-style models, and —
//! via [`crate::report`] — the SVM class probabilities. This module owns
//! the scoring pass and the Figure 4 / 7 / 8 aggregations.

use crate::allsides::{bias_of_domain, Bias};
use crate::url::ParsedUrl;
use classify::{PerspectiveModel, PerspectiveScores, ScorerVersion, StemmedTokens};
use crawler::store::{CrawlStore, ShadowLabel};
use ids::ObjectId;
use stats::{ks_two_sample_sketch, EcdfSketch, KsResult};
use std::collections::HashMap;
use std::sync::Arc;
use textkit::Lang;

/// Scores for one comment.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommentScores {
    /// Perspective-style model outputs.
    pub perspective: PerspectiveScores,
    /// Dictionary hate ratio.
    pub dictionary: f64,
}

/// The output of one [`score_texts`] pass, in text order.
#[derive(Debug, Clone, Default)]
pub struct ScoredTexts {
    /// The §3.5 scores of each text.
    pub scores: Vec<CommentScores>,
    /// The §4.2.3 language of each text; empty unless the pass was asked
    /// to detect languages.
    pub languages: Vec<Lang>,
}

/// Score a batch of texts under `version` on a shared
/// [`httpnet::ThreadPool`], split into fixed-size index-ordered shards
/// and merged in shard order — byte-identical output for any pool size
/// (scoring is a pure function of the text). The launch revision
/// ([`ScorerVersion::launch`]) is the standard model; the windowed
/// longitudinal analysis passes drifted revisions to reproduce
/// mid-study scorer retraining.
///
/// Each text is tokenized and stemmed once ([`StemmedTokens`]); the
/// dictionary ratio and the Perspective features both read that pass.
/// With `detect_languages`, the shards also run [`textkit::detect`] on
/// every text. The versioned model is built once and shared by every
/// shard.
///
/// Exports to `metrics`: `classify.<scorer>.comments` counters for
/// `dictionary` and `perspective` (text counts, deterministic);
/// per-pass busy-time histograms summed over shards —
/// `classify.tokens.busy` (the shared tokenize-and-stem pass),
/// `classify.dictionary.busy` (lexicon lookups and the ratio),
/// `classify.perspective.busy` (feature counts and the four models) and,
/// when detecting, `classify.langid.busy`;
/// `classify.<scorer>.comments_per_sec` gauges (comments over the
/// scorer's own summed busy time, the shared token pass excluded); plus
/// `shard.classify.score.*` shard execution metrics (deterministic
/// `jobs`/`items` counts, wall-clock `busy`/`gather` histograms).
pub fn score_texts(
    texts: &[&str],
    version: &ScorerVersion,
    detect_languages: bool,
    pool: &httpnet::ThreadPool,
    metrics: Option<&obs::Registry>,
) -> ScoredTexts {
    use std::time::{Duration, Instant};
    let model = Arc::new(PerspectiveModel::versioned(version));
    let bounds = classify::shard::shard_bounds(texts.len(), classify::shard::DEFAULT_SHARD_SIZE);
    let jobs: Vec<_> = bounds
        .iter()
        .map(|r| {
            let shard: Vec<String> = texts[r.clone()].iter().map(|t| (*t).to_owned()).collect();
            let model = Arc::clone(&model);
            move || {
                let fx = model.extractor();
                let mut busy = Busy::default();
                let mut scores = Vec::with_capacity(shard.len());
                let mut languages = Vec::new();
                for t in &shard {
                    let t0 = Instant::now();
                    let tokens = StemmedTokens::of(t);
                    let t1 = Instant::now();
                    let dictionary = fx.dictionary_ratio(&tokens);
                    let t2 = Instant::now();
                    let perspective = model.score_features(&fx.extract_from(t, &tokens));
                    let t3 = Instant::now();
                    if detect_languages {
                        languages.push(textkit::detect(t));
                        busy.langid += t3.elapsed();
                    }
                    busy.tokens += t1 - t0;
                    busy.dictionary += t2 - t1;
                    busy.perspective += t3 - t2;
                    scores.push(CommentScores { perspective, dictionary });
                }
                (scores, languages, busy)
            }
        })
        .collect();
    let out = pool.scatter_labeled("classify.score", metrics, jobs);
    let mut scored = ScoredTexts::default();
    let mut busy = Busy::default();
    for (scores, languages, shard_busy) in out {
        scored.scores.extend(scores);
        scored.languages.extend(languages);
        busy.tokens += shard_busy.tokens;
        busy.dictionary += shard_busy.dictionary;
        busy.perspective += shard_busy.perspective;
        busy.langid += shard_busy.langid;
    }
    if let Some(registry) = metrics {
        let n = texts.len() as u64;
        registry.add("shard.classify.score.items", n);
        registry.observe("classify.tokens.busy", busy.tokens);
        if detect_languages {
            registry.observe("classify.langid.busy", busy.langid);
        }
        for (scorer, busy) in [("perspective", busy.perspective), ("dictionary", busy.dictionary)] {
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
    scored
}

/// Busy time of one scoring shard, per part of the text pass.
#[derive(Debug, Default)]
struct Busy {
    tokens: std::time::Duration,
    dictionary: std::time::Duration,
    perspective: std::time::Duration,
    langid: std::time::Duration,
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

/// Compute Figure 8 from pre-computed scores, visiting `comment_ids`
/// (the store's comment ids, sorted ascending) in order.
pub fn figure8(
    store: &CrawlStore,
    comment_ids: &[ObjectId],
    scores: &HashMap<ObjectId, CommentScores>,
) -> Figure8 {
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
    debug_assert!(comment_ids.windows(2).all(|w| w[0] < w[1]), "ids sorted");
    for id in comment_ids {
        let c = &store.comments[id];
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

    /// Texts in all five languages with second-person pronouns, URLs,
    /// @mentions, numbers, elongations and lexicon terms.
    fn mixed_texts() -> Vec<String> {
        let lexicon = classify::Lexicon::standard();
        let term = |i: usize| lexicon.term(i).to_owned();
        let mut texts = vec![String::new(), "!!! 123 ...".to_owned()];
        for i in 0..300 {
            let lang = Lang::ALL[i % 5];
            let words = textkit::langid::seed_words(lang);
            let w = |k: usize| words[(i * 7 + k * 13) % words.len()];
            texts.push(match i % 6 {
                0 => format!("{} {} you {} your {}", w(0), w(1), term(i), w(2)),
                1 => format!("@user{i} {} https://example.com/{i} {} www.x{i}.org", w(0), w(1)),
                2 => format!("{} {i} {} 2020 {}s", w(0), term(i + 1), term(i + 2)),
                3 => format!("sooooo {} haaaaate {}!!! YOURSELF {}", w(0), term(i), w(1)),
                4 => format!("{} {} {} {} {}", w(0), w(1), w(2), w(3), w(4)),
                _ => format!("U {} yours {}", term(i).to_uppercase(), w(0)),
            });
        }
        texts
    }

    #[test]
    fn score_texts_identical_at_any_pool_size_including_languages() {
        let texts = mixed_texts();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let launch = ScorerVersion::launch(0);
        let serial = score_texts(&refs, &launch, true, &httpnet::ThreadPool::new(1, 2), None);
        assert_eq!(serial.scores.len(), texts.len());
        assert_eq!(serial.languages.len(), texts.len());
        let detected: Vec<Lang> = refs.iter().map(|t| textkit::detect(t)).collect();
        assert_eq!(serial.languages, detected);
        let bits = |s: &ScoredTexts| -> Vec<[u64; 5]> {
            s.scores
                .iter()
                .map(|c| {
                    let p = &c.perspective;
                    [
                        p.severe_toxicity,
                        p.likely_to_reject,
                        p.obscene,
                        p.attack_on_author,
                        c.dictionary,
                    ]
                    .map(f64::to_bits)
                })
                .collect()
        };
        for workers in [2, 8] {
            let pool = httpnet::ThreadPool::new(workers, workers * 2);
            let par = score_texts(&refs, &launch, true, &pool, None);
            assert_eq!(bits(&par), bits(&serial), "workers={workers}");
            assert_eq!(par.languages, serial.languages, "workers={workers}");
        }
        let pool = httpnet::ThreadPool::new(2, 4);
        let without = score_texts(&refs, &launch, false, &pool, None);
        assert!(without.languages.is_empty());
        assert_eq!(bits(&without), bits(&serial));
    }

    #[test]
    fn shared_pass_scores_like_the_standalone_scorers() {
        let texts = mixed_texts();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let pool = httpnet::ThreadPool::new(2, 4);
        let scored = score_texts(&refs, &ScorerVersion::launch(0), false, &pool, None);
        let dict = classify::HateDictionary::standard();
        let model = PerspectiveModel::standard();
        for (t, s) in refs.iter().zip(&scored.scores) {
            assert_eq!(s.dictionary.to_bits(), dict.score(t).to_bits(), "text {t:?}");
            assert_eq!(s.perspective, model.score(t), "text {t:?}");
        }
        assert!(scored.scores.iter().any(|s| s.dictionary > 0.0));
    }

    #[test]
    fn busy_time_is_charged_per_part_of_the_pass() {
        let texts = mixed_texts();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let pool = httpnet::ThreadPool::new(2, 4);
        let registry = obs::Registry::new();
        score_texts(&refs, &ScorerVersion::launch(0), true, &pool, Some(&registry));
        let snap = registry.snapshot();
        for part in ["tokens", "dictionary", "perspective", "langid"] {
            let h = snap.histogram(&format!("classify.{part}.busy")).expect(part);
            assert_eq!(h.count, 1, "{part}: one observation per pass");
        }
        for scorer in ["dictionary", "perspective"] {
            let n = snap.counter(&format!("classify.{scorer}.comments"));
            assert_eq!(n, Some(texts.len() as u64), "{scorer}");
        }
        assert_eq!(snap.counter("classify.tokens.comments"), None, "not a scorer");
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
        let scored = score_texts(&[], &ScorerVersion::launch(0), true, &pool, None);
        assert!(scored.scores.is_empty() && scored.languages.is_empty());
        let d = figure7_dataset("Empty", &[]);
        assert_eq!(d.n, 0);
    }
}
