//! The §3.5.3 NLP classifier: a linear SVM over hashed 1–2-gram features.
//!
//! The paper trains a three-class (hate / offensive / neither) classifier
//! on the Davidson et al. labeled corpus using "1 and 2-grams of cleaned
//! and stemmed word tokens", oversamples with ADASYN, tunes
//! hyperparameters by grid search, and reports F1 = 0.87 under 5-fold
//! cross-validation, then applies the model to every Dissenter comment.
//!
//! This module implements the model from scratch: feature hashing for the
//! n-grams, one-vs-rest linear SVMs trained with the Pegasos stochastic
//! sub-gradient algorithm (Shalev-Shwartz et al. 2011), and softmax-over-
//! margins class probabilities (the paper "compute\[s\] the probability of
//! each of the three possible classes for all Dissenter comments").

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use textkit::{clean_text, porter_stem};

/// A sparse feature vector: `(index, value)` pairs sorted by index.
pub type SparseVec = Vec<(u32, f32)>;

/// The three comment classes of the Davidson et al. labeling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommentClass {
    /// Hate speech.
    Hate,
    /// Offensive but not hate.
    Offensive,
    /// Neither.
    Neither,
}

impl CommentClass {
    /// All classes in index order.
    pub const ALL: [CommentClass; 3] = [CommentClass::Hate, CommentClass::Offensive, CommentClass::Neither];

    /// Dense index (0, 1, 2).
    pub fn index(self) -> usize {
        match self {
            CommentClass::Hate => 0,
            CommentClass::Offensive => 1,
            CommentClass::Neither => 2,
        }
    }

    /// From dense index.
    pub fn from_index(i: usize) -> CommentClass {
        Self::ALL[i]
    }
}

/// Dot product of a sparse vector with a dense weight slice.
pub fn dot(x: &SparseVec, w: &[f32]) -> f64 {
    x.iter().map(|&(i, v)| v as f64 * w[i as usize] as f64).sum()
}

/// L2 norm of a sparse vector.
pub fn norm(x: &SparseVec) -> f64 {
    x.iter().map(|&(_, v)| (v as f64) * (v as f64)).sum::<f64>().sqrt()
}

/// Squared Euclidean distance between two sorted sparse vectors.
pub fn sq_dist(a: &SparseVec, b: &SparseVec) -> f64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0f64;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                d += (a[i].1 as f64).powi(2);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d += (b[j].1 as f64).powi(2);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                d += ((a[i].1 - b[j].1) as f64).powi(2);
                i += 1;
                j += 1;
            }
        }
    }
    d += a[i..].iter().map(|&(_, v)| (v as f64).powi(2)).sum::<f64>();
    d += b[j..].iter().map(|&(_, v)| (v as f64).powi(2)).sum::<f64>();
    d
}

/// Linear interpolation `a + gap (b − a)` of sorted sparse vectors
/// (ADASYN's synthetic-sample constructor).
pub fn lerp(a: &SparseVec, b: &SparseVec, gap: f32) -> SparseVec {
    let (mut i, mut j) = (0usize, 0usize);
    let mut out = SparseVec::with_capacity(a.len() + b.len());
    while i < a.len() || j < b.len() {
        let (idx, va, vb) = if j >= b.len() || (i < a.len() && a[i].0 < b[j].0) {
            let r = (a[i].0, a[i].1, 0.0);
            i += 1;
            r
        } else if i >= a.len() || b[j].0 < a[i].0 {
            let r = (b[j].0, 0.0, b[j].1);
            j += 1;
            r
        } else {
            let r = (a[i].0, a[i].1, b[j].1);
            i += 1;
            j += 1;
            r
        };
        let v = va + gap * (vb - va);
        if v != 0.0 {
            out.push((idx, v));
        }
    }
    out
}

/// Hashing featurizer over cleaned, stemmed 1–2-grams.
#[derive(Debug, Clone, Copy)]
pub struct Featurizer {
    /// Feature space size (power of two).
    pub dim: u32,
}

impl Featurizer {
    /// Default 2^16-dimensional featurizer.
    pub fn standard() -> Self {
        Self { dim: 1 << 16 }
    }

    /// Map a comment to a normalized sparse vector.
    ///
    /// Each 1-gram `a` hashes as FNV-1a over its bytes and each 2-gram as
    /// FNV-1a streamed over `a`, `b' '` and `b` — the hash of the joined
    /// `"a b"` — so no n-gram string is built.
    pub fn featurize(&self, text: &str) -> SparseVec {
        let tokens: Vec<String> = clean_text(text).iter().map(|t| porter_stem(t)).collect();
        let unigrams: Vec<u32> = tokens.iter().map(|t| fnv1a_extend(FNV_OFFSET, t)).collect();
        let bigrams = unigrams
            .iter()
            .zip(tokens.iter().skip(1))
            .map(|(&a, b)| fnv1a_extend(fnv1a_extend(a, " "), b));
        let mut idx: Vec<u32> =
            unigrams.iter().copied().chain(bigrams).map(|h| h % self.dim).collect();
        idx.sort_unstable();
        let mut vec = SparseVec::new();
        for i in idx {
            match vec.last_mut() {
                Some(last) if last.0 == i => last.1 += 1.0,
                _ => vec.push((i, 1.0)),
            }
        }
        // L2-normalize so comment length does not dominate.
        let n = norm(&vec);
        if n > 0.0 {
            for (_, v) in &mut vec {
                *v /= n as f32;
            }
        }
        vec
    }
}

/// FNV-1a offset basis: the hash of the empty string.
const FNV_OFFSET: u32 = 0x811c_9dc5;

/// Continue the FNV-1a hash `h` over the bytes of `s`.
fn fnv1a_extend(mut h: u32, s: &str) -> u32 {
    for b in s.as_bytes() {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// SVM training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmConfig {
    /// Feature space dimension.
    pub dim: u32,
    /// Pegasos regularization λ.
    pub lambda: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self { dim: 1 << 16, lambda: 1e-4, epochs: 12, seed: 7 }
    }
}

/// A trained one-vs-rest linear SVM.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Vec<Vec<f32>>, // one dense weight vector per class
    classes: usize,
}

impl LinearSvm {
    /// Train with Pegasos. `samples` are `(features, class_index)` pairs.
    pub fn train(samples: &[(SparseVec, usize)], classes: usize, cfg: SvmConfig) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(!samples.is_empty(), "empty training set");
        assert!(samples.iter().all(|(_, y)| *y < classes), "label out of range");
        let mut weights = Vec::with_capacity(classes);
        for class in 0..classes {
            weights.push(train_binary(samples, class, cfg));
        }
        Self { weights, classes }
    }

    /// Per-class margins `w_c · x`.
    pub fn margins(&self, x: &SparseVec) -> Vec<f64> {
        self.weights.iter().map(|w| dot(x, w)).collect()
    }

    /// Hard prediction: argmax margin.
    pub fn predict(&self, x: &SparseVec) -> usize {
        argmax(&self.margins(x))
    }

    /// Softmax over margins — the per-class probabilities the paper
    /// computes for every comment.
    pub fn probabilities(&self, x: &SparseVec) -> Vec<f64> {
        softmax(&self.margins(x))
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

/// Index of the largest margin ([`LinearSvm::predict`] from margins
/// computed once).
pub fn argmax(margins: &[f64]) -> usize {
    margins
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite margins"))
        .map(|(i, _)| i)
        .expect("at least one class")
}

/// Softmax over margins ([`LinearSvm::probabilities`] from margins
/// computed once).
pub fn softmax(margins: &[f64]) -> Vec<f64> {
    let mx = margins.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = margins.iter().map(|v| (v - mx).exp()).collect();
    let z: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / z).collect()
}

/// Pegasos for one binary (class vs rest) problem, with the scale-factor
/// trick so regularization shrinkage is O(1) per step.
fn train_binary(samples: &[(SparseVec, usize)], positive: usize, cfg: SvmConfig) -> Vec<f32> {
    let mut w = vec![0f32; cfg.dim as usize];
    let mut scale = 1f64;
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (positive as u64).wrapping_mul(0x9e37_79b9));
    let mut t = 0u64;
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for &i in &order {
            t += 1;
            let eta = 1.0 / (cfg.lambda * t as f64);
            let (x, label) = &samples[i];
            let y = if *label == positive { 1.0 } else { -1.0 };
            let margin = scale * dot(x, &w) * y;
            // Shrink (regularization) via the scale factor.
            scale *= 1.0 - eta * cfg.lambda;
            if scale < 1e-9 {
                for v in &mut w {
                    *v *= scale as f32;
                }
                scale = 1.0;
            }
            if margin < 1.0 {
                let step = (eta * y / scale) as f32;
                for &(idx, v) in x {
                    w[idx as usize] += step * v;
                }
            }
        }
    }
    for v in &mut w {
        *v *= scale as f32;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(pairs: &[(u32, f32)]) -> SparseVec {
        pairs.to_vec()
    }

    #[test]
    fn sparse_ops() {
        let a = fv(&[(0, 1.0), (2, 2.0)]);
        let b = fv(&[(1, 3.0), (2, 2.0)]);
        assert_eq!(sq_dist(&a, &b), 1.0 + 9.0);
        assert_eq!(sq_dist(&a, &a), 0.0);
        let mid = lerp(&a, &b, 0.5);
        assert_eq!(mid, fv(&[(0, 0.5), (1, 1.5), (2, 2.0)]));
        let w = vec![1.0f32, 0.0, 2.0];
        assert_eq!(dot(&a, &w), 5.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = fv(&[(0, 1.0)]);
        let b = fv(&[(1, 2.0)]);
        assert_eq!(lerp(&a, &b, 0.0), a);
        assert_eq!(lerp(&a, &b, 1.0), b);
    }

    #[test]
    fn featurizer_is_normalized_and_deterministic() {
        let f = Featurizer::standard();
        let a = f.featurize("free speech browser for free speech");
        let b = f.featurize("free speech browser for free speech");
        assert_eq!(a, b);
        assert!((norm(&a) - 1.0).abs() < 1e-5);
        assert!(f.featurize("").is_empty());
    }

    #[test]
    fn featurizer_counts_repeats() {
        let f = Featurizer { dim: 1 << 12 };
        let v = f.featurize("spam spam spam");
        // One unigram repeated + bigrams; unigram weight must dominate.
        let max = v.iter().map(|&(_, x)| x).fold(0f32, f32::max);
        assert!(max > 0.7, "{v:?}");
    }

    #[test]
    fn streamed_ngram_hashes_equal_hashes_of_the_joined_ngrams() {
        fn fnv1a(s: &str) -> u32 {
            let mut h: u32 = 0x811c_9dc5;
            for b in s.as_bytes() {
                h ^= *b as u32;
                h = h.wrapping_mul(0x0100_0193);
            }
            h
        }
        // The featurizer as it was: the joined 1- and 2-gram strings, each
        // hashed whole.
        let joined = |f: &Featurizer, text: &str| -> SparseVec {
            let tokens: Vec<String> = clean_text(text).iter().map(|t| porter_stem(t)).collect();
            let bigrams = tokens.windows(2).map(|w| w.join(" "));
            let grams: Vec<String> = tokens.iter().cloned().chain(bigrams).collect();
            let mut idx: Vec<u32> = grams.iter().map(|g| fnv1a(g) % f.dim).collect();
            idx.sort_unstable();
            let mut vec = SparseVec::new();
            for i in idx {
                match vec.last_mut() {
                    Some(last) if last.0 == i => last.1 += 1.0,
                    _ => vec.push((i, 1.0)),
                }
            }
            let n = norm(&vec);
            if n > 0.0 {
                for (_, v) in &mut vec {
                    *v /= n as f32;
                }
            }
            vec
        };
        let lexicon = crate::Lexicon::standard();
        let mut words: Vec<String> = textkit::langid::seed_words(textkit::Lang::En)
            .iter()
            .chain(textkit::langid::seed_words(textkit::Lang::De))
            .map(|w| w.to_string())
            .collect();
        words.extend(lexicon.terms().iter().take(50).cloned());
        let odd = ["sooooo", "HAAAATE", "42", "@someone", "https://x.example/a", "don't"];
        words.extend(odd.map(String::from));
        let mut rng = StdRng::seed_from_u64(11);
        for f in [Featurizer::standard(), Featurizer { dim: 1 << 10 }] {
            for len in 0..40 {
                let text: Vec<&str> =
                    (0..len).map(|_| words.choose(&mut rng).expect("words").as_str()).collect();
                let text = text.join(if len % 3 == 0 { ", " } else { " " });
                assert_eq!(f.featurize(&text), joined(&f, &text), "text {text:?}");
            }
        }
        for (a, b) in [("", ""), ("free", "speech"), ("\u{fc}ber", "stra\u{df}e")] {
            let streamed = fnv1a_extend(fnv1a_extend(fnv1a_extend(FNV_OFFSET, a), " "), b);
            assert_eq!(streamed, fnv1a(&format!("{a} {b}")));
            assert_eq!(fnv1a_extend(FNV_OFFSET, a), fnv1a(a));
        }
    }

    #[test]
    fn margins_once_give_predict_and_probabilities() {
        let samples: Vec<(SparseVec, usize)> = (0..60)
            .map(|i| (fv(&[((i % 3) as u32 * 10, 1.0), (7, 0.5)]), i % 3))
            .collect();
        let m = LinearSvm::train(&samples, 3, SvmConfig { dim: 64, ..SvmConfig::default() });
        for (x, _) in &samples {
            let margins = m.margins(x);
            assert_eq!(argmax(&margins), m.predict(x));
            assert_eq!(softmax(&margins), m.probabilities(x));
        }
    }

    /// Two-cluster toy problem: class 0 uses features {0,1}, class 1 uses
    /// {10,11}. Pegasos must separate them perfectly.
    #[test]
    fn learns_separable_problem() {
        let mut samples = Vec::new();
        for i in 0..50 {
            let jitter = (i % 5) as f32 * 0.01;
            samples.push((fv(&[(0, 1.0 + jitter), (1, 0.5)]), 0usize));
            samples.push((fv(&[(10, 1.0 + jitter), (11, 0.5)]), 1usize));
        }
        let cfg = SvmConfig { dim: 16, lambda: 1e-3, epochs: 20, seed: 1 };
        let svm = LinearSvm::train(&samples, 2, cfg);
        for (x, y) in &samples {
            assert_eq!(svm.predict(x), *y);
        }
    }

    #[test]
    fn three_class_one_vs_rest() {
        let mut samples = Vec::new();
        for _ in 0..30 {
            samples.push((fv(&[(0, 1.0)]), 0usize));
            samples.push((fv(&[(1, 1.0)]), 1usize));
            samples.push((fv(&[(2, 1.0)]), 2usize));
        }
        let cfg = SvmConfig { dim: 8, lambda: 1e-3, epochs: 30, seed: 3 };
        let svm = LinearSvm::train(&samples, 3, cfg);
        assert_eq!(svm.predict(&fv(&[(0, 1.0)])), 0);
        assert_eq!(svm.predict(&fv(&[(1, 1.0)])), 1);
        assert_eq!(svm.predict(&fv(&[(2, 1.0)])), 2);
    }

    #[test]
    fn probabilities_sum_to_one_and_rank_correctly() {
        let mut samples = Vec::new();
        for _ in 0..30 {
            samples.push((fv(&[(0, 1.0)]), 0usize));
            samples.push((fv(&[(1, 1.0)]), 1usize));
        }
        let cfg = SvmConfig { dim: 4, lambda: 1e-3, epochs: 20, seed: 5 };
        let svm = LinearSvm::train(&samples, 2, cfg);
        let p = svm.probabilities(&fv(&[(0, 1.0)]));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > p[1]);
    }

    #[test]
    fn text_level_classification() {
        // Real pipeline: featurize text, train, predict held-out text.
        let f = Featurizer::standard();
        let angry = ["you are a stupid idiot fool", "what a pathetic dumb loser", "stupid stupid liar"];
        let calm = ["what a lovely sunny day", "i enjoyed the article very much", "great video thanks"];
        let mut samples = Vec::new();
        for t in &angry {
            samples.push((f.featurize(t), 0usize));
        }
        for t in &calm {
            samples.push((f.featurize(t), 1usize));
        }
        let svm = LinearSvm::train(&samples, 2, SvmConfig { epochs: 40, ..Default::default() });
        assert_eq!(svm.predict(&f.featurize("you stupid fool")), 0);
        assert_eq!(svm.predict(&f.featurize("lovely sunny article")), 1);
    }

    #[test]
    fn class_indices_round_trip() {
        for c in CommentClass::ALL {
            assert_eq!(CommentClass::from_index(c.index()), c);
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        LinearSvm::train(&[(fv(&[(0, 1.0)]), 5usize)], 2, SvmConfig::default());
    }
}
