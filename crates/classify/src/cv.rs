//! k-fold cross-validation and grid search (§3.5.3: "Using grid search to
//! tune the hyperparameters … With 5-fold cross-validation, we achieve an
//! F1 score of 0.87").
//!
//! ADASYN is applied **inside** each fold, to the training split only —
//! oversampling before splitting would leak synthetic copies of test
//! samples into training, inflating F1.
//!
//! Folds are independent given the fold assignment, so they parallelize
//! per fold. Each fold's training split is oversampled once, from the
//! corpus's [`DistTable`], and every λ candidate trains on that one set
//! ([`fold_confusions`]); its ADASYN seed is split by the stable fold
//! id, so serial and pooled execution produce identical confusions.

use crate::adasyn::{adasyn, AdasynConfig, DistTable};
use crate::metrics::Confusion;
use crate::shard;
use crate::svm::{LinearSvm, SparseVec, SvmConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Assign each of `n` samples to one of `k` folds, shuffled by `seed`.
pub fn fold_assignment(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least two folds");
    assert!(n >= k, "fewer samples than folds");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut folds = vec![0usize; n];
    for (pos, &i) in idx.iter().enumerate() {
        folds[i] = pos % k;
    }
    folds
}

/// Result of one cross-validated evaluation.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Pooled confusion matrix across folds.
    pub confusion: Confusion,
    /// Hyperparameters used.
    pub config: SvmConfig,
}

impl CvResult {
    /// Support-weighted F1 (the headline metric).
    pub fn weighted_f1(&self) -> f64 {
        self.confusion.weighted_f1()
    }
}

/// Train one model per entry of `configs` on everything outside `fold`
/// and score the held-out fold with each, returning the confusions in
/// `configs` order.
///
/// With `oversample` set, the training split is oversampled once by
/// ADASYN reading the given [`DistTable`] of `samples`, and every model
/// trains on that one set. The ADASYN seed is split from the config's by
/// the stable fold id — never the thread that runs the fold — so a pool
/// executing folds in any order reproduces the serial confusions exactly.
pub fn fold_confusions(
    samples: &[(SparseVec, usize)],
    folds: &[usize],
    fold: usize,
    classes: usize,
    configs: &[SvmConfig],
    oversample: Option<(AdasynConfig, &DistTable)>,
) -> Vec<Confusion> {
    let train_ids: Vec<usize> = (0..samples.len()).filter(|&i| folds[i] != fold).collect();
    let train = match oversample {
        Some((cfg, table)) => {
            let fold_cfg =
                AdasynConfig { seed: shard::stream_seed(cfg.seed, fold as u64), ..cfg };
            adasyn(samples, &train_ids, table, classes, fold_cfg, 1)
        }
        None => train_ids.iter().map(|&i| samples[i].clone()).collect(),
    };
    configs
        .iter()
        .map(|&cfg| {
            let model = LinearSvm::train(&train, classes, cfg);
            let mut confusion = Confusion::new(classes);
            for (s, &f) in samples.iter().zip(folds) {
                if f == fold {
                    confusion.add(s.1, model.predict(&s.0));
                }
            }
            confusion
        })
        .collect()
}

/// Evaluate one SVM configuration with k-fold CV, serially; ADASYN
/// applied per fold when `oversample` is set.
pub fn cross_validate(
    samples: &[(SparseVec, usize)],
    classes: usize,
    k: usize,
    svm_cfg: SvmConfig,
    oversample: Option<AdasynConfig>,
    seed: u64,
) -> CvResult {
    let folds = fold_assignment(samples.len(), k, seed);
    let table = oversample.map(|_| DistTable::new(samples));
    let mut confusion = Confusion::new(classes);
    for fold in 0..k {
        let over = oversample.zip(table.as_ref());
        confusion.merge(&fold_confusions(samples, &folds, fold, classes, &[svm_cfg], over)[0]);
    }
    CvResult { confusion, config: svm_cfg }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(pairs: &[(u32, f32)]) -> SparseVec {
        pairs.to_vec()
    }

    fn separable(n_per_class: usize) -> Vec<(SparseVec, usize)> {
        let mut s = Vec::new();
        for i in 0..n_per_class {
            let j = (i % 9) as f32 * 0.01;
            s.push((fv(&[(0, 1.0 + j), (1, 0.3)]), 0usize));
            s.push((fv(&[(8, 1.0 + j), (9, 0.3)]), 1usize));
        }
        s
    }

    #[test]
    fn folds_partition_evenly() {
        let f = fold_assignment(100, 5, 1);
        for fold in 0..5 {
            assert_eq!(f.iter().filter(|&&x| x == fold).count(), 20);
        }
    }

    #[test]
    fn folds_deterministic() {
        assert_eq!(fold_assignment(50, 5, 9), fold_assignment(50, 5, 9));
        assert_ne!(fold_assignment(50, 5, 9), fold_assignment(50, 5, 10));
    }

    #[test]
    fn cv_on_separable_data_is_accurate() {
        let s = separable(25);
        let cfg = SvmConfig { dim: 16, lambda: 1e-3, epochs: 20, seed: 2 };
        let r = cross_validate(&s, 2, 5, cfg, None, 3);
        assert!(r.weighted_f1() > 0.95, "F1 {}", r.weighted_f1());
        assert_eq!(r.confusion.total(), s.len() as u64);
    }

    #[test]
    fn fold_confusions_score_every_config_on_one_training_set() {
        let s = separable(20);
        let base = SvmConfig { dim: 16, epochs: 10, seed: 2, lambda: 0.0 };
        let configs = [1e-4, 1e-1, 10.0].map(|lambda| SvmConfig { lambda, ..base });
        let folds = fold_assignment(s.len(), 4, 3);
        let table = DistTable::new(&s);
        let over = Some((AdasynConfig::default(), &table));
        for fold in 0..4 {
            let all = fold_confusions(&s, &folds, fold, 2, &configs, over);
            assert_eq!(all.len(), configs.len());
            // Each config's confusion is what a fold run for it alone gives.
            for (c, confusion) in configs.iter().zip(&all) {
                assert_eq!(*confusion, fold_confusions(&s, &folds, fold, 2, &[*c], over)[0]);
                assert_eq!(confusion.total(), folds.iter().filter(|&&f| f == fold).count() as u64);
            }
        }
    }

    #[test]
    fn oversampling_runs_inside_cv() {
        // Imbalanced separable data; with ADASYN the minority class must
        // still be recalled well.
        let mut s = separable(30);
        s.truncate(30 + 6); // 30 of class 0/1 interleaved → trim to imbalance
        let cfg = SvmConfig { dim: 16, lambda: 1e-3, epochs: 15, seed: 2 };
        let r = cross_validate(&s, 2, 3, cfg, Some(AdasynConfig::default()), 5);
        assert!(r.weighted_f1() > 0.9, "F1 {}", r.weighted_f1());
    }

    #[test]
    #[should_panic(expected = "folds")]
    fn too_few_samples_panics() {
        fold_assignment(3, 5, 0);
    }
}
