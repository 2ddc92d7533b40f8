//! ADASYN oversampling (He et al., 2008).
//!
//! The Davidson training corpus is heavily imbalanced (1,194 hate vs 16,025
//! offensive vs 20,499 neither); the paper notes "Because of the imbalanced
//! complexion of data, we use ADASYN to oversample" (§3.5.3). ADASYN
//! generates synthetic minority samples by interpolating between a minority
//! sample and one of its minority k-nearest neighbors, with more synthesis
//! where the minority class is hardest to learn (neighborhoods dominated by
//! other classes).

use crate::shard;
use crate::svm::{lerp, sq_dist, SparseVec};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::ops::Range;

/// Shard size for the per-minority-sample passes. Small because each
/// kNN scan is O(n) over the whole corpus; fixed so shard geometry (and
/// with it the output) never depends on the worker count.
const ADASYN_SHARD: usize = 16;

/// Rows per [`DistTable`] shard; fixed for the same reason.
const ROW_SHARD: usize = 16;

/// ADASYN parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdasynConfig {
    /// Neighborhood size (paper default k = 5).
    pub k: usize,
    /// Balance level β ∈ (0, 1]: 1.0 fully balances each class up to the
    /// majority count.
    pub beta: f64,
    /// RNG seed for gap sampling and neighbor choice.
    pub seed: u64,
}

impl Default for AdasynConfig {
    fn default() -> Self {
        Self { k: 5, beta: 1.0, seed: 11 }
    }
}

/// Pairwise squared distances of a corpus, computed once and read by
/// every neighbor scan over it (each CV fold's training split and the
/// final model's full corpus).
///
/// [`sq_dist`] is bit-for-bit symmetric, so only the strict lower
/// triangle is kept: n(n−1)/2 `f64` values, pair (i, j) with j < i at
/// i(i−1)/2 + j. That is O(n²) memory: 0.6 MB at 400 samples, 16 MB at
/// 2,000.
#[derive(Debug, Clone, PartialEq)]
pub struct DistTable {
    n: usize,
    d: Vec<f64>,
}

impl DistTable {
    /// The table of `samples`, built serially.
    pub fn new(samples: &[(SparseVec, usize)]) -> Self {
        let n = samples.len();
        Self::from_shards(n, Self::shards(n).into_iter().map(|r| Self::fill(samples, r)).collect())
    }

    /// Row ranges of the table of `n` samples, of a fixed size: a pure
    /// function of `n`, so callers can run them on any executor and pass
    /// the outputs to [`DistTable::from_shards`].
    pub fn shards(n: usize) -> Vec<Range<usize>> {
        shard::shard_bounds(n, ROW_SHARD)
    }

    /// Distances of the table rows `rows` of `samples`, in order.
    pub fn fill(samples: &[(SparseVec, usize)], rows: Range<usize>) -> Vec<f64> {
        rows.flat_map(|i| (0..i).map(move |j| sq_dist(&samples[i].0, &samples[j].0))).collect()
    }

    /// Assemble the table of `n` samples from the [`DistTable::fill`]
    /// outputs of [`DistTable::shards`], in shard order.
    pub fn from_shards(n: usize, parts: Vec<Vec<f64>>) -> Self {
        let d = shard::merge_shards(parts);
        assert_eq!(d.len(), n * n.saturating_sub(1) / 2, "distance table is incomplete");
        Self { n, d }
    }

    /// Squared distance between samples `a` and `b`, `a != b`.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a != b, "no self-distances are stored");
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        self.d[hi * (hi - 1) / 2 + lo]
    }
}

/// k nearest neighbors of the sample at position `p` of `ids` among all
/// of `ids`: hardness r = fraction of those neighbors from other
/// classes, plus the positions of the same-class neighbors used for
/// interpolation. Candidates are listed in position order, which settles
/// ties at the k-th neighbor.
fn knn_scan(
    samples: &[(SparseVec, usize)],
    ids: &[usize],
    table: &DistTable,
    p: usize,
    class: usize,
    k: usize,
) -> (f64, Vec<usize>) {
    let mut dists: Vec<(f64, usize)> = ids
        .iter()
        .enumerate()
        .filter(|&(q, _)| q != p)
        .map(|(q, &j)| (table.get(ids[p], j), q))
        .collect();
    let k = k.min(dists.len());
    let nth = k.saturating_sub(1).min(dists.len().saturating_sub(1));
    dists.select_nth_unstable_by(nth, |a, b| {
        a.0.partial_cmp(&b.0).expect("finite distances")
    });
    let neigh = &dists[..k];
    let foreign = neigh.iter().filter(|(_, q)| samples[ids[*q]].1 != class).count();
    let hardness = foreign as f64 / k.max(1) as f64;
    let minority_neighbors = neigh
        .iter()
        .filter(|(_, q)| samples[ids[*q]].1 == class)
        .map(|(_, q)| *q)
        .collect();
    (hardness, minority_neighbors)
}

/// Oversample the samples at the ascending positions `ids` of `samples`
/// (a whole corpus, or one CV fold's training split) so every class
/// approaches the majority class count. Returns those samples in `ids`
/// order, followed by the synthetic ones. Neighbor scans read `table`,
/// the [`DistTable`] of `samples`; the scans and the synthesis pass
/// shard over `workers` threads.
///
/// Deterministic across worker counts: each minority sample `m` of a
/// class draws from its own RNG stream seeded by
/// `stream_seed(cfg.seed, class << 32 | m)` — stable ids, not thread
/// identity — and synthetic samples are appended in canonical
/// (class asc, minority position asc, draw asc) order, exactly the
/// order a serial loop produces.
pub fn adasyn(
    samples: &[(SparseVec, usize)],
    ids: &[usize],
    table: &DistTable,
    classes: usize,
    cfg: AdasynConfig,
    workers: usize,
) -> Vec<(SparseVec, usize)> {
    assert!(cfg.k >= 1, "k must be >= 1");
    assert!(cfg.beta > 0.0 && cfg.beta <= 1.0, "beta must be in (0,1]");
    assert_eq!(table.n, samples.len(), "distance table of another corpus");
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
    let mut counts = vec![0usize; classes];
    for &i in ids {
        counts[samples[i].1] += 1;
    }
    let majority = counts.iter().copied().max().unwrap_or(0);
    let mut out: Vec<(SparseVec, usize)> = ids.iter().map(|&i| samples[i].clone()).collect();

    for (class, &class_count) in counts.iter().enumerate() {
        let deficit = ((majority - class_count) as f64 * cfg.beta).round() as usize;
        if deficit == 0 || class_count == 0 {
            continue;
        }
        let minority: Vec<usize> =
            (0..ids.len()).filter(|&p| samples[ids[p]].1 == class).collect();

        let scans: Vec<(f64, Vec<usize>)> =
            shard::map_sharded(&minority, ADASYN_SHARD, workers, |_, shard| {
                shard.iter().map(|&p| knn_scan(samples, ids, table, p, class, cfg.k)).collect()
            });
        let total_hardness: f64 = scans.iter().map(|(h, _)| h).sum();

        // Synthesis: per-minority-sample RNG streams, canonical order.
        let synthetic: Vec<Vec<(SparseVec, usize)>> =
            shard::map_sharded(&minority, ADASYN_SHARD, workers, |shard_id, shard| {
                shard
                    .iter()
                    .enumerate()
                    .map(|(pos, &p)| {
                        let m = shard_id * ADASYN_SHARD + pos;
                        let (hardness, neighbors) = &scans[m];
                        // Allocation: proportional to hardness; uniform if all easy.
                        let share = if total_hardness > 0.0 {
                            hardness / total_hardness
                        } else {
                            1.0 / minority.len() as f64
                        };
                        let g = (share * deficit as f64).round() as usize;
                        let sample_id = ((class as u64) << 32) | m as u64;
                        let mut rng =
                            StdRng::seed_from_u64(shard::stream_seed(cfg.seed, sample_id));
                        let base = &samples[ids[p]].0;
                        (0..g)
                            .map(|_| {
                                let synth = if neighbors.is_empty() {
                                    base.clone() // isolated sample: duplicate
                                } else {
                                    let pick = neighbors[rng.gen_range(0..neighbors.len())];
                                    lerp(base, &samples[ids[pick]].0, rng.gen::<f32>())
                                };
                                (synth, class)
                            })
                            .collect()
                    })
                    .collect()
            });
        out.extend(synthetic.into_iter().flatten());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::fold_assignment;
    use proptest::prelude::*;

    fn fv(pairs: &[(u32, f32)]) -> SparseVec {
        pairs.to_vec()
    }

    /// ADASYN over a whole corpus.
    fn oversample(
        s: &[(SparseVec, usize)],
        classes: usize,
        cfg: AdasynConfig,
    ) -> Vec<(SparseVec, usize)> {
        let ids: Vec<usize> = (0..s.len()).collect();
        adasyn(s, &ids, &DistTable::new(s), classes, cfg, 1)
    }

    /// The direct-scan ADASYN the table replaced: every neighbor scan
    /// calls `sq_dist` itself. Kept as the reference the table-backed
    /// version must match exactly.
    fn reference_adasyn(
        samples: &[(SparseVec, usize)],
        classes: usize,
        cfg: AdasynConfig,
    ) -> Vec<(SparseVec, usize)> {
        let mut counts = vec![0usize; classes];
        for (_, y) in samples {
            counts[*y] += 1;
        }
        let majority = counts.iter().copied().max().unwrap_or(0);
        let mut out = samples.to_vec();
        for (class, &class_count) in counts.iter().enumerate() {
            let deficit = ((majority - class_count) as f64 * cfg.beta).round() as usize;
            if deficit == 0 || class_count == 0 {
                continue;
            }
            let minority_idx: Vec<usize> =
                (0..samples.len()).filter(|&i| samples[i].1 == class).collect();
            let scans: Vec<(f64, Vec<usize>)> = minority_idx
                .iter()
                .map(|&i| {
                    let mut dists: Vec<(f64, usize)> = (0..samples.len())
                        .filter(|&j| j != i)
                        .map(|j| (sq_dist(&samples[i].0, &samples[j].0), j))
                        .collect();
                    let k = cfg.k.min(dists.len());
                    let nth = k.saturating_sub(1).min(dists.len().saturating_sub(1));
                    dists.select_nth_unstable_by(nth, |a, b| a.0.partial_cmp(&b.0).unwrap());
                    let neigh = &dists[..k];
                    let foreign = neigh.iter().filter(|(_, j)| samples[*j].1 != class).count();
                    let same = neigh.iter().filter(|(_, j)| samples[*j].1 == class);
                    (foreign as f64 / k.max(1) as f64, same.map(|(_, j)| *j).collect())
                })
                .collect();
            let total_hardness: f64 = scans.iter().map(|(h, _)| h).sum();
            for (m, &i) in minority_idx.iter().enumerate() {
                let (hardness, neighbors) = &scans[m];
                let share = if total_hardness > 0.0 {
                    hardness / total_hardness
                } else {
                    1.0 / minority_idx.len() as f64
                };
                let g = (share * deficit as f64).round() as usize;
                let sample_id = ((class as u64) << 32) | m as u64;
                let mut rng = StdRng::seed_from_u64(shard::stream_seed(cfg.seed, sample_id));
                for _ in 0..g {
                    let synth = if neighbors.is_empty() {
                        samples[i].0.clone()
                    } else {
                        let pick = neighbors[rng.gen_range(0..neighbors.len())];
                        lerp(&samples[i].0, &samples[pick].0, rng.gen::<f32>())
                    };
                    out.push((synth, class));
                }
            }
        }
        out
    }

    fn toy_imbalanced() -> Vec<(SparseVec, usize)> {
        let mut s = Vec::new();
        // Majority class 1: cluster around feature 10.
        for i in 0..40 {
            s.push((fv(&[(10, 1.0 + (i % 7) as f32 * 0.01)]), 1usize));
        }
        // Minority class 0: cluster around feature 0.
        for i in 0..5 {
            s.push((fv(&[(0, 1.0 + i as f32 * 0.02)]), 0usize));
        }
        s
    }

    /// Three imbalanced classes drawn from a pool of only `distinct`
    /// vectors, so most samples have exact duplicates — in their own
    /// class and in others — and the k-th neighbor is usually tied.
    fn duplicated(n: usize, distinct: usize, seed: u64) -> Vec<(SparseVec, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<SparseVec> = (0..distinct)
            .map(|d| {
                let mut v: SparseVec = (0..3)
                    .map(|t| ((d * 7 + t * 13) as u32 % 29, 0.5 + 1.5 * rng.gen::<f32>()))
                    .collect();
                v.sort_by_key(|&(i, _)| i);
                v.dedup_by_key(|&mut (i, _)| i);
                v
            })
            .collect();
        (0..n)
            .map(|_| {
                let class = match rng.gen_range(0..20) {
                    0..=1 => 0,
                    2..=7 => 1,
                    _ => 2,
                };
                (pool[rng.gen_range(0..distinct)].clone(), class)
            })
            .collect()
    }

    #[test]
    fn table_matches_direct_scan_on_corpora_and_fold_subsets() {
        let corpora = [
            toy_imbalanced(),
            duplicated(60, 6, 1),
            duplicated(90, 4, 2),
            duplicated(120, 25, 3),
        ];
        for (c, s) in corpora.iter().enumerate() {
            let table = DistTable::new(s);
            for seed in [11, 12] {
                let cfg = AdasynConfig { seed, ..Default::default() };
                let all: Vec<usize> = (0..s.len()).collect();
                let expect = reference_adasyn(s, 3, cfg);
                assert_eq!(adasyn(s, &all, &table, 3, cfg, 1), expect, "corpus {c}");
                let folds = fold_assignment(s.len(), 5, seed);
                for fold in 0..5 {
                    let ids: Vec<usize> = (0..s.len()).filter(|&i| folds[i] != fold).collect();
                    let train: Vec<_> = ids.iter().map(|&i| s[i].clone()).collect();
                    let expect = reference_adasyn(&train, 3, cfg);
                    for workers in [1, 3] {
                        let got = adasyn(s, &ids, &table, 3, cfg, workers);
                        assert_eq!(got, expect, "corpus {c} fold {fold} workers {workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn table_holds_every_pair_once() {
        for n in [0, 1, 2, 3, 91, 400] {
            let s = duplicated(n, 30, 5);
            let table = DistTable::new(&s);
            assert_eq!(table.d.len(), n * n.saturating_sub(1) / 2, "n={n}");
            for i in 0..n.min(40) {
                for j in 0..i {
                    assert_eq!(table.get(i, j).to_bits(), sq_dist(&s[i].0, &s[j].0).to_bits());
                    assert_eq!(table.get(j, i).to_bits(), table.get(i, j).to_bits());
                }
            }
        }
        // Shard outputs assembled out of a pool match the serial build.
        let s = duplicated(200, 50, 6);
        let parts =
            DistTable::shards(s.len()).into_iter().map(|r| DistTable::fill(&s, r)).collect();
        assert_eq!(DistTable::from_shards(s.len(), parts), DistTable::new(&s));
        assert!(DistTable::shards(s.len()).len() > 1);
    }

    fn sparse_vec() -> impl Strategy<Value = SparseVec> {
        proptest::collection::vec((0u32..24, -4.0f64..4.0), 0..12).prop_map(|mut v| {
            v.sort_by_key(|&(i, _)| i);
            v.dedup_by_key(|&mut (i, _)| i);
            v.into_iter().map(|(i, x)| (i, x as f32)).collect()
        })
    }

    proptest! {
        #[test]
        fn sq_dist_is_bitwise_symmetric(a in sparse_vec(), b in sparse_vec()) {
            prop_assert_eq!(sq_dist(&a, &b).to_bits(), sq_dist(&b, &a).to_bits());
        }
    }

    #[test]
    fn balances_minority_class() {
        let s = toy_imbalanced();
        let out = oversample(&s, 2, AdasynConfig::default());
        let c0 = out.iter().filter(|(_, y)| *y == 0).count();
        let c1 = out.iter().filter(|(_, y)| *y == 1).count();
        assert!(c0 as f64 >= 0.8 * c1 as f64, "c0={c0} c1={c1}");
        // Originals preserved.
        assert!(out.len() > s.len());
        assert_eq!(&out[..s.len()], &s[..]);
    }

    #[test]
    fn synthetic_samples_stay_in_minority_region() {
        let s = toy_imbalanced();
        let out = oversample(&s, 2, AdasynConfig::default());
        for (x, y) in &out[s.len()..] {
            assert_eq!(*y, 0, "only the minority class is synthesized");
            // All synthetic vectors interpolate cluster members → only
            // feature 0 present.
            assert!(x.iter().all(|&(i, _)| i == 0), "{x:?}");
        }
    }

    #[test]
    fn balanced_input_is_unchanged() {
        let mut s = Vec::new();
        for i in 0..10 {
            s.push((fv(&[(0, 1.0 + i as f32)]), 0usize));
            s.push((fv(&[(5, 1.0 + i as f32)]), 1usize));
        }
        let out = oversample(&s, 2, AdasynConfig::default());
        assert_eq!(out.len(), s.len());
    }

    #[test]
    fn beta_scales_synthesis() {
        let s = toy_imbalanced();
        let full = oversample(&s, 2, AdasynConfig { beta: 1.0, ..Default::default() });
        let half = oversample(&s, 2, AdasynConfig { beta: 0.5, ..Default::default() });
        let synth_full = full.len() - s.len();
        let synth_half = half.len() - s.len();
        assert!(synth_half < synth_full);
        assert!(synth_half > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let s = toy_imbalanced();
        let a = oversample(&s, 2, AdasynConfig::default());
        let b = oversample(&s, 2, AdasynConfig::default());
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_output_identical_for_any_worker_count() {
        let s = toy_imbalanced();
        let ids: Vec<usize> = (0..s.len()).collect();
        let table = DistTable::new(&s);
        let serial = adasyn(&s, &ids, &table, 2, AdasynConfig::default(), 1);
        for workers in [2, 3, 8] {
            let par = adasyn(&s, &ids, &table, 2, AdasynConfig::default(), workers);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn three_class_balances_both_minorities() {
        let mut s = toy_imbalanced();
        for i in 0..3 {
            s.push((fv(&[(20, 1.0 + i as f32 * 0.1)]), 2usize));
        }
        let out = oversample(&s, 3, AdasynConfig::default());
        let c2 = out.iter().filter(|(_, y)| *y == 2).count();
        assert!(c2 > 3);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_panics() {
        oversample(&[], 2, AdasynConfig { beta: 0.0, ..Default::default() });
    }
}
