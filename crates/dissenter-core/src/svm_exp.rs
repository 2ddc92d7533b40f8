//! The §3.5.3 NLP experiment: train the three-class SVM on the synthetic
//! labeled corpus (Davidson-shaped imbalance) with ADASYN oversampling and
//! grid search, report 5-fold cross-validated F1, then compute class
//! probabilities for every crawled Dissenter comment.
//!
//! The experiment is sharded end to end: corpus synthesis and featurizing
//! run on per-shard seed streams; the pairwise distance table and the
//! per-fold CV jobs run on the shared study [`httpnet::ThreadPool`]; and
//! the application pass scores id-ordered comment shards whose partial
//! sums merge in canonical shard order — so the report is byte-identical
//! at any worker count.

use classify::adasyn::{adasyn, AdasynConfig, DistTable};
use classify::cv::{fold_assignment, fold_confusions, CvResult};
use classify::shard;
use classify::svm::{argmax, softmax, Featurizer, LinearSvm, SparseVec, SvmConfig};
use classify::CommentClass;
use crawler::CrawlStore;
use std::sync::Arc;
use synth::labeled_corpus_sharded;

/// Outcome of the SVM experiment.
#[derive(Debug, Clone)]
pub struct SvmReport {
    /// Best 5-fold weighted F1 found by the grid search (paper: 0.87).
    pub cv_f1: f64,
    /// All grid points `(lambda, weighted F1)`.
    pub grid: Vec<(f64, f64)>,
    /// The winning λ.
    pub best_lambda: f64,
    /// Labeled corpus size used.
    pub corpus_size: usize,
    /// Mean class probability over all Dissenter comments
    /// `[hate, offensive, neither]`.
    pub mean_class_probs: [f64; 3],
    /// Fraction of Dissenter comments whose argmax class is each of
    /// `[hate, offensive, neither]`.
    pub class_shares: [f64; 3],
}

/// Run the full experiment against a crawl, with cross-validation folds
/// and the comment application pass scattered onto `pool`, exporting
/// scorer metrics to `metrics`: `classify.svm.comments` (comments the
/// final model scored — deterministic), `classify.svm.train` /
/// `classify.svm.apply` busy-time histograms, a
/// `classify.svm.comments_per_sec` application-rate gauge, plus the
/// `shard.svm.cv.*` / `shard.svm.apply.*` scatter instrumentation from
/// [`httpnet::ThreadPool::scatter_labeled`].
pub fn run_svm_experiment_pooled(
    store: &CrawlStore,
    corpus_size: usize,
    seed: u64,
    pool: &httpnet::ThreadPool,
    metrics: Option<&obs::Registry>,
) -> SvmReport {
    let workers = pool.size();
    let train_started = std::time::Instant::now();
    let corpus = labeled_corpus_sharded(corpus_size, seed ^ 0x5717, workers);
    let featurizer = Featurizer::standard();
    let samples: Vec<(SparseVec, usize)> =
        shard::map_sharded(&corpus, shard::DEFAULT_SHARD_SIZE, workers, |_, sh| {
            sh.iter().map(|s| (featurizer.featurize(&s.text), s.class.index())).collect()
        });

    // Pairwise distances once, on the pool: every fold's ADASYN and the
    // final model's read them from this table.
    let shared = Arc::new(samples);
    let table_jobs: Vec<_> = DistTable::shards(shared.len())
        .into_iter()
        .map(|rows| {
            let samples = Arc::clone(&shared);
            move || DistTable::fill(&samples, rows)
        })
        .collect();
    let table = Arc::new(DistTable::from_shards(shared.len(), pool.scatter(table_jobs)));

    // Grid search over λ: one job per fold on the shared pool, each
    // oversampling its training split once and scoring every λ on it.
    // Per-fold confusions merge in fold order per λ and the final sort is
    // by F1 (stable on ties) — independent of scheduling.
    let base = SvmConfig { epochs: 8, seed, ..SvmConfig::default() };
    let configs = [1e-5, 1e-4, 1e-3].map(|lambda| SvmConfig { lambda, ..base });
    let oversample = AdasynConfig { k: 5, beta: 1.0, seed };
    let k = 5;
    let folds = Arc::new(fold_assignment(shared.len(), k, seed ^ 0xF0F0));
    let jobs: Vec<_> = (0..k)
        .map(|fold| {
            let (samples, folds, table) =
                (Arc::clone(&shared), Arc::clone(&folds), Arc::clone(&table));
            move || fold_confusions(&samples, &folds, fold, 3, &configs, Some((oversample, &table)))
        })
        .collect();
    let per_fold = pool.scatter_labeled("svm.cv", metrics, jobs);
    let mut results: Vec<CvResult> = configs
        .iter()
        .enumerate()
        .map(|(c, &config)| {
            let mut confusion = classify::Confusion::new(3);
            for fold in &per_fold {
                confusion.merge(&fold[c]);
            }
            // Every sample is validated exactly once across the k folds,
            // so the pooled matrix must account for the whole corpus.
            confusion
                .check_books(shared.len() as u64)
                .expect("pooled CV confusion accounts for every sample");
            CvResult { confusion, config }
        })
        .collect();
    results.sort_by(|a, b| b.weighted_f1().partial_cmp(&a.weighted_f1()).expect("finite F1"));
    let best = &results[0];
    let grid: Vec<(f64, f64)> =
        results.iter().map(|r| (r.config.lambda, r.weighted_f1())).collect();

    // Final model on the full (oversampled) corpus; the table is not
    // needed past this point.
    let all: Vec<usize> = (0..shared.len()).collect();
    let oversampled = adasyn(&shared, &all, &table, 3, oversample, workers);
    drop(table);
    let model = Arc::new(LinearSvm::train(&oversampled, 3, best.config));
    let train_busy = train_started.elapsed();

    // Application pass: comments in id order (the store is a hash map),
    // sharded with fixed geometry so per-shard f64 partial sums merge
    // identically at any worker count.
    let apply_started = std::time::Instant::now();
    let mut items: Vec<(ids::ObjectId, String)> =
        store.comments.iter().map(|(id, c)| (*id, c.text.clone())).collect();
    items.sort_unstable_by_key(|&(id, _)| id);
    let texts: Arc<Vec<String>> = Arc::new(items.into_iter().map(|(_, t)| t).collect());
    let n = texts.len().max(1);
    let apply_jobs: Vec<_> = shard::shard_bounds(texts.len(), shard::DEFAULT_SHARD_SIZE)
        .into_iter()
        .map(|r| {
            let texts = Arc::clone(&texts);
            let model = Arc::clone(&model);
            move || {
                let mut sums = [0.0f64; 3];
                let mut counts = [0u64; 3];
                for t in &texts[r] {
                    // One margin computation per comment gives both the
                    // probabilities and the argmax class.
                    let margins = model.margins(&featurizer.featurize(t));
                    for (sum, p) in sums.iter_mut().zip(softmax(&margins)) {
                        *sum += p;
                    }
                    counts[argmax(&margins)] += 1;
                }
                (sums, counts)
            }
        })
        .collect();
    let parts = pool.scatter_labeled("svm.apply", metrics, apply_jobs);
    let mut mean = [0.0f64; 3];
    let mut shares = [0.0f64; 3];
    for (sums, counts) in &parts {
        for k in 0..3 {
            mean[k] += sums[k];
            shares[k] += counts[k] as f64;
        }
    }
    for k in 0..3 {
        mean[k] /= n as f64;
        shares[k] /= n as f64;
    }

    if let Some(registry) = metrics {
        let apply_busy = apply_started.elapsed();
        registry.add("shard.svm.apply.items", texts.len() as u64);
        registry.add("classify.svm.comments", texts.len() as u64);
        registry.observe("classify.svm.train", train_busy);
        registry.observe("classify.svm.apply", apply_busy);
        if !apply_busy.is_zero() {
            registry.set_gauge(
                "classify.svm.comments_per_sec",
                texts.len() as f64 / apply_busy.as_secs_f64(),
            );
        }
    }

    SvmReport {
        cv_f1: best.weighted_f1(),
        best_lambda: best.config.lambda,
        grid,
        corpus_size: corpus.len(),
        mean_class_probs: mean,
        class_shares: shares,
    }
}

/// Class label order used in the report arrays.
pub const CLASS_ORDER: [CommentClass; 3] =
    [CommentClass::Hate, CommentClass::Offensive, CommentClass::Neither];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svm_experiment_reaches_paper_band_on_synthetic_corpus() {
        let store = CrawlStore::default();
        let pool = httpnet::ThreadPool::new(1, 2);
        let r = run_svm_experiment_pooled(&store, 1_500, 42, &pool, None);
        assert!(r.cv_f1 > 0.8, "weighted F1 {}", r.cv_f1);
        assert!(r.grid.len() == 3);
        // Best first: the reported λ and F1 head the grid.
        assert_eq!(r.grid[0], (r.best_lambda, r.cv_f1));
        assert!(r.grid.windows(2).all(|w| w[0].1 >= w[1].1), "{:?}", r.grid);
        // Empty store → no comment application.
        assert_eq!(r.class_shares, [0.0; 3]);
    }

    /// A store of `n` comments with labeled-corpus texts, so the
    /// application pass spans several shards.
    fn store_with_comments(n: usize) -> CrawlStore {
        use crawler::store::{CrawledComment, ShadowLabel};
        let mut store = CrawlStore::default();
        let mut ids = ids::ObjectIdGen::new(ids::EntityKind::Comment, 3);
        for sample in synth::labeled_corpus(n, 19) {
            let id = ids.next(1);
            store.comments.insert(
                id,
                CrawledComment {
                    id,
                    url_id: ids.next(1),
                    author_id: ids.next(1),
                    parent: None,
                    text: sample.text,
                    created_at: 1,
                    label: ShadowLabel::Standard,
                },
            );
        }
        store
    }

    #[test]
    fn pooled_experiment_identical_for_any_pool_size() {
        let store = store_with_comments(1_300);
        let serial = {
            let pool = httpnet::ThreadPool::new(1, 2);
            run_svm_experiment_pooled(&store, 600, 7, &pool, None)
        };
        // The application pass ran over every comment.
        assert!((serial.class_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{serial:?}");
        for workers in [2, 8] {
            let pool = httpnet::ThreadPool::new(workers, workers * 2);
            let par = run_svm_experiment_pooled(&store, 600, 7, &pool, None);
            assert_eq!(par.cv_f1, serial.cv_f1, "workers={workers}");
            assert_eq!(par.grid, serial.grid, "workers={workers}");
            assert_eq!(par.best_lambda, serial.best_lambda, "workers={workers}");
            assert_eq!(par.mean_class_probs, serial.mean_class_probs, "workers={workers}");
            assert_eq!(par.class_shares, serial.class_shares, "workers={workers}");
        }
    }
}
