//! Benchmarks for the §3.5 classification stack: dictionary scoring,
//! Perspective-style scoring (the Figure 4/7/8 hot path), featurization,
//! ADASYN, and SVM training (the §3.5.3 experiment, E14).

use classify::adasyn::{adasyn, AdasynConfig, DistTable};
use classify::svm::{Featurizer, LinearSvm, SparseVec, SvmConfig};
use classify::{HateDictionary, PerspectiveModel};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synth::{labeled_corpus, CommentSpec, TextGen};
use textkit::langid::Lang;

fn sample_comments(n: usize) -> Vec<String> {
    let gen = TextGen::standard();
    let mut rng = StdRng::seed_from_u64(99);
    (0..n)
        .map(|i| {
            let spec = CommentSpec {
                lang: Lang::En,
                severe: (i % 10) as f64 / 10.0,
                obscene: 0.1,
                attack: 0.1,
                reject: (i % 7) as f64 / 7.0,
                tokens: 10 + i % 30,
            };
            gen.generate(&mut rng, &spec)
        })
        .collect()
}

fn bench_scoring(c: &mut Criterion) {
    let comments = sample_comments(1_000);
    let mut g = c.benchmark_group("scoring");
    g.throughput(Throughput::Elements(comments.len() as u64));
    let dict = HateDictionary::standard();
    g.bench_function("dictionary_1k_comments", |b| {
        b.iter(|| {
            for t in &comments {
                black_box(dict.score(t));
            }
        });
    });
    let model = PerspectiveModel::standard();
    g.bench_function("perspective_1k_comments", |b| {
        b.iter(|| {
            for t in &comments {
                black_box(model.score(t));
            }
        });
    });
    g.finish();
}

fn bench_featurize(c: &mut Criterion) {
    let comments = sample_comments(1_000);
    let f = Featurizer::standard();
    let mut g = c.benchmark_group("svm");
    g.throughput(Throughput::Elements(comments.len() as u64));
    g.bench_function("featurize_1k_comments", |b| {
        b.iter(|| {
            for t in &comments {
                black_box(f.featurize(t));
            }
        });
    });
    g.finish();
}

fn svm_samples(n: usize) -> Vec<(SparseVec, usize)> {
    let corpus = labeled_corpus(n, 5);
    let f = Featurizer::standard();
    corpus.iter().map(|s| (f.featurize(&s.text), s.class.index())).collect()
}

fn bench_training(c: &mut Criterion) {
    let samples = svm_samples(1_000);
    let mut g = c.benchmark_group("training");
    g.sample_size(10);
    // One oversampling from scratch: the distance table, then ADASYN.
    g.bench_function("adasyn_1k", |b| {
        let ids: Vec<usize> = (0..samples.len()).collect();
        b.iter(|| {
            let table = DistTable::new(&samples);
            black_box(adasyn(&samples, &ids, &table, 3, AdasynConfig::default(), 1))
        });
    });
    g.bench_function("svm_train_1k_x3class", |b| {
        let cfg = SvmConfig { epochs: 5, ..SvmConfig::default() };
        b.iter(|| black_box(LinearSvm::train(&samples, 3, cfg)));
    });
    let model = LinearSvm::train(&samples, 3, SvmConfig::default());
    g.bench_function("svm_predict_1k", |b| {
        b.iter(|| {
            for (x, _) in &samples {
                black_box(model.probabilities(x));
            }
        });
    });
    g.finish();
}

fn bench_textgen(c: &mut Criterion) {
    let gen = TextGen::standard();
    let mut rng = StdRng::seed_from_u64(1);
    let spec = CommentSpec { lang: Lang::En, severe: 0.4, obscene: 0.2, attack: 0.3, reject: 0.7, tokens: 20 };
    c.bench_function("textgen_comment", |b| {
        b.iter(|| black_box(gen.generate(&mut rng, &spec)));
    });
}

criterion_group!(benches, bench_scoring, bench_featurize, bench_training, bench_textgen);
criterion_main!(benches);
