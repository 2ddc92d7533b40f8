//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! Each group compares a design decision against its alternative on the
//! same input, so the cost/benefit is measurable rather than asserted:
//!
//! * **stemming** — the §3.5.1 dictionary with vs without Porter stemming
//!   (the paper argues stemming trades false positives for recall);
//! * **adasyn** — SVM training time with vs without oversampling (the
//!   §3.5.3 imbalance treatment);
//! * **keep-alive** — crawler connection reuse vs fresh connections (the
//!   throughput choice behind the parallel fetcher);
//! * **featurizer dimension** — 2^12 vs 2^16 hash space (collision rate
//!   vs memory).

use classify::adasyn::{adasyn, AdasynConfig, DistTable};
use classify::svm::{Featurizer, LinearSvm, SvmConfig};
use classify::HateDictionary;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use httpnet::{Client, ConnPool, Handler, PoolConfig, Request, Response, Server, ServerConfig};
use std::sync::Arc;
use synth::labeled_corpus;
use textkit::tokenize;

fn bench_stemming_ablation(c: &mut Criterion) {
    let corpus = labeled_corpus(400, 3);
    let texts: Vec<&str> = corpus.iter().map(|s| s.text.as_str()).collect();
    let dict = HateDictionary::standard();
    let mut g = c.benchmark_group("ablation_stemming");
    g.bench_function("dictionary_with_stemming", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for t in &texts {
                acc += dict.score(t);
            }
            black_box(acc)
        });
    });
    g.bench_function("dictionary_without_stemming", |b| {
        // Raw-token matching: cheaper, but misses inflected forms.
        let lex = dict.lexicon();
        b.iter(|| {
            let mut acc = 0.0;
            for t in &texts {
                let tokens = tokenize(t);
                if tokens.is_empty() {
                    continue;
                }
                let hits = tokens.iter().filter(|w| lex.contains_stemmed(w)).count();
                acc += hits as f64 / tokens.len() as f64;
            }
            black_box(acc)
        });
    });
    g.finish();
}

fn bench_adasyn_ablation(c: &mut Criterion) {
    let corpus = labeled_corpus(800, 5);
    let f = Featurizer::standard();
    let samples: Vec<_> = corpus.iter().map(|s| (f.featurize(&s.text), s.class.index())).collect();
    let cfg = SvmConfig { epochs: 4, ..SvmConfig::default() };
    let mut g = c.benchmark_group("ablation_adasyn");
    g.sample_size(10);
    g.bench_function("train_imbalanced", |b| {
        b.iter(|| black_box(LinearSvm::train(&samples, 3, cfg)));
    });
    let ids: Vec<usize> = (0..samples.len()).collect();
    let oversample = || {
        let table = DistTable::new(&samples);
        adasyn(&samples, &ids, &table, 3, AdasynConfig::default(), 1)
    };
    let balanced = oversample();
    g.bench_function("train_oversampled", |b| {
        b.iter(|| black_box(LinearSvm::train(&balanced, 3, cfg)));
    });
    g.bench_function("adasyn_pass_itself", |b| {
        b.iter(|| black_box(oversample()));
    });
    g.finish();
}

fn bench_keepalive_ablation(c: &mut Criterion) {
    let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::json("{\"ok\":true}".into()));
    let server = Server::start(handler, ServerConfig::default()).expect("server");
    let addr = server.addr();
    let mut g = c.benchmark_group("ablation_keepalive");
    g.bench_function("fresh_connection_per_request", |b| {
        // No idle connection is kept, so every request connects.
        let pool = ConnPool::new(PoolConfig { max_idle_per_host: 0, ..Default::default() });
        let client = Client::builder(addr).pool(pool).build();
        b.iter(|| black_box(client.get("/x").unwrap()));
    });
    g.bench_function("keep_alive_connection", |b| {
        let client = Client::builder(addr).build();
        b.iter(|| black_box(client.get("/x").unwrap()));
    });
    g.finish();
}

fn bench_featurizer_dims(c: &mut Criterion) {
    let corpus = labeled_corpus(200, 9);
    let texts: Vec<&str> = corpus.iter().map(|s| s.text.as_str()).collect();
    let mut g = c.benchmark_group("ablation_feature_dim");
    for dim_bits in [12u32, 16, 18] {
        let f = Featurizer { dim: 1 << dim_bits };
        g.bench_function(format!("featurize_dim_2e{dim_bits}"), |b| {
            b.iter(|| {
                for t in &texts {
                    black_box(f.featurize(t));
                }
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_stemming_ablation,
    bench_adasyn_ablation,
    bench_keepalive_ablation,
    bench_featurizer_dims
);
criterion_main!(benches);
