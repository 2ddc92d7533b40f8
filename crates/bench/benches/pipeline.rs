//! End-to-end pipeline benchmarks: one per experiment family. Each bench
//! regenerates a paper artifact from the shared cached study (E2, E4, E6,
//! E10, E12), plus whole-stage benches for world generation and analysis.

use bench::bench_study;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use synth::config::Scale;
use synth::WorldConfig;

fn bench_artifacts(c: &mut Criterion) {
    let study = bench_study();
    let store = &study.store;
    let mut g = c.benchmark_group("artifacts");
    g.sample_size(10);

    // E2 / Fig. 3.
    g.bench_function("fig3_activity_concentration", |b| {
        let counts = analysis::users::comment_counts(store);
        b.iter(|| black_box(analysis::users::activity_concentration(store, &counts)));
    });
    // E1 / Fig. 2.
    g.bench_function("fig2_gab_growth", |b| {
        b.iter(|| black_box(analysis::users::gab_growth(store)));
    });
    // E4 / Table 2.
    g.bench_function("table2_domain_tables", |b| {
        b.iter(|| {
            let urls: Vec<&str> = store.urls.values().map(|u| u.url.as_str()).collect();
            black_box((
                analysis::domains::tld_table(urls.iter().copied(), 12),
                analysis::domains::domain_table(urls.iter().copied(), 12),
            ))
        });
    });
    // E6 / §4.2.3.
    g.bench_function("languages_table", |b| {
        b.iter(|| black_box(analysis::content::language_table(store)));
    });
    // E10 / Fig. 7 scoring (the dominant analysis cost).
    g.bench_function("fig7_score_all_comments", |b| {
        let pool = httpnet::ThreadPool::new(8, 16);
        let texts: Vec<&str> = store.comments.values().map(|c| c.text.as_str()).collect();
        let launch = classify::ScorerVersion::launch(0);
        b.iter(|| {
            black_box(analysis::toxicity::score_texts(&texts, &launch, true, &pool, None))
        });
    });
    // E7 / Fig. 4 + E11 / Fig. 8 from cached scores.
    g.bench_function("fig4_fig8_aggregation", |b| {
        let mut comment_ids: Vec<_> = store.comments.keys().copied().collect();
        comment_ids.sort_unstable();
        b.iter(|| {
            black_box((
                analysis::toxicity::figure4(store, &study.report.scores),
                analysis::toxicity::figure8(store, &comment_ids, &study.report.scores),
            ))
        });
    });
    // E12 / Fig. 9.
    g.bench_function("fig9_social_analysis", |b| {
        let by_author = store.comments_by_author();
        b.iter(|| {
            black_box(analysis::social::analyze_social(
                store,
                &by_author,
                &study.report.scores,
                graph::CoreCriteria::default(),
            ))
        });
    });
    g.finish();
}

fn bench_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("stages");
    g.sample_size(10);
    g.bench_function("world_generate_0_002", |b| {
        let cfg = WorldConfig { scale: Scale::Custom(0.002), ..WorldConfig::small() };
        b.iter(|| black_box(synth::generate(&cfg)));
    });
    g.bench_function("full_report_build", |b| {
        let study = bench_study();
        let pool = httpnet::ThreadPool::new(8, 16);
        let options = analysis::ReportOptions::default();
        // Rebuild the report (scoring + all aggregations) from the crawl.
        b.iter(|| {
            black_box(analysis::report::build_report_pooled_opts(
                &study.store,
                &[],
                &pool,
                None,
                &options,
            ))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_artifacts, bench_stages);
criterion_main!(benches);
