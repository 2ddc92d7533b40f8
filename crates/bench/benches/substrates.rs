//! Microbenchmarks for the substrate crates: identifiers, JSON, text
//! processing, statistics, graph algorithms, and the HTTP wire codec.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ids::{EntityKind, ObjectIdGen};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_ids(c: &mut Criterion) {
    let mut g = c.benchmark_group("ids");
    g.bench_function("objectid_mint", |b| {
        let mut gen = ObjectIdGen::new(EntityKind::Comment, 7);
        let mut t = 1_551_139_200u64;
        b.iter(|| {
            t += 1;
            black_box(gen.next(t))
        });
    });
    g.bench_function("objectid_parse", |b| {
        let id = ObjectIdGen::new(EntityKind::Author, 1).next(1_551_139_200).to_hex();
        b.iter(|| black_box(id.parse::<ids::ObjectId>().unwrap()));
    });
    g.bench_function("gabid_allocate", |b| {
        let mut alloc = ids::GabIdAllocator::with_paper_anomalies(0.02);
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = 1_471_219_200u64;
        b.iter(|| {
            t += 60;
            black_box(alloc.allocate(t, &mut rng))
        });
    });
    g.finish();
}

fn bench_json(c: &mut Criterion) {
    let mut g = c.benchmark_group("jsonlite");
    let doc = r#"{"id":123456,"username":"freespeaker42","acct":"freespeaker42","display_name":"Free Speaker","note":"tired of censorship","created_at":"2019-02-28T16:23:53Z","followers_count":1842,"following_count":99,"fields":[{"k":"a","v":1.5},{"k":"b","v":null}]}"#;
    g.throughput(Throughput::Bytes(doc.len() as u64));
    g.bench_function("parse_account", |b| {
        b.iter(|| black_box(jsonlite::parse(doc).unwrap()));
    });
    let v = jsonlite::parse(doc).unwrap();
    g.bench_function("serialize_account", |b| {
        b.iter(|| black_box(jsonlite::to_string(&v)));
    });
    g.finish();
}

fn bench_textkit(c: &mut Criterion) {
    let mut g = c.benchmark_group("textkit");
    let comment = "The author of this article is just repeating what the media always says \
                   about censorship and free speech on every platform these days";
    g.bench_function("tokenize", |b| {
        b.iter(|| black_box(textkit::tokenize(comment)));
    });
    g.bench_function("porter_stem_word", |b| {
        b.iter(|| black_box(textkit::porter_stem("generalizations")));
    });
    g.bench_function("tokenize_stemmed", |b| {
        b.iter(|| black_box(textkit::tokenize_stemmed(comment)));
    });
    g.bench_function("langid_detect", |b| {
        b.iter(|| black_box(textkit::detect(comment)));
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats");
    let xs: Vec<f64> = (0..10_000).map(|i| ((i * 2_654_435_761u64 % 1_000_000) as f64) / 1e6).collect();
    let ys: Vec<f64> = (0..10_000).map(|i| ((i * 40_503u64 % 1_000_000) as f64) / 1e6).collect();
    g.bench_function("ecdf_build_10k", |b| {
        b.iter(|| black_box(stats::Ecdf::new(&xs)));
    });
    g.bench_function("ks_two_sample_10k", |b| {
        b.iter(|| black_box(stats::ks_two_sample(&xs, &ys)));
    });
    let degrees: Vec<f64> = (1..5_000).map(|i| (1.0 / (i as f64 / 5_000.0)).powf(0.9)).collect();
    g.bench_function("power_law_fit_5k", |b| {
        b.iter(|| black_box(stats::fit_power_law(&degrees, 1.0)));
    });
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph");
    // Build a 10k-node preferential-ish graph once.
    let mut dg = graph::DiGraph::with_nodes(10_000);
    let mut x = 1u64;
    for u in 0..10_000u32 {
        for _ in 0..5 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = ((x >> 33) % 10_000) as u32;
            dg.add_edge(u, v);
        }
    }
    g.bench_function("pagerank_10k_nodes", |b| {
        b.iter(|| black_box(graph::pagerank(&dg, 0.85, 1e-8, 50)));
    });
    g.bench_function("mutual_adjacency_10k", |b| {
        b.iter(|| black_box(dg.mutual_adjacency()));
    });
    let counts: Vec<u64> = (0..10_000).map(|i| (i % 300) as u64).collect();
    let tox: Vec<f64> = (0..10_000).map(|i| ((i % 100) as f64) / 100.0).collect();
    g.bench_function("hateful_core_extract_10k", |b| {
        b.iter(|| {
            black_box(graph::extract_hateful_core(
                &dg,
                &counts,
                &tox,
                graph::CoreCriteria::default(),
            ))
        });
    });
    g.finish();
}

/// A crawl GET as the crawler sends it: session cookie, conditional
/// validator.
fn crawl_get(i: usize) -> httpnet::Request {
    let mut req = httpnet::Request::get(&format!("/url/5c780b19aabbccddeeff{i:04x}"));
    req.headers.add("Host", "sim.local");
    req.headers.add("Cookie", "session=crawler:nsfw");
    req.headers.add("If-None-Match", &httpnet::format_etag(0x5c78_0b19_aabb_0000 + i as u64));
    req
}

/// An HTML page of `len` bytes with the fronts' headers.
fn page(len: usize) -> httpnet::Response {
    let row = r#"<li class="comment" data-comment-id="5c780b19aabbccddeeff0066">free speech &amp; more</li>"#;
    let mut html = row.repeat(len / row.len() + 1);
    html.truncate(len);
    let mut resp = httpnet::Response::html(html);
    resp.headers.add("ETag", &httpnet::format_etag(0xabcd));
    resp
}

/// The HTTP/1.1 codec apart from any socket: serialize then parse, for a
/// crawl GET, a 1 KB comment page, an 11 KB home page, and one
/// pipelined batch of eight GETs and their comment pages.
fn bench_wire(c: &mut Criterion) {
    use httpnet::http::{parse_request, read_response, serialize_request, serialize_response_head};
    let mut g = c.benchmark_group("wire");
    let get = crawl_get(0);
    let mut buf = Vec::new();
    g.bench_function("request_crawl_get", |b| {
        b.iter(|| {
            buf.clear();
            serialize_request(&get, &mut buf);
            black_box(parse_request(&buf).unwrap())
        });
    });
    for (name, len) in [("response_comment_page_1k", 1_100), ("response_home_page_11k", 11 * 1024)] {
        let resp = page(len);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                buf.clear();
                serialize_response_head(&resp, &mut buf);
                buf.extend_from_slice(&resp.body);
                black_box(read_response(&mut &buf[..]).unwrap())
            });
        });
    }
    let gets: Vec<httpnet::Request> = (0..8).map(crawl_get).collect();
    let pages: Vec<httpnet::Response> = (0..8).map(|_| page(1_100)).collect();
    g.throughput(Throughput::Elements(8));
    g.bench_function("pipelined_batch_8", |b| {
        b.iter(|| {
            buf.clear();
            gets.iter().for_each(|req| serialize_request(req, &mut buf));
            let mut pos = 0;
            while let Some((req, used)) = parse_request(&buf[pos..]).unwrap() {
                black_box(req);
                pos += used;
            }
            buf.clear();
            for resp in &pages {
                serialize_response_head(resp, &mut buf);
                buf.extend_from_slice(&resp.body);
            }
            let mut reader = &buf[..];
            for _ in &pages {
                black_box(read_response(&mut reader).unwrap());
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ids,
    bench_json,
    bench_textkit,
    bench_stats,
    bench_graph,
    bench_wire
);
criterion_main!(benches);
