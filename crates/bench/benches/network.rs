//! Benchmarks for the networking substrate and crawl phases over real
//! loopback TCP: request/response round-trips, the §3.1 size probe, Gab
//! API fetches (E1), comment-page spidering, and the resilience layer
//! (fault decisions, circuit-breaker bookkeeping, the crawl's retry loop
//! through a faulty server).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use crawler::resilience::PhaseRun;
use httpnet::{Client, ConnPool, FaultConfig, FaultInjector, PoolConfig, ServerConfig};
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::SimServices;

struct Fx {
    services: SimServices,
    world: Arc<platform::World>,
    dissenter_user: String,
    url_id: String,
    gab_id: u64,
}

fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let cfg = WorldConfig { scale: Scale::Custom(0.002), ..WorldConfig::small() };
        let (world, _) = synth::generate(&cfg);
        let world = Arc::new(world);
        let dissenter_user = world
            .users
            .iter()
            .find(|u| u.author_id.is_some() && !u.gab_deleted)
            .expect("dissenter user")
            .username
            .clone();
        let url_id = world.dissenter.urls()[0].id.to_hex();
        let gab_id = 1;
        let services =
            SimServices::start(world.clone(), crawler::default_server_config()).expect("services");
        Fx { services, world, dissenter_user, url_id, gab_id }
    })
}

fn bench_http(c: &mut Criterion) {
    let fx = fx();
    let mut g = c.benchmark_group("http");
    g.throughput(Throughput::Elements(1));

    g.bench_function("roundtrip_fresh_connection", |b| {
        // No idle connection is kept, so every request connects.
        let pool = ConnPool::new(PoolConfig { max_idle_per_host: 0, ..Default::default() });
        let client = Client::builder(fx.services.gab.addr()).pool(pool).build();
        b.iter(|| black_box(client.get("/api/v1/accounts/1").unwrap()));
    });
    g.bench_function("roundtrip_keep_alive", |b| {
        let client = Client::builder(fx.services.gab.addr()).build();
        b.iter(|| black_box(client.get("/api/v1/accounts/1").unwrap()));
    });
    g.finish();
}

fn bench_crawl_ops(c: &mut Criterion) {
    let fx = fx();
    let mut g = c.benchmark_group("crawl_ops");

    // E1: one Gab enumeration probe (hit + parse).
    g.bench_function("gab_account_fetch_parse", |b| {
        let client = Client::builder(fx.services.gab.addr()).build();
        let target = format!("/api/v1/accounts/{}", fx.gab_id);
        b.iter(|| {
            let resp = client.get(&target).unwrap();
            black_box(jsonlite::parse(&resp.text()).unwrap())
        });
    });

    // §3.1: the size probe (body length inspection, hit + miss).
    g.bench_function("dissenter_size_probe_hit", |b| {
        let client = Client::builder(fx.services.dissenter.addr()).build();
        let target = format!("/user/{}", fx.dissenter_user);
        b.iter(|| {
            let resp = client.get(&target).unwrap();
            black_box(resp.body.len() >= 10 * 1024)
        });
    });
    g.bench_function("dissenter_size_probe_miss", |b| {
        let client = Client::builder(fx.services.dissenter.addr()).build();
        b.iter(|| {
            let resp = client.get("/user/nosuchuserzz").unwrap();
            black_box(resp.body.len() >= 10 * 1024)
        });
    });

    // §3.2: comment-page scraping. Fetch once (the endpoint carries the
    // per-URL 10-req/min limit the real site advertises — hammering it in
    // a bench loop would measure the 429 path), then benchmark the parse.
    g.bench_function("comment_page_scrape", |b| {
        let client = Client::builder(fx.services.dissenter.addr()).build();
        let html = client.get(&format!("/url/{}", fx.url_id)).unwrap().text();
        b.iter(|| black_box(crawler::spider::parse_comment_page(html.as_bytes())));
    });
    g.finish();
}

fn bench_resilience(c: &mut Criterion) {
    let fx = fx();
    let mut g = c.benchmark_group("resilience");
    g.throughput(Throughput::Elements(1));

    // The per-request cost of rolling a fault decision.
    g.bench_function("fault_decide", |b| {
        let injector = FaultInjector::new(FaultConfig::storm(7));
        b.iter(|| black_box(injector.decide()));
    });

    // Closed-breaker bookkeeping on the crawl's hot path.
    g.bench_function("breaker_allow_and_record", |b| {
        let breaker = crawler::CircuitBreaker::new();
        b.iter(|| {
            black_box(breaker.allow());
            breaker.record_success();
        });
    });

    // A logical fetch through the crawl's retry loop against a healthy
    // endpoint: the overhead the retry machinery adds to the common
    // (no-fault) case.
    g.bench_function("phase_fetch_clean", |b| {
        let addr = fx.services.gab.addr();
        let (crawler, store) = (retrying_crawler(addr), crawler::CrawlStore::default());
        let run = PhaseRun::new(&crawler, crawler::Phase::GabEnum);
        let client = run.setup_client(Client::builder(addr)).build();
        b.iter(|| black_box(run.fetch(&client, &store, "/api/v1/accounts/1").unwrap()));
    });

    // The same fetch through a 20%-faulty server (drops + 500s), retries
    // included — the storm-weathering cost per delivered response.
    g.bench_function("phase_fetch_faulty", |b| {
        let world = fx.world.clone();
        let cfg = ServerConfig {
            faults: FaultConfig {
                drop_prob: 0.1,
                error_prob: 0.1,
                seed: 21,
                ..FaultConfig::none()
            },
            ..crawler::default_server_config()
        };
        let services = SimServices::start(world, cfg).expect("services");
        let addr = services.gab.addr();
        let (crawler, store) = (retrying_crawler(addr), crawler::CrawlStore::default());
        let run = PhaseRun::new(&crawler, crawler::Phase::GabEnum);
        let client = run.setup_client(Client::builder(addr)).build();
        b.iter(|| black_box(run.fetch(&client, &store, "/api/v1/accounts/1").unwrap()));
        std::mem::forget(services);
    });
    g.finish();
}

/// A crawler whose retry loop never sleeps and never runs out of
/// budget: 8 retries per fetch, zero backoff.
fn retrying_crawler(addr: SocketAddr) -> crawler::Crawler {
    let mut crawler = crawler::Crawler::new(crawler::Endpoints {
        dissenter: addr,
        gab: addr,
        reddit: addr,
        youtube: addr,
    });
    crawler.config.retries = 8;
    crawler.config.backoff = Duration::ZERO;
    crawler.config.retry_budget = usize::MAX;
    crawler
}

criterion_group!(benches, bench_http, bench_crawl_ops, bench_resilience);
criterion_main!(benches);
