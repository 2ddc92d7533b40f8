//! Incremental re-crawl through the pipelined crawl: the second crawl
//! sends its first attempts pipelined with `If-None-Match`, resolves the
//! servers' `304`s from the revalidation cache, and persists a store
//! byte-identical to the first crawl's.

use crawler::{Crawler, Endpoints};
use httpnet::ServerConfig;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::SimServices;

fn persist_bytes(store: &crawler::CrawlStore, tag: &str) -> Vec<(&'static str, Vec<u8>)> {
    let dir = std::env::temp_dir().join(format!("pipelined-recrawl-{tag}-{}", std::process::id()));
    crawler::persist::save(store, &dir).expect("persist");
    let out = crawler::persist::FILES
        .iter()
        .map(|f| (*f, std::fs::read(dir.join(f)).expect("read")))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn counter_sum(snap: &obs::Snapshot, prefix: &str, suffix: &str) -> u64 {
    snap.counters_with_prefix(prefix).filter(|(n, _)| n.ends_with(suffix)).map(|(_, v)| v).sum()
}

#[test]
fn a_pipelined_recrawl_resolves_its_304s_from_the_cache_to_an_identical_store() {
    let cfg = WorldConfig { scale: Scale::Custom(0.001), ..WorldConfig::small() };
    let (world, _) = synth::generate(&cfg);
    let server_metrics = obs::Registry::new();
    let services = SimServices::simulated(
        std::sync::Arc::new(world),
        ServerConfig { metrics: Some(server_metrics.clone()), ..crawler::default_server_config() },
    )
    .expect("services");
    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.clock = services.clock.clone();
    crawler.config.enum_gap_tolerance = 600;
    crawler.enable_revalidation(1 << 14);
    let coalesced = || server_metrics.snapshot().counter("conn.coalesced").unwrap_or(0);

    let first = crawler.full_crawl();
    let (coalesced_first, snap_first) = (coalesced(), crawler.metrics.snapshot());
    let second = crawler.full_crawl();
    let snap = crawler.metrics.snapshot();

    assert_eq!(persist_bytes(&second, "second"), persist_bytes(&first, "first"));
    assert!(second.dead_letters().is_empty());
    assert!(coalesced_first > 0, "the first crawl was pipelined");
    assert!(coalesced() > coalesced_first, "the re-crawl was pipelined");
    let revalidated = counter_sum(&snap, "http.", ".not_modified")
        - counter_sum(&snap_first, "http.", ".not_modified");
    assert!(
        revalidated * 2 > second.stats.requests.load(std::sync::atomic::Ordering::Relaxed),
        "most of the re-crawl ({revalidated} of its requests) resolved from the cache"
    );
    let served: u64 = [&services.dissenter, &services.gab, &services.reddit, &services.youtube]
        .iter()
        .map(|s| s.requests_served())
        .sum();
    assert_eq!(counter_sum(&snap, "http.", ".requests"), served, "client and server books agree");
}
