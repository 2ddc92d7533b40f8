//! Simulated-clock regression tests (the longitudinal-sweep contract):
//! when the fronts' rate limiters and the crawler share one simulated
//! [`platform::Clock`], throttle waits advance simulated time
//! instead of sleeping, so
//!
//! 1. a crawl against *binding* rate limits finishes in wall-clock
//!    seconds while still exercising the full 429 → sleep-until-reset →
//!    retry loop, and
//! 2. a killed-and-resumed crawl reconstructs the byte-identical
//!    mirror: the resumed run inherits the clock position (not the wall
//!    schedule) of its dead predecessor, so penalty windows and reset
//!    arithmetic replay instead of racing the wall.
//!
//! Before the clock existed, both properties were wall-clock hostages:
//! `RateLimiter` lockouts and the crawler's throttle sleeps keyed off
//! `SystemTime::now()`, so a tight window either serialized the test
//! behind real sleeping or let a resume land unpredictably inside a
//! window its predecessor had spent.

use crawler::journal::is_kill_error;
use crawler::{CrawlStore, Crawler, DurableConfig, Endpoints, Failpoint};
use httpnet::ServerConfig;
use platform::{Clock, RateLimiter, World};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::cache::FrontCache;
use webfront::gab::GabFront;
use webfront::{SimFronts, SimServices};

fn world() -> Arc<World> {
    static W: OnceLock<Arc<World>> = OnceLock::new();
    W.get_or_init(|| {
        let cfg = WorldConfig { scale: Scale::Custom(0.002), ..WorldConfig::small() };
        let (world, _) = synth::generate(&cfg);
        Arc::new(world)
    })
    .clone()
}

/// Fronts whose Gab limiter genuinely binds (50 requests per 60-second
/// window — enumeration alone needs hundreds), all keyed to `clock`.
fn binding_services(clock: &Clock) -> SimServices {
    let w = world();
    let mut fronts = SimFronts::on(w.clone(), clock.clone());
    fronts.gab = Arc::new(GabFront::with_parts(
        w.clone(),
        FrontCache::new(w.content_hash()),
        RateLimiter::new(50, 60),
        clock.clone(),
    ));
    SimServices::start_with(fronts, ServerConfig { workers: 8, queue: 256, ..Default::default() })
        .expect("services")
}

fn clocked_crawler(services: &SimServices) -> Crawler {
    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.config.workers = 1; // deterministic request order
    crawler.config.backoff = Duration::from_millis(1);
    crawler.config.enum_gap_tolerance = 400;
    crawler.clock = services.clock.clone();
    crawler
}

fn persist_bytes(store: &CrawlStore, tag: &str) -> Vec<(&'static str, Vec<u8>)> {
    let dir = std::env::temp_dir().join(format!("simclock-{}-{tag}", std::process::id()));
    crawler::persist::save(store, &dir).expect("save");
    let out = crawler::persist::FILES
        .iter()
        .map(|f| (*f, std::fs::read(dir.join(f)).expect("read")))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn clocked_throttle_advances_sim_time_not_wall() {
    let started = std::time::Instant::now();
    let clock = Clock::simulated(ids::STUDY_END);
    let services = binding_services(&clock);
    let crawler = clocked_crawler(&services);
    let store = crawler.full_crawl();
    std::mem::forget(services);

    let sleeps = store.stats.rate_limit_sleeps.load(std::sync::atomic::Ordering::Relaxed);
    assert!(sleeps > 0, "the 50-req window must bind: {sleeps} throttle sleeps");
    assert!(
        clock.now() > ids::STUDY_END,
        "each throttle must advance the shared clock past the advertised reset"
    );
    assert!(store.dead_letters().is_empty(), "throttling must never dead-letter");

    // The binding-limit crawl reconstructs the same mirror an unlimited
    // crawl does — rate limiting costs (simulated) time, never data.
    let free = SimServices::simulated(
        world(),
        ServerConfig { workers: 8, queue: 256, ..Default::default() },
    )
    .expect("services");
    let mut reference = Crawler::new(Endpoints {
        dissenter: free.dissenter.addr(),
        gab: free.gab.addr(),
        reddit: free.reddit.addr(),
        youtube: free.youtube.addr(),
    });
    reference.config.workers = 1;
    reference.config.enum_gap_tolerance = 400;
    reference.clock = free.clock.clone();
    let want = reference.full_crawl();
    std::mem::forget(free);
    for ((name, want), (_, have)) in
        persist_bytes(&want, "free").iter().zip(&persist_bytes(&store, "limited"))
    {
        assert_eq!(want, have, "{name} differs between limited and unlimited crawls");
    }

    // Dozens of 60-second windows were waited out; on the wall this
    // must have cost seconds, not minutes.
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "simulated waits leaked onto the wall clock: {:?}",
        started.elapsed()
    );
}

#[test]
fn resumed_crawl_replays_identically_under_sim_clock() {
    let dir = std::env::temp_dir().join(format!("simclock-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Uninterrupted clocked run: the reference mirror.
    let clock = Clock::simulated(ids::STUDY_END);
    let services = binding_services(&clock);
    let crawler = clocked_crawler(&services);
    let want = crawler.full_crawl();
    std::mem::forget(services);

    // Same crawl, killed mid-journal under its own clock...
    let clock = Clock::simulated(ids::STUDY_END);
    let services = binding_services(&clock);
    let mut crawler = clocked_crawler(&services);
    crawler.enable_revalidation(10_000);
    let cfg = DurableConfig {
        failpoint: Failpoint { kill_at_op: Some(12), torn_tail: false },
        ..DurableConfig::default()
    };
    let err = crawler.full_crawl_durable(&dir, &cfg).expect_err("failpoint must kill");
    assert!(is_kill_error(&err), "unexpected error: {err}");
    std::mem::forget(services);

    // ...and resumed against fresh fronts on the *same* clock position,
    // exactly as a longitudinal sweep resumes: simulated time carries
    // over, so spent rate windows stay spent.
    let services = binding_services(&clock);
    let mut resumer = clocked_crawler(&services);
    resumer.enable_revalidation(10_000);
    let (resumed, _info) = resumer.resume(&dir, &DurableConfig::default()).expect("resume");
    std::mem::forget(services);
    std::fs::remove_dir_all(&dir).ok();

    for ((name, want), (_, have)) in
        persist_bytes(&want, "ref").iter().zip(&persist_bytes(&resumed, "resumed"))
    {
        assert_eq!(want, have, "{name} differs between uninterrupted and resumed crawls");
    }
}
