//! The crawler's rate-limit etiquette (§3.4): when the Gab API advertises
//! exhaustion via 429 + `X-RateLimit-Reset`, the crawler sleeps until the
//! reset and resumes — completing the crawl rather than failing. The
//! front and the crawler share a simulated clock, so each wait advances
//! it instead of sleeping.

use dissenter_repro::crawler::{gab_enum, CrawlStore, Crawler, Endpoints};
use dissenter_repro::httpnet::{Client, Handler, Server, ServerConfig};
use dissenter_repro::platform::{Clock, RateLimiter, World};
use dissenter_repro::synth::config::Scale;
use dissenter_repro::synth::WorldConfig;
use dissenter_repro::webfront::cache::FrontCache;
use dissenter_repro::webfront::gab::GabFront;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn gab_server(world: World, limiter: RateLimiter, clock: &Clock) -> Server {
    let cache = FrontCache::new(world.content_hash());
    let handler: Arc<dyn Handler> =
        Arc::new(GabFront::with_parts(Arc::new(world), cache, limiter, clock.clone()));
    Server::start(handler, ServerConfig::default()).expect("server")
}

fn tight_gab_server(clock: &Clock) -> (Server, usize) {
    let cfg = WorldConfig { scale: Scale::Custom(0.0005), ..WorldConfig::small() };
    let (world, _) = dissenter_repro::synth::generate(&cfg);
    let accounts = world.gab.account_count();
    // 500 requests per 1-second window: the enumeration (~4k requests)
    // must hit the limiter several times.
    (gab_server(world, RateLimiter::new(500, 1), clock), accounts)
}

#[test]
fn enumeration_survives_tight_rate_limits() {
    let clock = Clock::simulated(dissenter_repro::ids::STUDY_END);
    let (server, accounts) = tight_gab_server(&clock);
    let dummy = server.addr(); // unused endpoints point at the same server
    let mut crawler = Crawler::new(Endpoints {
        dissenter: dummy,
        gab: server.addr(),
        reddit: dummy,
        youtube: dummy,
    });
    crawler.config.enum_gap_tolerance = 300;
    crawler.config.workers = 4;
    crawler.clock = clock;
    let mut store = CrawlStore::default();
    gab_enum::enumerate(&crawler, &mut store);
    assert_eq!(store.gab_accounts.len(), accounts, "complete despite throttling");
    assert!(
        store.stats.rate_limit_sleeps.load(Ordering::Relaxed) > 0,
        "the limiter must have been hit"
    );
}

#[test]
fn rate_limit_headers_present_and_counting() {
    let (server, _) = tight_gab_server(&Clock::simulated(dissenter_repro::ids::STUDY_END));
    let client = Client::builder(server.addr()).build();
    let r1 = client.get("/api/v1/accounts/1").unwrap();
    let rem1: i64 = r1.headers.get("x-ratelimit-remaining").unwrap().parse().unwrap();
    let r2 = client.get("/api/v1/accounts/1").unwrap();
    let rem2: i64 = r2.headers.get("x-ratelimit-remaining").unwrap().parse().unwrap();
    assert_eq!(rem1 - 1, rem2, "remaining counts down");
    assert_eq!(r1.headers.get("x-ratelimit-limit"), Some("500"));
    assert!(r1.headers.get("x-ratelimit-reset").is_some());
}

#[test]
fn denied_requests_report_reset_time() {
    // A small limit inside a wide window trips deterministically: the 41st
    // request lands in the same 4-second window (simulated time stands
    // still between requests).
    let cfg = WorldConfig { scale: Scale::Custom(0.0005), ..WorldConfig::small() };
    let (world, _) = dissenter_repro::synth::generate(&cfg);
    let clock = Clock::simulated(dissenter_repro::ids::STUDY_END);
    let server = gab_server(world, RateLimiter::new(40, 4), &clock);
    let client = Client::builder(server.addr()).build();
    let mut denied = None;
    for _ in 0..100 {
        let r = client.get("/api/v1/accounts/1").unwrap();
        if r.status.0 == 429 {
            denied = Some(r);
            break;
        }
    }
    let denied = denied.expect("limit must trip within 100 requests");
    let reset: u64 = denied.headers.get("x-ratelimit-reset").unwrap().parse().unwrap();
    let now = clock.now();
    assert!(reset >= now && reset <= now + 5, "reset within the short window");
}
