//! Live crawl under adverse network conditions.
//!
//! ```sh
//! cargo run --release --example live_crawl
//! ```
//!
//! Starts the simulated services with fault injection enabled (dropped
//! connections, injected 500s, added latency — the smoltcp-style adversity
//! knobs), then runs the full §3 crawl and shows that the retry/timeout
//! hygiene of §4.3.1 still reconstructs the platform exactly.

use crawler::{Crawler, Endpoints};
use httpnet::{FaultConfig, ServerConfig};
use std::sync::Arc;
use std::time::Duration;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::SimServices;

fn main() {
    let cfg = WorldConfig { scale: Scale::Custom(0.002), ..WorldConfig::small() };
    println!("generating world…");
    let (world, _) = synth::generate(&cfg);
    let truth_comments = world.dissenter.total_comments();
    let truth_urls = world.dissenter.url_count();
    let world = Arc::new(world);

    // 3% dropped connections, 2% injected 500s, 1% truncations and
    // resets, 0–2 ms jitter.
    let server_cfg = ServerConfig {
        faults: FaultConfig {
            drop_prob: 0.03,
            error_prob: 0.02,
            truncate_prob: 0.01,
            reset_prob: 0.01,
            jitter: Duration::from_millis(2),
            seed: 42,
            ..FaultConfig::none()
        },
        ..Default::default()
    };
    let services = SimServices::simulated(world.clone(), server_cfg).expect("services");
    println!(
        "services up: dissenter={} gab={} reddit={} youtube={} (faults ON)",
        services.dissenter.addr(),
        services.gab.addr(),
        services.reddit.addr(),
        services.youtube.addr()
    );

    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.clock = services.clock.clone();
    crawler.config.retries = 6;
    crawler.config.backoff = Duration::from_millis(5);
    crawler.config.enum_gap_tolerance = 600;

    println!("crawling through the faults…");
    let start = std::time::Instant::now();
    let store = crawler.full_crawl();
    let elapsed = start.elapsed();

    use std::sync::atomic::Ordering;
    println!("\ncrawl finished in {:.1}s", elapsed.as_secs_f64());
    println!("requests issued:   {}", store.stats.requests.load(Ordering::Relaxed));
    println!("retries:           {}", store.stats.retries.load(Ordering::Relaxed));
    println!("permanent fails:   {}", store.stats.failures.load(Ordering::Relaxed));
    println!(
        "mirror: {}/{} comments, {}/{} URLs, {} users",
        store.comments.len(),
        truth_comments,
        store.urls.len(),
        truth_urls,
        store.users.len()
    );
    let (sampled, confirmed) = store.shadow_validation;
    println!("shadow validation: {confirmed}/{sampled} confirmed");
    println!("\nper-phase coverage:");
    for (phase, snap) in store.stats.phase_snapshots() {
        println!(
            "  {:9} attempted={} succeeded={} retried={} dead_lettered={}",
            phase.name(),
            snap.attempted,
            snap.succeeded,
            snap.retried,
            snap.dead_lettered
        );
    }
    let dead = store.dead_letters();
    if !dead.is_empty() {
        println!("dead letters ({}):", dead.len());
        for d in dead.iter().take(10) {
            println!("  [{}] {} — {}", d.phase.name(), d.target, d.cause);
        }
    }

    if store.comments.len() == truth_comments && store.urls.len() == truth_urls {
        println!("\nreconstruction is EXACT despite the injected faults.");
    } else {
        println!("\nreconstruction incomplete — inspect retry budget / fault rates.");
    }
}
