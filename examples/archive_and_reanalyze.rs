//! Archive a crawl, then re-analyze it offline — the workflow the paper's
//! own "we effectively mirror the Dissenter database" implies.
//!
//! ```sh
//! cargo run --release --example archive_and_reanalyze
//! ```
//!
//! Crawls a small world once, saves the mirror as JSON-Lines, loads it
//! back, rebuilds the full §4 report from the archive, and checks that
//! every headline number survives the round trip. No HTTP happens in the
//! second half: analysis is fully decoupled from collection.

use analysis::report::{build_report_pooled_opts, ReportOptions};
use crawler::{persist, Crawler, Endpoints};
use std::sync::Arc;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::SimServices;

fn main() {
    let cfg = WorldConfig { scale: Scale::Custom(0.002), ..WorldConfig::small() };
    println!("generating and crawling a 1/500-scale world…");
    let (world, _) = synth::generate(&cfg);
    let baselines = world.baselines.clone();
    let world = Arc::new(world);
    let services =
        SimServices::start(world.clone(), crawler::default_server_config()).expect("services");
    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.config.enum_gap_tolerance = 600;
    let store = crawler.full_crawl();
    drop(services); // the services are gone; only the mirror remains

    let dir = std::env::temp_dir().join("dissenter-archive-example");
    persist::save(&store, &dir).expect("archive written");
    let bytes: u64 = persist::FILES
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map(|m| m.len()).unwrap_or(0))
        .sum();
    println!(
        "archived {} comments / {} users / {} URLs as {} JSONL files ({:.1} MiB) in {}",
        store.comments.len(),
        store.users.len(),
        store.urls.len(),
        persist::FILES.len(),
        bytes as f64 / (1024.0 * 1024.0),
        dir.display()
    );

    println!("\nreloading the archive and rebuilding the report (no network)…");
    let reloaded = persist::load(&dir).expect("archive loads");
    let pool = httpnet::ThreadPool::new(8, 16);
    let build = |store| {
        build_report_pooled_opts(store, &baselines, &pool, None, &ReportOptions::default())
    };
    let report = build(&reloaded);
    let fresh = build(&store);
    let checks = [
        ("comments", report.overview.comments, fresh.overview.comments),
        ("urls", report.overview.urls, fresh.overview.urls),
        ("active users", report.overview.active_users, fresh.overview.active_users),
        ("nsfw", report.overview.nsfw_comments, fresh.overview.nsfw_comments),
        ("offensive", report.overview.offensive_comments, fresh.overview.offensive_comments),
        ("social users", report.social.users, fresh.social.users),
        ("core size", report.social.core.size(), fresh.social.core.size()),
    ];
    println!("{:<14} {:>10} {:>10}", "quantity", "archive", "fresh");
    let mut ok = true;
    for (name, a, b) in checks {
        println!("{name:<14} {a:>10} {b:>10} {}", if a == b { "✓" } else { "✗" });
        ok &= a == b;
    }
    std::fs::remove_dir_all(&dir).ok();
    if ok {
        println!("\nround trip exact: the archive is a faithful mirror.");
    } else {
        println!("\nround trip diverged — investigate persist.rs!");
        std::process::exit(1);
    }
}
