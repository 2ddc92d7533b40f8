//! `recovery` suite: measure the WAL's journaling overhead against a
//! plain in-memory crawl, then kill a journaled crawl two WAL ops before
//! completion and time the recovery + resume path.
//!
//! Gates: journaling keeps the crawl within 25% of the WAL-off
//! wall-clock (plain crawl + one final `persist::save`); both regimes
//! did the same work (equal request counts, no throttle waits); the
//! journaled store is byte-identical to the plain one and the resumed
//! store to the uninterrupted journaled one; resume replayed every
//! completed phase from disk without a single re-fetch; and the
//! interrupted phase's partial progress was revalidated via
//! `304 Not Modified` rather than re-downloaded.
//!
//! Every crawl runs against one set of services on simulated time with
//! the production rate limits. Each timed pass, and the killed run,
//! starts one Dissenter window after the previous crawl, so no pass
//! inherits a spent window; the resume does not, and waits out the
//! window its killed predecessor spent by advancing the clock.

use bench::report::{Args, BenchReport, Op};
use crawler::journal::is_kill_error;
use crawler::{Crawler, DurableConfig, Endpoints, Failpoint, Phase};
use jsonlite::Value;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synth::config::Scale;
use synth::WorldConfig;

pub const FLAGS: &[&str] = &["--scale <f64>", "--seed <n>"];

/// Persist `store` under `dir` and read the canonical files back.
fn persist_bytes(store: &crawler::CrawlStore, dir: &Path) -> Vec<Vec<u8>> {
    crawler::persist::save(store, dir).expect("persist store");
    crawler::persist::FILES
        .iter()
        .map(|f| std::fs::read(dir.join(f)).expect("read persisted file"))
        .collect()
}

pub fn run(args: &Args) -> Result<BenchReport, String> {
    let scale: f64 = args.get("--scale", 0.003)?;
    let seed: u64 = args.get("--seed", 0xD15C_BE6C)?;
    let mut report =
        BenchReport::new("recovery", Value::object().with("scale", scale).with("seed", seed));

    let cfg = WorldConfig { seed, scale: Scale::Custom(scale), ..WorldConfig::small() };
    let (world, _) = synth::generate(&cfg);
    let world = Arc::new(world);
    let services = webfront::SimServices::simulated(world.clone(), crawler::default_server_config())
        .expect("failed to start simulated services");
    let window = platform::RateLimiter::dissenter_per_url().window_secs();
    let next_window = || services.clock.wait(Duration::from_secs(window));
    let crawler_for = || {
        let mut crawler = Crawler::new(Endpoints {
            dissenter: services.dissenter.addr(),
            gab: services.gab.addr(),
            reddit: services.reddit.addr(),
            youtube: services.youtube.addr(),
        });
        crawler.clock = services.clock.clone();
        crawler.config.enum_gap_tolerance =
            crawler.config.enum_gap_tolerance.min((world.gab.max_id() / 4).max(512));
        crawler.enable_revalidation(1 << 16);
        crawler
    };

    let base = std::env::temp_dir().join(format!("bench-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    // Warm the server-side render caches so the timed regimes see the
    // same steady state (the first crawl pays every render; neither
    // timed pass should).
    crawler_for().full_crawl();

    // Each regime runs twice and keeps the faster wall-clock: the
    // crawls are deterministic, so the spread is pure scheduler/fs
    // noise and the minimum is the honest cost.
    fn best_of<F: FnMut(usize) -> u64>(mut run: F) -> u64 {
        (0..2).map(&mut run).min().unwrap()
    }
    // (requests, throttle waits) of every timed pass, both regimes.
    let mut work: Vec<(u64, u64)> = Vec::new();
    let mut record = |store: &crawler::CrawlStore| {
        let stats = &store.stats;
        work.push((
            stats.requests.load(Ordering::Relaxed),
            stats.rate_limit_sleeps.load(Ordering::Relaxed),
        ));
    };

    // Regime A: plain in-memory crawl plus the single final
    // `persist::save` any real run pays — the honest alternative to
    // journaling is durable-once-at-the-end, not never-durable.
    let mut store_off = None;
    let wal_off_ms = best_of(|_| {
        next_window();
        let started = Instant::now();
        let store = crawler_for().full_crawl();
        crawler::persist::save(&store, &base.join("persist-off")).expect("persist store");
        let elapsed = started.elapsed().as_millis() as u64;
        // Drop the output before its writeback can stall the next timed
        // run (an unlinked dirty page never reaches the disk).
        std::fs::remove_dir_all(base.join("persist-off")).ok();
        record(&store);
        store_off = Some(store);
        elapsed
    });
    let store_off = store_off.unwrap();

    // Regime B: same crawl journaled through the segmented WAL.
    let mut on_result = None;
    let wal_on_ms = best_of(|i| {
        next_window();
        let on = crawler_for();
        let started = Instant::now();
        let store = on
            .full_crawl_durable(&base.join(format!("wal-{i}")), &DurableConfig::default())
            .expect("journaled crawl");
        let elapsed = started.elapsed().as_millis() as u64;
        std::fs::remove_dir_all(base.join(format!("wal-{i}"))).ok();
        record(&store);
        on_result = Some((store, on));
        elapsed
    });
    let (store_on, on) = on_result.unwrap();
    let snap_on = on.metrics.snapshot();
    let on_counter = |name: &str| snap_on.counter(name).unwrap_or(0);
    let total_ops = on_counter("wal.appends");
    let overhead_ratio = wal_on_ms as f64 / (wal_off_ms as f64).max(1.0);
    report.metric("wal_off", Value::object().with("wall_ms", wal_off_ms));
    report.metric(
        "wal_on",
        Value::object()
            .with("wall_ms", wal_on_ms)
            .with("appends", total_ops)
            .with("fsyncs", on_counter("wal.fsyncs"))
            .with("rotations", on_counter("wal.rotations"))
            .with("snapshots_written", on_counter("snapshot.written"))
            .with("snapshot_bytes", on_counter("snapshot.bytes")),
    );
    report.metric("overhead_ratio", overhead_ratio);
    report.gate("wal.appends", total_ops as f64, Op::Gt, 2.0);
    if total_ops <= 2 {
        // Too few ops to place a late kill; the failed gate says why.
        std::fs::remove_dir_all(&base).ok();
        return Ok(report);
    }

    // Kill two ops short of a complete journal (mid final commit, torn
    // tail on) and time the recovery + resume path.
    let kill_at = total_ops - 2;
    let killed_dir = base.join("killed");
    let kill_cfg = DurableConfig {
        failpoint: Failpoint { kill_at_op: Some(kill_at), torn_tail: true },
        ..DurableConfig::default()
    };
    next_window();
    let killed = crawler_for().full_crawl_durable(&killed_dir, &kill_cfg);
    match &killed {
        Ok(_) => eprintln!("recovery: the failpoint did not kill the crawl"),
        Err(e) if !is_kill_error(e) => eprintln!("recovery: kill surfaced a foreign error: {e}"),
        Err(_) => {}
    }

    let resumer = crawler_for();
    let started = Instant::now();
    let (resumed, info) = resumer.resume(&killed_dir, &DurableConfig::default()).expect("resume");
    let resume_ms = started.elapsed().as_millis() as u64;
    let snap_res = resumer.metrics.snapshot();
    let res_counter = |name: &str| snap_res.counter(name).unwrap_or(0);
    let replayed_records = res_counter("wal.replayed_records");
    let not_modified: u64 = ["dissenter", "gab", "reddit", "youtube"]
        .iter()
        .map(|s| res_counter(&format!("http.{s}.not_modified")))
        .sum();
    let refetched_completed: u64 = Phase::ALL[..info.completed]
        .iter()
        .map(|p| res_counter(&format!("crawl.{}.attempted", p.name())))
        .sum();

    let bytes_off = persist_bytes(&store_off, &base.join("persist-off"));
    let bytes_on = persist_bytes(&store_on, &base.join("persist-on"));
    let bytes_resumed = persist_bytes(&resumed, &base.join("persist-resumed"));
    std::fs::remove_dir_all(&base).ok();

    report.metric(
        "recovery",
        Value::object()
            .with("kill_at_op", kill_at)
            .with("total_ops", total_ops)
            .with("completed_phases", info.completed as u64)
            .with("uncheckpointed_reval", info.uncheckpointed_reval as u64)
            .with("torn_tail_recovered", info.torn_tail_recovered)
            .with("resume_ms", resume_ms)
            .with("replayed_records", replayed_records)
            .with("not_modified", not_modified)
            .with("refetched_completed_phase_pages", refetched_completed),
    );
    println!(
        "recovery: crawl {wal_off_ms} ms plain vs {wal_on_ms} ms journaled \
         ({overhead_ratio:.3}x); killed at op {kill_at}/{total_ops}, resumed in {resume_ms} ms \
         ({replayed_records} records replayed, {not_modified} revalidations)"
    );

    report.check("kill.failpoint", matches!(&killed, Err(e) if is_kill_error(e)));
    report.gate("overhead_ratio", overhead_ratio, Op::Le, 1.25);
    let equal_work = work.iter().all(|&(requests, sleeps)| requests == work[0].0 && sleeps == 0);
    if !equal_work {
        eprintln!("recovery: timed passes did unequal work (requests, throttle waits): {work:?}");
    }
    report.check("regimes.equal_work", equal_work);
    report.check("journal_invisible", bytes_on == bytes_off);
    report.check("resume.store_identical", bytes_resumed == bytes_on);
    report.gate("resume.refetched_completed_phase_pages", refetched_completed as f64, Op::Eq, 0.0);
    report.gate("resume.not_modified", not_modified as f64, Op::Gt, 0.0);
    report.gate("resume.replayed_records", replayed_records as f64, Op::Gt, 0.0);
    Ok(report)
}
