//! Durable-crawl integration: journal a crawl through the segmented
//! WAL, kill it at a seeded failpoint, and prove resume reconstructs a
//! store byte-identical to an uninterrupted run — with the completed
//! phases replayed from disk instead of re-fetched.

use crawler::journal::is_kill_error;
use crawler::{Crawler, DurableConfig, Endpoints, Failpoint, Phase};
use platform::World;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::SimServices;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!("durable-crawl-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        Self(d)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn tiny_world() -> Arc<World> {
    let cfg = WorldConfig { scale: Scale::Custom(0.001), ..WorldConfig::small() };
    let (world, _) = synth::generate(&cfg);
    Arc::new(world)
}

fn crawler_for(services: &SimServices) -> Crawler {
    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.clock = services.clock.clone();
    crawler.config.enum_gap_tolerance = 600;
    crawler.enable_revalidation(1 << 14);
    crawler
}

fn persist_bytes(store: &crawler::CrawlStore, dir: &Path) -> Vec<(String, Vec<u8>)> {
    crawler::persist::save(store, dir).expect("persist");
    crawler::persist::FILES
        .iter()
        .map(|f| (f.to_string(), std::fs::read(dir.join(f)).unwrap()))
        .collect()
}

/// Assert two persisted stores are byte-identical, reporting the first
/// differing line per file instead of dumping whole archives.
fn assert_identical(got: &[(String, Vec<u8>)], want: &[(String, Vec<u8>)], context: &str) {
    let mut diffs = Vec::new();
    for ((name, g), (_, w)) in got.iter().zip(want.iter()) {
        if g == w {
            continue;
        }
        let gs = String::from_utf8_lossy(g);
        let ws = String::from_utf8_lossy(w);
        match gs.lines().zip(ws.lines()).enumerate().find(|(_, (a, b))| a != b) {
            Some((i, (a, b))) => {
                diffs.push(format!("{name}:{}\n  got:  {a}\n  want: {b}", i + 1))
            }
            None => diffs.push(format!(
                "{name}: line counts differ (got {} want {})",
                gs.lines().count(),
                ws.lines().count()
            )),
        }
    }
    assert!(diffs.is_empty(), "{context}:\n{}", diffs.join("\n"));
}

#[test]
fn killed_crawl_resumes_to_a_byte_identical_store() {
    let world = tiny_world();
    let services =
        SimServices::simulated(world, crawler::default_server_config()).expect("services");

    // Uninterrupted reference run, journaled, to learn the op count.
    let reference_dir = TempDir::new("ref");
    let crawler = crawler_for(&services);
    let reference =
        crawler.full_crawl_durable(&reference_dir.0, &DurableConfig::default()).expect("reference");
    let total_ops = crawler
        .metrics
        .snapshot()
        .counter("wal.appends")
        .expect("journaled run must count appends");
    assert!(total_ops > 10, "too few journal ops ({total_ops}) to place a kill");

    let ref_dump = TempDir::new("refdump");
    let ref_bytes = persist_bytes(&reference, &ref_dump.0);

    // Kill mid-journal (~60% through, torn tail on), then resume.
    for torn in [false, true] {
        let kill_at = if torn { total_ops * 3 / 5 } else { total_ops / 3 };
        let dir = TempDir::new(if torn { "killed-torn" } else { "killed" });
        let cfg = DurableConfig {
            failpoint: Failpoint { kill_at_op: Some(kill_at), torn_tail: torn },
            ..DurableConfig::default()
        };
        let killed = crawler_for(&services);
        let err = killed.full_crawl_durable(&dir.0, &cfg).expect_err("failpoint must kill");
        assert!(is_kill_error(&err), "unexpected error: {err}");

        let resumer = crawler_for(&services);
        let (resumed, info) =
            resumer.resume(&dir.0, &DurableConfig::default()).expect("resume");
        assert!(info.completed < Phase::ALL.len(), "a kill must interrupt some phase");
        assert_eq!(info.torn_tail_recovered, torn, "torn tail must round-trip");

        let dump = TempDir::new(if torn { "resdump-torn" } else { "resdump" });
        let resumed_bytes = persist_bytes(&resumed, &dump.0);
        assert_identical(
            &resumed_bytes,
            &ref_bytes,
            &format!("resumed store must match the uninterrupted run (torn={torn})"),
        );

        // Completed phases were replayed from disk, not re-fetched.
        let snap = resumer.metrics.snapshot();
        for phase in &Phase::ALL[..info.completed] {
            let attempted =
                snap.counter(&format!("crawl.{}.attempted", phase.name())).unwrap_or(0);
            assert_eq!(attempted, 0, "phase {} re-fetched after recovery", phase.name());
        }
        // The interrupted phase's partial progress answers with 304s.
        let not_modified: u64 = ["dissenter", "gab", "reddit", "youtube"]
            .iter()
            .filter_map(|s| snap.counter(&format!("http.{s}.not_modified")))
            .sum();
        assert!(
            not_modified >= info.uncheckpointed_reval as u64,
            "resume must revalidate at least its journaled partial progress \
             ({not_modified} < {})",
            info.uncheckpointed_reval
        );
    }
}

#[test]
fn recovery_is_idempotent_before_resume() {
    let world = tiny_world();
    let services =
        SimServices::simulated(world, crawler::default_server_config()).expect("services");

    let dir = TempDir::new("idem");
    let cfg = DurableConfig {
        failpoint: Failpoint { kill_at_op: Some(40), torn_tail: true },
        ..DurableConfig::default()
    };
    let killed = crawler_for(&services);
    assert!(killed.full_crawl_durable(&dir.0, &cfg).is_err());

    // Opening the killed journal twice must yield the same state (the
    // first open truncates the torn tail; the second sees a clean log).
    let open = |tag: &str| {
        let (_, state) = crawler::journal::Journal::recover(
            &dir.0,
            &DurableConfig::default(),
            obs::Registry::new(),
        )
        .expect("recover");
        let dump = TempDir::new(tag);
        (state.completed, persist_bytes(&state.store, &dump.0))
    };
    let (completed_a, bytes_a) = open("idem-a");
    let (completed_b, bytes_b) = open("idem-b");
    assert_eq!(completed_a, completed_b);
    assert_eq!(bytes_a, bytes_b, "double recovery must not change the store");
}

#[test]
fn resume_skips_nothing_when_the_journal_is_complete() {
    let world = tiny_world();
    let services =
        SimServices::simulated(world, crawler::default_server_config()).expect("services");

    let dir = TempDir::new("complete");
    let crawler = crawler_for(&services);
    let store = crawler.full_crawl_durable(&dir.0, &DurableConfig::default()).expect("crawl");

    let resumer = crawler_for(&services);
    let (resumed, info) = resumer.resume(&dir.0, &DurableConfig::default()).expect("resume");
    assert_eq!(info.completed, Phase::ALL.len());

    let d1 = TempDir::new("complete-a");
    let d2 = TempDir::new("complete-b");
    assert_identical(
        &persist_bytes(&resumed, &d2.0),
        &persist_bytes(&store, &d1.0),
        "replaying a complete journal must reproduce the store",
    );
    // Nothing was fetched at all.
    let snap = resumer.metrics.snapshot();
    for phase in Phase::ALL {
        let attempted = snap.counter(&format!("crawl.{}.attempted", phase.name())).unwrap_or(0);
        assert_eq!(attempted, 0, "complete journal must not trigger fetches");
    }
}
