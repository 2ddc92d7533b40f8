//! End-to-end: generate a world, serve it over loopback HTTP, run the full
//! §3 crawl, and verify the reconstruction matches the ground truth.

use crawler::{Crawler, Endpoints};
use platform::World;
use std::sync::{Arc, OnceLock};
use synth::config::Scale;
use synth::world::GroundTruth;
use synth::WorldConfig;
use webfront::SimServices;

struct Fixture {
    world: Arc<World>,
    truth: GroundTruth,
    store: crawler::CrawlStore,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let cfg = WorldConfig { scale: Scale::Custom(0.003), ..WorldConfig::small() };
        let (world, truth) = synth::generate(&cfg);
        let world = Arc::new(world);
        let services =
            SimServices::simulated(world.clone(), crawler::default_server_config())
                .expect("services");
        let mut crawler = Crawler::new(Endpoints {
            dissenter: services.dissenter.addr(),
            gab: services.gab.addr(),
            reddit: services.reddit.addr(),
            youtube: services.youtube.addr(),
        });
        crawler.clock = services.clock.clone();
        crawler.config.enum_gap_tolerance = 600;
        let store = crawler.full_crawl();
        // Keep the servers alive for the store's lifetime by leaking them
        // into the fixture scope.
        std::mem::forget(services);
        Fixture { world, truth, store }
    })
}

#[test]
fn enumeration_finds_every_live_gab_account() {
    let fx = fixture();
    let live = fx.world.gab.account_count();
    assert_eq!(fx.store.gab_accounts.len(), live, "every allocated ID must be discovered");
    // Deleted accounts must NOT appear.
    let deleted = fx.world.users.iter().filter(|u| u.gab_deleted).count();
    assert!(deleted > 0);
    assert_eq!(fx.world.user_count() - deleted, live);
}

#[test]
fn probe_recovers_exactly_the_live_dissenter_users() {
    let fx = fixture();
    let expected: std::collections::BTreeSet<String> = fx
        .world
        .users
        .iter()
        .filter(|u| u.author_id.is_some() && !u.gab_deleted)
        .map(|u| u.username.clone())
        .collect();
    let got: std::collections::BTreeSet<String> =
        fx.store.dissenter_usernames.iter().cloned().collect();
    assert_eq!(got, expected);
}

/// Ground-truth reachability oracle: which URLs and comments *can* a
/// crawler discover? Discovery starts from live (non-deleted) users' home
/// pages and alternates "crawl threads" / "learn new authors from their
/// comments" to a fixpoint — a thread whose only commenters are ghosts
/// with no other activity is undiscoverable, exactly as it would be for
/// the paper's crawl.
fn reachable(world: &platform::World) -> (
    std::collections::HashSet<ids::ObjectId>, // url ids
    std::collections::HashSet<ids::ObjectId>, // comment ids
) {
    use std::collections::HashSet;
    let mut known_authors: HashSet<ids::ObjectId> = world
        .users
        .iter()
        .filter(|u| !u.gab_deleted)
        .filter_map(|u| u.author_id)
        .collect();
    let mut urls: HashSet<ids::ObjectId> = HashSet::new();
    let mut comments: HashSet<ids::ObjectId> = HashSet::new();
    loop {
        let mut grew = false;
        for c in world.dissenter.comments() {
            if known_authors.contains(&c.author_id) && urls.insert(c.url_id) {
                grew = true;
            }
        }
        for c in world.dissenter.comments() {
            if urls.contains(&c.url_id) {
                comments.insert(c.id);
                if known_authors.insert(c.author_id) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    (urls, comments)
}

#[test]
fn spider_mirrors_every_reachable_url_and_comment() {
    let fx = fixture();
    let (urls, comments) = reachable(&fx.world);
    assert_eq!(fx.store.urls.len(), urls.len());
    assert_eq!(
        fx.store.comments.len(),
        comments.len(),
        "all four crawl passes must reconstruct every reachable comment"
    );
    // The oracle covers (nearly) the full corpus: at most a handful of
    // ghost-exclusive threads are legitimately invisible.
    assert!(comments.len() + 5 >= fx.world.dissenter.total_comments());
    // Spot-check one comment body round-trips byte-for-byte.
    let sample = &fx.world.dissenter.comments()[7];
    let got = &fx.store.comments[&sample.id];
    assert_eq!(got.text, sample.text);
    assert_eq!(got.author_id, sample.author_id);
    assert_eq!(got.parent, sample.parent);
}

#[test]
fn shadow_labels_match_ground_truth() {
    let fx = fixture();
    let truth_nsfw = fx.world.dissenter.comments().iter().filter(|c| c.nsfw).count();
    let truth_off = fx.world.dissenter.comments().iter().filter(|c| c.offensive).count();
    assert_eq!(fx.store.nsfw_comments().count(), truth_nsfw);
    assert_eq!(fx.store.offensive_comments().count(), truth_off);
    // Validation pass: every sampled label confirmed.
    let (sampled, confirmed) = fx.store.shadow_validation;
    assert!(sampled > 0);
    assert_eq!(sampled, confirmed, "all sampled shadow labels must validate");
}

#[test]
fn ghost_users_discovered_via_hidden_metadata() {
    let fx = fixture();
    let ghosts: Vec<&platform::User> = fx
        .world
        .users
        .iter()
        .filter(|u| u.gab_deleted && u.author_id.is_some())
        .collect();
    assert!(!ghosts.is_empty());
    let (_, reachable_comments) = reachable(&fx.world);
    let mut discovered = 0;
    for g in &ghosts {
        // Ghosts appear in the crawl iff at least one of their comments is
        // reachable (a ghost whose only thread is exclusive to them is
        // legitimately invisible — to this crawler and to the paper's).
        let visible = fx
            .world
            .dissenter
            .comments_for_author(g.author_id.expect("dissenter"))
            .iter()
            .any(|c| reachable_comments.contains(&c.id));
        if visible {
            assert!(
                fx.store.users.contains_key(&g.username),
                "ghost {} must be discovered",
                g.username
            );
            assert!(!fx.store.dissenter_usernames.contains(&g.username));
            discovered += 1;
        }
    }
    assert!(discovered > 0, "at least one ghost commenter exists at this scale");
}

#[test]
fn hidden_metadata_attached_to_active_users() {
    let fx = fixture();
    let with_meta = fx.store.users.values().filter(|u| u.meta.is_some()).count();
    // Metadata comes from comment pages, so exactly the authors with
    // reachable comments carry it.
    let (_, reachable_comments) = reachable(&fx.world);
    let reachable_authors: std::collections::HashSet<_> = fx
        .world
        .dissenter
        .comments()
        .iter()
        .filter(|c| reachable_comments.contains(&c.id))
        .map(|c| c.author_id)
        .collect();
    assert_eq!(with_meta, reachable_authors.len());
    // Check one user's metadata against the world record.
    let u = fx.store.users.values().find(|u| u.meta.is_some()).expect("some active user");
    let idx = fx.world.user_by_username(&u.username).expect("exists");
    let w = fx.world.user(idx);
    let m = u.meta.as_ref().expect("checked");
    assert_eq!(m.language, w.language);
    assert_eq!(m.filter_nsfw, w.filters.nsfw);
    assert_eq!(m.is_pro, w.flags.is_pro);
}

#[test]
fn youtube_states_crawled_for_all_youtube_urls() {
    let fx = fixture();
    let expect = fx
        .store
        .urls
        .values()
        .filter(|u| platform::youtube::is_youtube_url(&u.url))
        .count();
    assert_eq!(fx.store.youtube.len(), expect);
    assert!(fx.store.youtube.iter().any(|y| y.available));
}

#[test]
fn social_edges_match_world_graph_over_live_users() {
    let fx = fixture();
    // The world's Gab graph is defined over active Dissenter users; the
    // crawler can only see edges whose endpoints still have live Gab
    // accounts.
    let mut expected = 0usize;
    for &idx in &fx.truth.active_indices {
        if fx.world.user(idx).gab_deleted {
            continue;
        }
        for &peer in fx.world.gab.following(idx) {
            if !fx.world.user(peer).gab_deleted {
                expected += 1;
            }
        }
    }
    assert_eq!(fx.store.follow_edges.len(), expected);
}

#[test]
fn reddit_matches_and_histories() {
    let fx = fixture();
    assert_eq!(
        fx.store.reddit.len(),
        fx.store
            .users
            .keys()
            .filter(|name| fx.world.reddit.exists(name))
            .count()
    );
    // Declared totals survive; materialized bodies are capped.
    for m in fx.store.reddit.values().take(20) {
        let declared = fx.world.reddit.declared_count(&m.username).unwrap_or(0);
        assert_eq!(m.total_comments, declared);
        assert!(m.comments.len() as u64 <= declared.max(1));
    }
}

#[test]
fn crawl_stats_recorded() {
    let fx = fixture();
    use std::sync::atomic::Ordering;
    let requests = fx.store.stats.requests.load(Ordering::Relaxed);
    assert!(requests > 1_000, "the crawl must have issued real traffic: {requests}");
}
