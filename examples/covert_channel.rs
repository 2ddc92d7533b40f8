//! The §6 covert-channel scenario: "any URL is a potential anchor for a
//! Dissenter comment thread … The URL need not exist, can use any
//! arbitrary scheme, and could be shared among users wishing to engage in
//! a hidden conversation."
//!
//! ```sh
//! cargo run --release --example covert_channel
//! ```
//!
//! Two parties agree on a fictitious URL out-of-band, hold a conversation
//! in its comment thread (labeled NSFW so default viewers see nothing —
//! the shadow overlay inside the overlay), and we then show what each
//! class of observer can see over real HTTP, plus how the §4.2.1 URL
//! census would flag the anchor as anomalous.

use httpnet::Client;
use ids::{EntityKind, ObjectIdGen, DISSENTER_LAUNCH};
use platform::{Comment, CommentUrl, Viewer};
use std::sync::Arc;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::SimServices;

fn main() {
    // A small cover world of normal traffic.
    let cfg = WorldConfig { scale: Scale::Custom(0.002), ..WorldConfig::small() };
    let (mut world, _) = synth::generate(&cfg);

    // The agreed-upon anchor: a browser-internal URL that no web server
    // will ever serve. Dissenter happily mints a thread for it.
    let anchor = "chrome://secret-meeting-point/";
    let mut url_gen = ObjectIdGen::new(EntityKind::CommentUrl, 0xC0FFEE);
    let mut comment_gen = ObjectIdGen::new(EntityKind::Comment, 0xC0FFEE);
    let t0 = DISSENTER_LAUNCH + 10_000_000;
    let thread = CommentUrl {
        id: url_gen.next(t0),
        url: anchor.into(),
        title: String::new(),
        description: String::new(),
        created_at: t0,
        upvotes: 0,
        downvotes: 0,
    };
    let thread_id = world.dissenter.add_url(thread).expect("fresh anchor URL");

    // Two existing Dissenter users exchange messages, labeled NSFW so that
    // even Dissenter users with default settings see nothing.
    let speakers: Vec<_> = world
        .users
        .iter()
        .filter(|u| u.author_id.is_some() && !u.gab_deleted)
        .take(2)
        .map(|u| (u.username.clone(), u.author_id.expect("dissenter")))
        .collect();
    let messages = [
        "the package arrives tuesday",
        "confirmed. same place as before",
        "bring the second set of documents",
    ];
    for (i, msg) in messages.iter().enumerate() {
        let (_, author) = &speakers[i % 2];
        world.dissenter.add_comment(Comment {
            id: comment_gen.next(t0 + i as u64 * 60),
            url_id: thread_id,
            author_id: *author,
            parent: None,
            text: (*msg).into(),
            created_at: t0 + i as u64 * 60,
            nsfw: true,
            offensive: false,
        });
    }

    // What does each observer see?
    println!("covert anchor: {anchor}");
    println!("thread id:     {thread_id}\n");
    let anon = world.dissenter.visible_comments(thread_id, Viewer::Anonymous);
    let default_user = world.dissenter.visible_comments(thread_id, Viewer::logged_in_default());
    let insider = world.dissenter.visible_comments(thread_id, Viewer::with_nsfw());
    println!("anonymous visitor sees:        {} comments", anon.len());
    println!("default Dissenter user sees:   {} comments", default_user.len());
    println!("opted-in conspirator sees:     {} comments", insider.len());
    for c in &insider {
        println!("    [{}] {}", &c.author_id.to_hex()[..8], c.text);
    }

    // Over the wire, exactly as the participants would do it.
    let services =
        SimServices::simulated(Arc::new(world), crawler::default_server_config())
            .expect("services");
    let mut client = Client::builder(services.dissenter.addr()).build();
    let page = client
        .get(&webfront::dissenter::discussion_target(anchor))
        .expect("lookup succeeds");
    println!("\nHTTP lookup of the anchor redirects to the hidden thread: {}", page.status);
    client.set_cookie("session", "crawler:nsfw");
    let hidden = client
        .get(&format!("/url/{thread_id}"))
        .expect("thread page");
    let scraped = crawler::spider::parse_comment_page(&hidden.body).expect("parses");
    println!("authenticated fetch recovers {} hidden messages", scraped.1.len());

    // The measurement counter-move: the §4.2.1 census flags non-web
    // schemes, which is how the paper noticed this channel exists.
    let census = analysis::url::census([anchor].into_iter());
    println!(
        "\nURL census over the anchor: browser-internal URLs = {} (the paper's tell)",
        census.browser_urls
    );

    // And the full counter-measurement: crawl the platform like the paper
    // did and run the covert-channel detector (§6 extension) — the hidden
    // conversation surfaces among the candidates.
    println!("\nrunning the full crawl + covert-channel detector…");
    let mut crawler = crawler::Crawler::new(crawler::Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.clock = services.clock.clone();
    crawler.config.enum_gap_tolerance = 600;
    let store = crawler.full_crawl();
    let candidates = analysis::covert::detect_covert_channels(
        &store,
        analysis::covert::CovertConfig::default(),
    );
    println!("flagged {} candidate threads; top hits:", candidates.len());
    for c in candidates.iter().take(5) {
        println!(
            "  {:<45} comments={:<4} authors={:<3} signals={:?}",
            c.url, c.comments, c.authors, c.signals
        );
    }
    let ours = candidates.iter().find(|c| c.url == anchor);
    match ours {
        Some(c) => println!("\nthe planted channel WAS detected with signals {:?}", c.signals),
        None => println!("\nthe planted channel escaped detection — tune the thresholds!"),
    }
}
