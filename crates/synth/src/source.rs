//! Streaming world generation: [`WorldSource`] + [`WorldBatch`].
//!
//! [`WorldSource::new`] runs every *structural* sampling pass — users,
//! activity, URLs, comment slots, labels, votes, YouTube states, the
//! Reddit mirror, baseline specs — in exactly the per-section seed-stream
//! order of the materializing generator, but records plan vectors instead
//! of writing a [`World`]. Iterating the source then yields
//! [`WorldBatch`]es whose comment/Reddit/baseline *texts* are synthesized
//! lazily, batch by batch, each from the seed stream of its original item
//! index ([`TextGen::generate_batch_indexed`]). Consequences:
//!
//! * **Byte-identity.** Collecting every batch into a `World` reproduces
//!   [`crate::world::generate`] bit for bit at any worker count and any
//!   batch size — the `scale.stream` simcheck family holds this
//!   across seeds.
//! * **Bounded text memory.** The dominant transient of the materializing
//!   path — every comment text held in a side vector, then cloned into
//!   the store — never exists: at most one batch of texts is in flight,
//!   and each is *moved* into the consumer.
//!
//! ```no_run
//! use synth::{WorldConfig, WorldSource};
//!
//! let source = WorldSource::new(&WorldConfig::small(), 2);
//! let mut world = platform::World::new();
//! for batch in source {
//!     batch.apply(&mut world); // or inspect/spill instead of applying
//! }
//! ```

use crate::baselines::{sample_spec, Community};
use crate::config::{paper, WorldConfig};
use crate::dist::{beta, child_seed, coin, geometric, power_law_int, Categorical};
use crate::names;
use crate::social::{generate_social, SocialConfig};
use crate::textgen::{CommentSpec, TextGen};
use crate::world::{bias_attack_mult, bias_severity_mult, domain_bias, Bias, GroundTruth};
use ids::{
    clock::{from_ymd, GAB_LAUNCH},
    EntityKind, GabIdAllocator, ObjectId, ObjectIdGen, Timestamp, DISSENTER_LAUNCH, STUDY_END,
};
use platform::{
    BaselineCorpus, Comment, CommentUrl, User, UserFlags, ViewFilters, Vote, World, YtContent,
    YtKind, YtState, YtUnavailableReason,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textkit::langid::Lang;

/// Default number of items per yielded [`WorldBatch`].
pub const DEFAULT_BATCH_SIZE: usize = 8_192;

/// A comment fully planned structurally; only its text is outstanding.
#[derive(Debug, Clone, Copy)]
struct PlannedComment {
    id: ObjectId,
    url_id: ObjectId,
    author_id: ObjectId,
    parent: Option<ObjectId>,
    created: Timestamp,
    nsfw: bool,
    offensive: bool,
    spec: CommentSpec,
    /// Index into the tag-13 text stream; `None` for the synthetic 90k-
    /// character "ha" comment, whose text is fixed by its spec alone.
    text_index: Option<u64>,
}

/// One increment of world state, in application order.
///
/// Batches arrive users → follows → URLs → comments → votes → YouTube →
/// Reddit accounts → Reddit comments → baselines; [`WorldBatch::apply`]
/// replays one onto a [`World`].
#[derive(Debug)]
pub enum WorldBatch {
    /// Users in creation (Gab-ID counter) order.
    Users(Vec<User>),
    /// Follower edges `(from, to)` over world user indices.
    Follows(Vec<(u32, u32)>),
    /// Commented URLs (deduplicated, ids assigned).
    Urls(Vec<CommentUrl>),
    /// Comments in creation order, texts synthesized for this batch only.
    Comments(Vec<Comment>),
    /// Vote bursts `(url id, direction, count)` in draw order.
    Votes(Vec<(ObjectId, Vote, u32)>),
    /// YouTube content states keyed by URL.
    Youtube(Vec<(String, YtContent)>),
    /// Reddit mirror accounts `(username, declared comment count)`.
    RedditAccounts(Vec<(String, u64)>),
    /// Materialized Reddit comments `(username, text)`.
    RedditComments(Vec<(String, String)>),
    /// One Table-3 baseline corpus.
    Baseline(BaselineCorpus),
}

impl WorldBatch {
    /// Replay this batch onto `world`.
    pub fn apply(self, world: &mut World) {
        match self {
            WorldBatch::Users(users) => {
                for u in users {
                    world.add_user(u);
                }
            }
            WorldBatch::Follows(edges) => {
                for (a, b) in edges {
                    world.gab.follow(a, b);
                }
            }
            WorldBatch::Urls(urls) => {
                for u in urls {
                    world.dissenter.add_url(u).expect("urls deduplicated at generation");
                }
            }
            WorldBatch::Comments(comments) => {
                for c in comments {
                    world.dissenter.add_comment(c);
                }
            }
            WorldBatch::Votes(votes) => {
                for (id, vote, n) in votes {
                    for _ in 0..n {
                        world.dissenter.vote(id, vote);
                    }
                }
            }
            WorldBatch::Youtube(entries) => {
                for (url, content) in entries {
                    world.youtube.put(&url, content);
                }
            }
            WorldBatch::RedditAccounts(accounts) => {
                for (name, declared) in accounts {
                    world.reddit.create_account(&name);
                    world.reddit.set_declared(&name, declared);
                }
            }
            WorldBatch::RedditComments(comments) => {
                for (name, text) in comments {
                    world.reddit.add_comment(&name, text);
                }
            }
            WorldBatch::Baseline(corpus) => world.baselines.push(corpus),
        }
    }

    /// Number of items in this batch.
    pub fn len(&self) -> usize {
        match self {
            WorldBatch::Users(v) => v.len(),
            WorldBatch::Follows(v) => v.len(),
            WorldBatch::Urls(v) => v.len(),
            WorldBatch::Comments(v) => v.len(),
            WorldBatch::Votes(v) => v.len(),
            WorldBatch::Youtube(v) => v.len(),
            WorldBatch::RedditAccounts(v) => v.len(),
            WorldBatch::RedditComments(v) => v.len(),
            WorldBatch::Baseline(c) => c.comments.len(),
        }
    }

    /// Is the batch empty? (Never true for yielded batches.)
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Seed-deterministic streaming generator over the full world.
///
/// Construction performs all structural sampling (cheap, bounded by the
/// plan vectors); iteration yields [`WorldBatch`]es with texts generated
/// per batch. [`WorldSource::collect_world`] is the materializing
/// convenience the legacy `generate*` functions delegate to.
pub struct WorldSource {
    workers: usize,
    batch_size: usize,
    text_seed: u64,
    reddit_seed: u64,
    gen: TextGen,
    truth: GroundTruth,
    users: std::vec::IntoIter<User>,
    follows: std::vec::IntoIter<(u32, u32)>,
    urls: std::vec::IntoIter<CommentUrl>,
    comments: std::vec::IntoIter<PlannedComment>,
    votes: std::vec::IntoIter<(ObjectId, Vote, u32)>,
    youtube: std::vec::IntoIter<(String, YtContent)>,
    reddit_accounts: std::vec::IntoIter<(String, u64)>,
    reddit_comments: std::vec::IntoIter<(String, CommentSpec)>,
    reddit_cursor: u64,
    baselines: std::vec::IntoIter<(String, Vec<CommentSpec>, u64)>,
}

impl std::fmt::Debug for WorldSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSource")
            .field("workers", &self.workers)
            .field("batch_size", &self.batch_size)
            .finish_non_exhaustive()
    }
}

impl WorldSource {
    /// Plan a world: run every structural sampling pass for `cfg` on the
    /// per-section seed streams (identical draws to the materializing
    /// generator) without synthesizing any text.
    pub fn new(cfg: &WorldConfig, workers: usize) -> Self {
        let scale = cfg.scale.factor();
        let mut truth = GroundTruth::default();
        let gen = TextGen::standard();

        // ---- 1. Gab universe ------------------------------------------------
        let mut rng_u = StdRng::seed_from_u64(child_seed(cfg.seed, 1));
        let n_gab = cfg.n(paper::GAB_USERS).max(50);
        let n_diss = cfg.n(paper::DISSENTER_USERS).min(n_gab).max(30);
        let mut alloc = GabIdAllocator::with_paper_anomalies(0.02);
        let mut author_gen = ObjectIdGen::new(EntityKind::Author, child_seed(cfg.seed, 2));

        // Gab creation times: uniform background + two bursts (late-2018
        // deplatformings, Dissenter launch).
        let gab_created = |rng: &mut StdRng| -> Timestamp {
            let r: f64 = rng.gen();
            if r < 0.55 {
                rng.gen_range(GAB_LAUNCH..STUDY_END)
            } else if r < 0.8 {
                rng.gen_range(from_ymd(2018, 10, 1)..from_ymd(2019, 1, 1))
            } else {
                rng.gen_range(DISSENTER_LAUNCH..from_ymd(2019, 6, 1))
            }
        };

        // Dissenter join times: 77% by March 31 2019.
        let diss_join = |rng: &mut StdRng| -> Timestamp {
            if coin(rng, paper::EARLY_JOIN_FRACTION) {
                rng.gen_range(DISSENTER_LAUNCH..from_ymd(2019, 4, 1))
            } else {
                rng.gen_range(from_ymd(2019, 4, 1)..STUDY_END)
            }
        };

        // Generation shares are set slightly above the paper's *detected*
        // shares (see crate::world for the langid rationale).
        let lang_table = Categorical::new(&[
            (Lang::En, 0.942),
            (Lang::De, 0.030),
            (Lang::Fr, 0.0040),
            (Lang::Es, 0.0040),
            (Lang::It, 0.0040),
            (Lang::En, 0.016), // residual languages folded into English
        ]);

        let n_deleted = ((paper::DELETED_GAB_USERS * scale).round() as usize).max(2);
        let n_banned = ((paper::BANNED_USERS * scale).round() as usize).max(2);

        // Creation order must roughly follow time for the Gab ID counter;
        // a Dissenter account requires an existing Gab account, so the
        // join is sampled first and the Gab creation conditioned to
        // precede it (keeps §4.1.1's "77% joined by March 2019" intact).
        let mut creations: Vec<(Timestamp, Option<Timestamp>)> = Vec::with_capacity(n_gab);
        // Special account: @e (the former Gab CTO) holds Gab ID 1.
        creations.push((GAB_LAUNCH - 86_400, None));
        for i in 1..n_gab {
            if i <= n_diss {
                let join = diss_join(&mut rng_u);
                let mut gab_t = gab_created(&mut rng_u);
                if gab_t > join {
                    gab_t = rng_u.gen_range(GAB_LAUNCH..join);
                }
                creations.push((gab_t, Some(join)));
            } else {
                creations.push((gab_created(&mut rng_u), None));
            }
        }
        creations.sort_by_key(|&(t, _)| t);
        debug_assert!(creations[0].1.is_none(), "@e must not be a Dissenter user");

        let mut users: Vec<User> = Vec::with_capacity(creations.len());
        let mut dissenter_count_so_far = 0usize;
        let mut admin_slots: Vec<&str> = vec!["a", "shadowknight412"];
        for (serial, &(gab_t, join_opt)) in creations.iter().enumerate() {
            let is_diss = join_opt.is_some();
            let gab_id = alloc.allocate(gab_t, &mut rng_u);
            let (username, display_name) = if serial == 0 {
                ("e".to_owned(), "Ekrem".to_owned())
            } else if is_diss && !admin_slots.is_empty() {
                let n = admin_slots.pop().expect("non-empty").to_owned();
                let d = if n == "a" { "Andrew Torba".to_owned() } else { "Rob Colbert".to_owned() };
                (n, d)
            } else {
                let u = names::username(&mut rng_u, serial as u64);
                let d = names::display_name(&u);
                (u, d)
            };
            let is_admin = username == "a" || username == "shadowknight412";

            let (author_id, join_t, flags, filters, language, bio, gab_deleted) = if is_diss {
                let join = join_opt.expect("dissenter entries carry a join time").min(STUDY_END);
                let author_id = author_gen.next(join);
                let deleted = !is_admin && dissenter_count_so_far < n_deleted;
                let banned =
                    !is_admin && !deleted && dissenter_count_so_far < n_deleted + n_banned;
                let flags = UserFlags {
                    can_login: !banned && coin(&mut rng_u, 0.9997),
                    can_post: !banned && coin(&mut rng_u, 0.9997),
                    can_report: coin(&mut rng_u, 0.9999),
                    can_chat: coin(&mut rng_u, 0.9997),
                    can_vote: coin(&mut rng_u, 0.9997),
                    is_banned: banned,
                    is_admin,
                    is_moderator: false,
                    is_pro: coin(&mut rng_u, 0.0267),
                    is_donor: coin(&mut rng_u, 0.0084),
                    is_investor: coin(&mut rng_u, 0.0029),
                    is_premium: coin(&mut rng_u, 0.0013),
                    is_tippable: coin(&mut rng_u, 0.0015),
                    is_private: coin(&mut rng_u, 0.039),
                    verified: is_admin || coin(&mut rng_u, 0.0103),
                };
                let filters = ViewFilters {
                    pro: coin(&mut rng_u, 0.9985),
                    verified: coin(&mut rng_u, 0.9987),
                    standard: coin(&mut rng_u, 0.9989),
                    nsfw: coin(&mut rng_u, 0.1504),
                    offensive: coin(&mut rng_u, 0.0733),
                };
                let lang = *lang_table.sample(&mut rng_u);
                let bio = if coin(&mut rng_u, 0.25) {
                    "tired of censorship and cancel culture".to_owned()
                } else if coin(&mut rng_u, 0.3) {
                    "speaking freely about the news".to_owned()
                } else {
                    String::new()
                };
                dissenter_count_so_far += 1;
                (Some(author_id), join, flags, filters, lang.code().to_owned(), bio, deleted)
            } else {
                (
                    None,
                    gab_t,
                    UserFlags { can_login: true, can_post: true, can_report: true, can_chat: true, can_vote: true, ..Default::default() },
                    ViewFilters::default(),
                    "en".to_owned(),
                    String::new(),
                    false,
                )
            };

            let idx = users.len() as u32;
            users.push(User {
                author_id,
                gab_id,
                username,
                display_name,
                bio,
                created_at: if author_id.is_some() { join_t } else { gab_t },
                flags,
                filters,
                language,
                gab_deleted,
            });
            if author_id.is_some() {
                truth.dissenter_indices.push(idx);
            }
        }

        // ---- 2. Activity: who comments, how much ----------------------------
        let mut rng_a = StdRng::seed_from_u64(child_seed(cfg.seed, 3));
        let n_active = ((paper::ACTIVE_FRACTION * truth.dissenter_indices.len() as f64).round()
            as usize)
            .max(20);
        // Ghosts, admins, and banned accounts are forced active (see the
        // materializing generator's rationale); the rest fill by shuffle.
        let mut forced: Vec<u32> = Vec::new();
        let mut others: Vec<u32> = Vec::new();
        for &i in &truth.dissenter_indices {
            let u = &users[i as usize];
            if u.gab_deleted || u.flags.is_admin || u.flags.is_banned {
                forced.push(i);
            } else {
                others.push(i);
            }
        }
        for i in (1..others.len()).rev() {
            others.swap(i, rng_a.gen_range(0..=i));
        }
        let mut candidates = forced;
        candidates.extend(others);
        candidates.truncate(n_active);
        truth.active_indices = candidates;

        // Social graph over active users; planted core members are graph
        // indices into `active_indices`.
        let social_cfg =
            SocialConfig::for_users(truth.active_indices.len(), scale, child_seed(cfg.seed, 4));
        let social = generate_social(&social_cfg);
        let follows: Vec<(u32, u32)> = social
            .edges
            .iter()
            .map(|&(a, b)| {
                (truth.active_indices[a as usize], truth.active_indices[b as usize])
            })
            .collect();
        let core_set: std::collections::HashSet<u32> =
            social.core_members.iter().copied().collect();
        truth.core_author_ids = social
            .core_members
            .iter()
            .map(|&g| {
                users[truth.active_indices[g as usize] as usize]
                    .author_id
                    .expect("core members are Dissenter users")
            })
            .collect();

        // Per-user heat and comment counts (Fig. 3 calibration: see the
        // materializing generator).
        let n_comments_total = cfg.n(paper::COMMENTS);
        let mut counts: Vec<u64> = (0..truth.active_indices.len())
            .map(|_| power_law_int(&mut rng_a, 1.17, 1, ((20_000.0 * scale) as u64).max(3_000)))
            .collect();
        for (g, c) in counts.iter_mut().enumerate() {
            if core_set.contains(&(g as u32)) {
                *c = (*c).max(120 + rng_a.gen_range(0..80));
            }
        }
        let sum: u64 = counts.iter().sum();
        let ratio = n_comments_total as f64 / sum as f64;
        for (g, c) in counts.iter_mut().enumerate() {
            let scaled = ((*c as f64) * ratio).round() as u64;
            *c = if core_set.contains(&(g as u32)) { scaled.max(120) } else { scaled.max(1) };
        }
        truth.user_heat = (0..truth.active_indices.len())
            .map(|g| {
                if core_set.contains(&(g as u32)) {
                    1.4
                } else {
                    beta(&mut rng_a, 1.3, 8.0)
                }
            })
            .collect();

        // ---- 3. URLs ---------------------------------------------------------
        let mut rng_url = StdRng::seed_from_u64(child_seed(cfg.seed, 5));
        let n_urls = cfg.n(paper::URLS).max(100);
        let mut url_gen = ObjectIdGen::new(EntityKind::CommentUrl, child_seed(cfg.seed, 6));

        let top_total: f64 = names::TOP_DOMAINS.iter().map(|(_, w)| w).sum();
        let domain_table = {
            let mut pairs: Vec<(Option<&'static str>, f64)> = names::TOP_DOMAINS
                .iter()
                .map(|&(d, w)| (Some(d), w))
                .collect();
            pairs.push((None, 100.0 - top_total)); // long tail
            Categorical::new(&pairs)
        };
        let tld_table = names::other_tld_table();

        struct UrlRec {
            id: ObjectId,
            url: String,
            domain: String,
            bias: Bias,
            created: Timestamp,
            weight: f64,
            youtube: bool,
        }
        let mut urls: Vec<UrlRec> = Vec::with_capacity(n_urls);
        let mut seen_urls = std::collections::HashSet::new();

        let push_url = |urls: &mut Vec<UrlRec>,
                        seen: &mut std::collections::HashSet<String>,
                        rng: &mut StdRng,
                        url_gen: &mut ObjectIdGen,
                        url: String,
                        domain: String,
                        weight: f64| {
            if !seen.insert(url.clone()) {
                return;
            }
            let created = rng.gen_range(DISSENTER_LAUNCH..STUDY_END - 86_400);
            let youtube = platform::youtube::is_youtube_url(&url);
            urls.push(UrlRec {
                id: url_gen.next(created),
                url,
                bias: domain_bias(&domain),
                domain,
                created,
                weight,
                youtube,
            });
        };

        push_url(
            &mut urls,
            &mut seen_urls,
            &mut rng_url,
            &mut url_gen,
            "https://thewatcherfiles.com/archive/blood-libel.html".into(),
            "thewatcherfiles.com".into(),
            0.0, // weight 0: comment counts assigned explicitly below
        );
        push_url(
            &mut urls,
            &mut seen_urls,
            &mut rng_url,
            &mut url_gen,
            "https://deutschland.de/artikel/kommentar".into(),
            "deutschland.de".into(),
            0.0,
        );
        let n_file = ((13.0 * scale).round() as usize).max(2);
        for i in 0..n_file {
            push_url(
                &mut urls,
                &mut seen_urls,
                &mut rng_url,
                &mut url_gen,
                format!("file:///C:/Users/user{i}/Documents/notes{i}.pdf"),
                "local.file".into(),
                0.05,
            );
        }
        let n_chrome = ((20.0 * scale).round() as usize).max(2);
        for i in 0..n_chrome {
            let page = if i % 2 == 0 { "chrome://startpage/".to_owned() } else { format!("chrome://settings/p{i}") };
            push_url(&mut urls, &mut seen_urls, &mut rng_url, &mut url_gen, page, "local.chrome".into(), 0.05);
        }
        let n_proto_dups = ((400.0 * scale).round() as usize).max(2);
        for i in 0..n_proto_dups {
            let d = names::other_domain(&mut rng_url, "com");
            let path = names::article_path(&mut rng_url);
            push_url(&mut urls, &mut seen_urls, &mut rng_url, &mut url_gen, format!("http://{d}{path}?i={i}"), d.clone(), 0.2);
            push_url(&mut urls, &mut seen_urls, &mut rng_url, &mut url_gen, format!("https://{d}{path}?i={i}"), d, 0.2);
        }
        let n_slash_dups = ((60.0 * scale).round() as usize).max(1);
        for i in 0..n_slash_dups {
            let d = names::other_domain(&mut rng_url, "com");
            let path = format!("{}x{i}", names::article_path(&mut rng_url));
            push_url(&mut urls, &mut seen_urls, &mut rng_url, &mut url_gen, format!("https://{d}{path}"), d.clone(), 0.2);
            push_url(&mut urls, &mut seen_urls, &mut rng_url, &mut url_gen, format!("https://{d}{path}/"), d, 0.2);
        }

        while urls.len() < n_urls {
            let domain: String = match domain_table.sample(&mut rng_url) {
                Some(d) => (*d).to_owned(),
                None => {
                    let tld = tld_table.sample(&mut rng_url);
                    names::other_domain(&mut rng_url, tld)
                }
            };
            let serial = urls.len();
            let (url, weight) = if domain == "youtube.com" {
                let id = names::youtube_id(&mut rng_url);
                // YouTube: median comment volume 1 (light weight).
                (format!("https://youtube.com/watch?v={id}"), 0.35)
            } else if domain == "youtu.be" {
                (format!("https://youtu.be/{}", names::youtube_id(&mut rng_url)), 0.35)
            } else if domain == "twitter.com" {
                (
                    format!(
                        "https://twitter.com/{}/status/{}",
                        names::username(&mut rng_url, serial as u64),
                        rng_url.gen_range(1_000_000_000u64..9_999_999_999u64)
                    ),
                    0.5,
                )
            } else {
                let scheme = if coin(&mut rng_url, 0.975) { "https" } else { "http" };
                let mut path = names::article_path(&mut rng_url);
                if coin(&mut rng_url, 0.15) {
                    path.push_str(&format!("?utm={}&ref=r{serial}", rng_url.gen_range(0..100)));
                }
                // News URLs: heavy-tailed comment volume.
                let w = power_law_int(&mut rng_url, 1.9, 1, 500) as f64;
                (format!("{scheme}://{domain}{path}"), w)
            };
            push_url(&mut urls, &mut seen_urls, &mut rng_url, &mut url_gen, url, domain, weight);
        }
        drop(seen_urls);

        // ---- 4. Comment slots -------------------------------------------------
        let mut slots: Vec<u32> = Vec::with_capacity(n_comments_total + 1024);
        for (g, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                slots.push(g as u32);
            }
        }
        let mut rng_c = StdRng::seed_from_u64(child_seed(cfg.seed, 7));
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng_c.gen_range(0..=i));
        }

        // URL assignment: coverage first, fringe volumes, weighted rest
        // (see the materializing generator for the Table-2 rationale).
        let fringe_counts = [116usize, 95usize];
        assert!(
            slots.len() >= urls.len(),
            "scale too small: {} comment slots cannot cover {} URLs",
            slots.len(),
            urls.len()
        );
        let mut url_of_slot: Vec<u32> = Vec::with_capacity(slots.len());
        for u in 0..urls.len() {
            url_of_slot.push(u as u32);
        }
        let mut spare = slots.len() - urls.len();
        for (f, &n) in fringe_counts.iter().enumerate() {
            let take = n.saturating_sub(1).min(spare);
            spare -= take;
            for _ in 0..take {
                url_of_slot.push(f as u32);
            }
        }
        if url_of_slot.len() < slots.len() {
            let weight_table = Categorical::new(
                &urls
                    .iter()
                    .enumerate()
                    .map(|(i, u)| (i as u32, u.weight.max(0.001)))
                    .collect::<Vec<_>>(),
            );
            while url_of_slot.len() < slots.len() {
                url_of_slot.push(*weight_table.sample(&mut rng_c));
            }
        }
        url_of_slot.truncate(slots.len());
        for i in (1..url_of_slot.len()).rev() {
            url_of_slot.swap(i, rng_c.gen_range(0..=i));
        }

        // ---- 5. Plan comments --------------------------------------------------
        struct PendingComment {
            author_slot: u32,
            url_slot: u32,
            spec: CommentSpec,
            created: Timestamp,
            text_index: Option<u64>,
        }
        let mut pending: Vec<PendingComment> = Vec::with_capacity(slots.len());
        // Track per-URL severity for the vote model.
        let mut url_severity: Vec<(f64, u32)> = vec![(0.0, 0); urls.len()];

        for (i, (&g, &u)) in slots.iter().zip(url_of_slot.iter()).enumerate() {
            let user_idx = truth.active_indices[g as usize];
            let url = &urls[u as usize];
            let heat = truth.user_heat[g as usize];
            let lang = if url.domain == "deutschland.de" {
                Lang::De
            } else {
                match users[user_idx as usize].language.as_str() {
                    "de" => Lang::De,
                    "fr" => Lang::Fr,
                    "es" => Lang::Es,
                    "it" => Lang::It,
                    _ => Lang::En,
                }
            };
            let mut spec = sample_spec(&mut rng_c, Community::Dissenter, heat, lang);
            // Bias conditioning applies directly to the comment's targets
            // (Fig. 8 separability; see the materializing generator).
            spec.severe = (spec.severe * bias_severity_mult(url.bias)).min(0.98);
            spec.attack = (spec.attack * bias_attack_mult(url.bias)).min(0.98);
            let created = rng_c.gen_range(
                url.created.max(users[user_idx as usize].created_at).min(STUDY_END - 2)
                    ..STUDY_END,
            );
            url_severity[u as usize].0 += spec.severe;
            url_severity[u as usize].1 += 1;
            pending.push(PendingComment {
                author_slot: g,
                url_slot: u,
                spec,
                created,
                text_index: Some(i as u64),
            });
        }
        drop(slots);
        drop(url_of_slot);
        // The famous 90k-character comment: "ha" repeated, on a YouTube
        // URL. Appended after the tag-13 stream indices are fixed (it has
        // no stream text), before labeling ranks rejections.
        if let Some((yt_idx, _)) = urls.iter().enumerate().find(|(_, u)| u.youtube) {
            let reps = ((45_000.0 * scale) as usize).max(200);
            pending.push(PendingComment {
                author_slot: 0,
                url_slot: yt_idx as u32,
                spec: CommentSpec::benign(reps),
                created: STUDY_END - 86_400,
                text_index: None,
            });
        }

        // NSFW / offensive labeling: offensive = top-rejection comments;
        // NSFW = author-chosen, biased toward high rejection but noisier.
        let n_off = cfg.n(paper::OFFENSIVE_COMMENTS).min(pending.len() / 10);
        let n_nsfw = cfg.n(paper::NSFW_COMMENTS).min(pending.len() / 10);
        let mut by_reject: Vec<usize> = (0..pending.len()).collect();
        by_reject.sort_by(|&a, &b| {
            pending[b]
                .spec
                .reject
                .partial_cmp(&pending[a].spec.reject)
                .expect("finite rejects")
        });
        let mut offensive_flags = vec![false; pending.len()];
        for &i in by_reject.iter().take(n_off) {
            offensive_flags[i] = true;
        }
        let mut nsfw_flags = vec![false; pending.len()];
        let mut pool: Vec<usize> =
            by_reject[..(pending.len() / 5).max(n_nsfw.min(pending.len()))].to_vec();
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng_c.gen_range(0..=i));
        }
        for &i in pool.iter().take(n_nsfw) {
            nsfw_flags[i] = true;
        }

        // ---- 6. URL records + comment plan (creation order) -------------------
        let out_urls: Vec<CommentUrl> = urls
            .iter()
            .map(|u| {
                let (title, description) = if u.youtube {
                    ("/watch".to_owned(), String::new())
                } else if u.domain == "twitter.com" {
                    (String::new(), String::new())
                } else {
                    (
                        format!("{} — article", u.domain),
                        "synthetic first paragraph of the underlying page".to_owned(),
                    )
                };
                CommentUrl {
                    id: u.id,
                    url: u.url.clone(),
                    title,
                    description,
                    created_at: u.created,
                    upvotes: 0,
                    downvotes: 0,
                }
            })
            .collect();

        // Sort by creation time so replies can reference earlier comments.
        let mut comment_gen = ObjectIdGen::new(EntityKind::Comment, child_seed(cfg.seed, 8));
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by_key(|&i| pending[i].created);
        let mut planned: Vec<PlannedComment> = Vec::with_capacity(pending.len());
        let mut last_comment_in_thread: std::collections::HashMap<u32, Vec<ObjectId>> =
            std::collections::HashMap::new();
        for &i in &order {
            let p = &pending[i];
            let id = comment_gen.next(p.created);
            let author_id = users[truth.active_indices[p.author_slot as usize] as usize]
                .author_id
                .expect("active users are Dissenter users");
            let thread = last_comment_in_thread.entry(p.url_slot).or_default();
            let parent = if !thread.is_empty() && coin(&mut rng_c, 0.35) {
                Some(thread[rng_c.gen_range(0..thread.len())])
            } else {
                None
            };
            planned.push(PlannedComment {
                id,
                url_id: urls[p.url_slot as usize].id,
                author_id,
                parent,
                created: p.created,
                nsfw: nsfw_flags[i],
                offensive: offensive_flags[i],
                spec: p.spec,
                text_index: p.text_index,
            });
            thread.push(id);
            if thread.len() > 64 {
                thread.remove(0); // bound reply-candidate memory per thread
            }
        }
        drop(pending);
        drop(last_comment_in_thread);

        // ---- 7. Votes (Fig. 5) --------------------------------------------------
        let mut rng_v = StdRng::seed_from_u64(child_seed(cfg.seed, 9));
        let mut votes: Vec<(ObjectId, Vote, u32)> = Vec::new();
        for (u, rec) in urls.iter().enumerate() {
            let (sev_sum, n) = url_severity[u];
            let mean_sev = if n > 0 { sev_sum / n as f64 } else { 0.0 };
            let s_norm = (mean_sev / 0.6).min(1.0);
            // Voting probability and magnitude both shrink with toxicity.
            if !coin(&mut rng_v, 0.32 * (1.0 - 0.75 * s_norm)) {
                continue;
            }
            let mut magnitude = geometric(&mut rng_v, (0.40 + 0.45 * s_norm).min(0.95), 40);
            // A thin tail of heavily-voted URLs keeps 99% (not 100%) of
            // net scores inside (−10, 10), as the paper reports.
            if coin(&mut rng_v, 0.012 * (1.0 - s_norm)) {
                magnitude = magnitude.saturating_mul(8 + geometric(&mut rng_v, 0.2, 40));
            }
            let negative = coin(&mut rng_v, 0.33 + 0.30 * s_norm);
            votes.push((
                rec.id,
                if negative { Vote::Down } else { Vote::Up },
                magnitude as u32,
            ));
            // Light cross-voting so up/down both appear on some URLs.
            if coin(&mut rng_v, 0.2) {
                let other = geometric(&mut rng_v, 0.8, 5);
                votes.push((
                    rec.id,
                    if negative { Vote::Up } else { Vote::Down },
                    other as u32,
                ));
            }
        }

        // ---- 8. YouTube -----------------------------------------------------------
        let mut rng_y = StdRng::seed_from_u64(child_seed(cfg.seed, 10));
        let owner_pool: Vec<String> = (0..200).map(|i| format!("Channel{}", i)).collect();
        let mut youtube: Vec<(String, YtContent)> = Vec::new();
        for rec in urls.iter().filter(|u| u.youtube) {
            let kind_roll: f64 = rng_y.gen();
            let kind = if kind_roll < 125.0 / 128.0 {
                YtKind::Video
            } else if kind_roll < 127.0 / 128.0 {
                YtKind::Channel
            } else {
                YtKind::User
            };
            let state = if kind == YtKind::Video && coin(&mut rng_y, 16.0 / 125.0) {
                let r: f64 = rng_y.gen();
                let reason = if r < 3.0 / 16.0 {
                    YtUnavailableReason::Private
                } else if r < 6.0 / 16.0 {
                    YtUnavailableReason::AccountTerminated
                } else if r < 6.4 / 16.0 {
                    YtUnavailableReason::HateSpeechPolicy
                } else {
                    YtUnavailableReason::Generic
                };
                YtState::Unavailable(reason)
            } else {
                let owner = {
                    let r: f64 = rng_y.gen();
                    if r < 0.024 {
                        "Fox News".to_owned()
                    } else if r < 0.030 {
                        "CNN".to_owned()
                    } else {
                        owner_pool[rng_y.gen_range(0..owner_pool.len())].clone()
                    }
                };
                YtState::Active {
                    title: format!("Synthetic video about {}", names::article_path(&mut rng_y)),
                    owner,
                    comments_disabled: coin(&mut rng_y, 0.104),
                }
            };
            youtube.push((rec.url.clone(), YtContent { kind, state }));
        }
        drop(urls);
        drop(url_severity);

        // ---- 9. Reddit mirror (Fig. 6, Table 3) -----------------------------------
        let mut rng_r = StdRng::seed_from_u64(child_seed(cfg.seed, 11));
        let active_set: std::collections::HashSet<u32> =
            truth.active_indices.iter().copied().collect();
        let mut reddit_accounts: Vec<(String, u64)> = Vec::new();
        let mut reddit_pending: Vec<(String, CommentSpec)> = Vec::new();
        for &idx in &truth.dissenter_indices {
            if !coin(&mut rng_r, paper::REDDIT_MATCH_FRACTION) {
                continue;
            }
            let username = users[idx as usize].username.clone();
            let is_active_dissenter = active_set.contains(&idx);
            // Fig. 6 calibration: ~36% Dissenter-only / ~20% Reddit-only
            // among users active on ≥1 platform (see the materializing
            // generator).
            let reddit_count: u64 = if is_active_dissenter {
                if coin(&mut rng_r, 0.45) {
                    0 // Dissenter-only
                } else {
                    power_law_int(&mut rng_r, 1.7, 1, 20_000)
                }
            } else if coin(&mut rng_r, 0.22) {
                power_law_int(&mut rng_r, 1.7, 1, 20_000) // Reddit-only
            } else {
                0
            };
            let materialize = (reddit_count as usize).min(cfg.reddit_texts_per_user_cap);
            for _ in 0..materialize {
                let heat = beta(&mut rng_r, 1.5, 7.0);
                let spec = sample_spec(&mut rng_r, Community::Reddit, heat, Lang::En);
                reddit_pending.push((username.clone(), spec));
            }
            reddit_accounts.push((username, reddit_count));
        }

        // ---- 10. Baseline corpora ---------------------------------------------------
        let mut rng_b = StdRng::seed_from_u64(child_seed(cfg.seed, 12));
        let mut make_specs = |community: Community, n: usize| -> Vec<CommentSpec> {
            (0..n)
                .map(|_| {
                    let heat = beta(&mut rng_b, 1.5, 7.0);
                    sample_spec(&mut rng_b, community, heat, Lang::En)
                })
                .collect()
        };
        let baselines = vec![
            (
                "NY Times".to_owned(),
                make_specs(Community::NyTimes, cfg.n_baseline(paper::NYT_COMMENTS)),
                child_seed(cfg.seed, 15),
            ),
            (
                "Daily Mail".to_owned(),
                make_specs(Community::DailyMail, cfg.n_baseline(paper::DAILYMAIL_COMMENTS)),
                child_seed(cfg.seed, 16),
            ),
        ];

        Self {
            workers: workers.max(1),
            batch_size: DEFAULT_BATCH_SIZE,
            text_seed: child_seed(cfg.seed, 13),
            reddit_seed: child_seed(cfg.seed, 14),
            gen,
            truth,
            users: users.into_iter(),
            follows: follows.into_iter(),
            urls: out_urls.into_iter(),
            comments: planned.into_iter(),
            votes: votes.into_iter(),
            youtube: youtube.into_iter(),
            reddit_accounts: reddit_accounts.into_iter(),
            reddit_comments: reddit_pending.into_iter(),
            reddit_cursor: 0,
            baselines: baselines.into_iter(),
        }
    }

    /// Override the number of items per yielded batch (default
    /// [`DEFAULT_BATCH_SIZE`]); output bytes are invariant to it.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Generation-time ground truth (fully determined at construction).
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Remaining comments to be yielded (full count before iteration).
    pub fn comments_remaining(&self) -> usize {
        self.comments.len()
    }

    /// Drain every batch into a fresh [`World`] — the materializing path.
    pub fn collect_world(mut self) -> (World, GroundTruth) {
        let truth = std::mem::take(&mut self.truth);
        let mut world = World::new();
        for batch in &mut self {
            batch.apply(&mut world);
        }
        (world, truth)
    }

    fn comment_batch(&mut self) -> Vec<Comment> {
        let chunk: Vec<PlannedComment> =
            self.comments.by_ref().take(self.batch_size).collect();
        let items: Vec<(u64, CommentSpec)> =
            chunk.iter().filter_map(|c| c.text_index.map(|i| (i, c.spec))).collect();
        let texts = self.gen.generate_batch_indexed(&items, self.text_seed, self.workers);
        let mut texts = texts.into_iter();
        chunk
            .into_iter()
            .map(|c| Comment {
                id: c.id,
                url_id: c.url_id,
                author_id: c.author_id,
                parent: c.parent,
                text: match c.text_index {
                    Some(_) => texts.next().expect("one text per streamed comment"),
                    None => "ha ".repeat(c.spec.tokens).trim_end().to_owned(),
                },
                created_at: c.created,
                nsfw: c.nsfw,
                offensive: c.offensive,
            })
            .collect()
    }

    fn reddit_batch(&mut self) -> Vec<(String, String)> {
        let chunk: Vec<(String, CommentSpec)> =
            self.reddit_comments.by_ref().take(self.batch_size).collect();
        let items: Vec<(u64, CommentSpec)> = chunk
            .iter()
            .enumerate()
            .map(|(j, (_, spec))| (self.reddit_cursor + j as u64, *spec))
            .collect();
        self.reddit_cursor += chunk.len() as u64;
        let texts = self.gen.generate_batch_indexed(&items, self.reddit_seed, self.workers);
        chunk.into_iter().zip(texts).map(|((name, _), text)| (name, text)).collect()
    }
}

impl Iterator for WorldSource {
    type Item = WorldBatch;

    fn next(&mut self) -> Option<WorldBatch> {
        let users: Vec<User> = self.users.by_ref().take(self.batch_size).collect();
        if !users.is_empty() {
            return Some(WorldBatch::Users(users));
        }
        let follows: Vec<(u32, u32)> = self.follows.by_ref().take(self.batch_size).collect();
        if !follows.is_empty() {
            return Some(WorldBatch::Follows(follows));
        }
        let urls: Vec<CommentUrl> = self.urls.by_ref().take(self.batch_size).collect();
        if !urls.is_empty() {
            return Some(WorldBatch::Urls(urls));
        }
        if self.comments.len() > 0 {
            return Some(WorldBatch::Comments(self.comment_batch()));
        }
        let votes: Vec<(ObjectId, Vote, u32)> =
            self.votes.by_ref().take(self.batch_size).collect();
        if !votes.is_empty() {
            return Some(WorldBatch::Votes(votes));
        }
        let youtube: Vec<(String, YtContent)> =
            self.youtube.by_ref().take(self.batch_size).collect();
        if !youtube.is_empty() {
            return Some(WorldBatch::Youtube(youtube));
        }
        let accounts: Vec<(String, u64)> =
            self.reddit_accounts.by_ref().take(self.batch_size).collect();
        if !accounts.is_empty() {
            return Some(WorldBatch::RedditAccounts(accounts));
        }
        if self.reddit_comments.len() > 0 {
            return Some(WorldBatch::RedditComments(self.reddit_batch()));
        }
        if let Some((name, specs, seed)) = self.baselines.next() {
            // Baseline corpora are small (capped by the config) and each
            // draws from its own pre-derived tagged stream — generated
            // whole, exactly as the materializing path does.
            let comments = self.gen.generate_batch(&specs, seed, self.workers);
            return Some(WorldBatch::Baseline(BaselineCorpus { name, comments }));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    fn tiny_cfg() -> WorldConfig {
        WorldConfig { scale: Scale::Custom(0.003), ..WorldConfig::small() }
    }

    fn assert_worlds_identical(a: &World, b: &World, tag: &str) {
        assert_eq!(a.users.len(), b.users.len(), "{tag}: user count");
        assert!(
            a.users.iter().zip(&b.users).all(|(x, y)| x.username == y.username
                && x.gab_id == y.gab_id
                && x.author_id == y.author_id
                && x.created_at == y.created_at),
            "{tag}: user stream diverged"
        );
        assert_eq!(a.dissenter.url_count(), b.dissenter.url_count(), "{tag}: url count");
        assert!(
            a.dissenter
                .urls()
                .iter()
                .zip(b.dissenter.urls())
                .all(|(x, y)| x.url == y.url
                    && x.id == y.id
                    && x.upvotes == y.upvotes
                    && x.downvotes == y.downvotes),
            "{tag}: url stream diverged"
        );
        assert_eq!(
            a.dissenter.total_comments(),
            b.dissenter.total_comments(),
            "{tag}: comment count"
        );
        assert!(
            a.dissenter
                .comments()
                .iter()
                .zip(b.dissenter.comments())
                .all(|(x, y)| x.id == y.id
                    && x.text == y.text
                    && x.parent == y.parent
                    && x.nsfw == y.nsfw
                    && x.offensive == y.offensive),
            "{tag}: comment stream diverged"
        );
        assert_eq!(a.reddit.account_count(), b.reddit.account_count(), "{tag}: reddit");
        assert_eq!(a.baselines.len(), b.baselines.len(), "{tag}: baselines");
        for (x, y) in a.baselines.iter().zip(&b.baselines) {
            assert_eq!(x.name, y.name, "{tag}");
            assert_eq!(x.comments, y.comments, "{tag}: baseline {}", x.name);
        }
    }

    #[test]
    fn streamed_batches_rebuild_the_materialized_world() {
        let cfg = tiny_cfg();
        let (reference, ref_truth) = crate::world::generate(&cfg);
        let source = WorldSource::new(&cfg, 1);
        assert_eq!(source.truth().active_indices, ref_truth.active_indices);
        assert_eq!(source.truth().core_author_ids, ref_truth.core_author_ids);
        let mut world = World::new();
        let mut batches = 0usize;
        for batch in source {
            assert!(!batch.is_empty(), "yielded batches are non-empty");
            batch.apply(&mut world);
            batches += 1;
        }
        assert!(batches > 1, "expected multiple batches, got {batches}");
        assert_worlds_identical(&world, &reference, "streamed");
    }

    #[test]
    fn batch_size_does_not_change_the_world() {
        let cfg = tiny_cfg();
        let (reference, _) = WorldSource::new(&cfg, 1).collect_world();
        for batch_size in [64usize, 1_000_000] {
            let (w, _) =
                WorldSource::new(&cfg, 1).with_batch_size(batch_size).collect_world();
            assert_worlds_identical(&w, &reference, &format!("batch_size={batch_size}"));
        }
    }

    #[test]
    fn workers_do_not_change_streamed_batches() {
        let cfg = tiny_cfg();
        let (reference, _) = WorldSource::new(&cfg, 1).with_batch_size(128).collect_world();
        let (par, _) = WorldSource::new(&cfg, 4).with_batch_size(128).collect_world();
        assert_worlds_identical(&par, &reference, "workers=4");
    }

    #[test]
    fn comments_remaining_reports_plan_size() {
        let cfg = tiny_cfg();
        let source = WorldSource::new(&cfg, 1);
        let planned = source.comments_remaining();
        let (w, _) = source.collect_world();
        assert_eq!(planned, w.dissenter.total_comments());
    }
}
