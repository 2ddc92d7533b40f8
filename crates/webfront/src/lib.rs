#![warn(missing_docs)]
//! HTTP front-ends for the simulated services.
//!
//! Four independent servers (mirroring the four hosts the paper talks to):
//!
//! * [`dissenter`] — `dissenter.com`: user home pages (≥10 kB for real
//!   accounts vs ~150 B misses — the §3.1 probe signal), per-URL comment
//!   pages with vote counts and the per-URL 10-req/min rate-limit
//!   headers, per-comment pages embedding the commented-out
//!   `commentAuthor` JavaScript with hidden user metadata (§3.2), and the
//!   Gab-Trends-style `/discussion/begin?url=…` lookup;
//! * [`gab`] — `gab.com`: the JSON accounts API keyed by sequential ID
//!   (with 404s for unallocated IDs), paginated follower/following
//!   endpoints, and `X-RateLimit-Remaining` / `X-RateLimit-Reset`
//!   headers (§3.4);
//! * [`reddit`] — `reddit.com` + Pushshift: account existence and full
//!   comment-history queries (§4.4.1);
//! * [`youtube`] — the Selenium-rendered view of YouTube pages the paper
//!   scraped (§3.3), exposed as a `render?url=…` endpoint returning the
//!   video/channel/user state as JSON.
//!
//! Authentication is a `session` cookie of the form `u:<username>`; the
//! comment-visibility rules then apply that user's stored view filters —
//! NSFW / "offensive" shadow content appears only for opted-in sessions.
//!
//! All four fronts speak the conditional-request protocol in [`cache`]:
//! cacheable 200s carry strong ETags derived from the world's content
//! hash, repeat requests with `If-None-Match` get bodyless `304`s, and
//! cache entries are keyed by the requester's visibility class so shadow
//! views never leak across sessions.
//!
//! Each front implements [`Front`] — a [`Handler`] with a stable name and
//! a per-service [`ServerConfig`] override — and [`SimServices::start_with`]
//! starts one server per front from a [`SimFronts`] set. The one-line
//! [`SimServices::start`] and [`SimServices::simulated`] remain for
//! callers happy with four identical configs.
//!
//! **Time.** The Dissenter and Gab rate limiters read one
//! [`platform::Clock`] per fleet, which [`SimServices::clock`] hands on
//! to the crawler. [`SimServices::simulated`] (and [`SimFronts::on`] with
//! a simulated clock) serve on simulated time, so a crawler honoring a
//! 429's `X-RateLimit-Reset` advances the clock instead of sleeping;
//! every crawl the repository builds runs that way. The wall clock is
//! the default of [`SimFronts::new`] and [`SimServices::start`], whose
//! fixed signatures are shared with pieces built apart (a
//! `crawler::Crawler::new` crawler also defaults to the wall), and of
//! the abuse harness, whose polite-vs-greedy race measures real waits.

pub mod cache;
pub mod dissenter;
pub mod gab;
pub mod reddit;
pub mod stamps;
pub mod youtube;

use httpnet::{Handler, Server, ServerConfig};
use platform::{Clock, RateLimiter, World};
use std::sync::Arc;

/// A simulated service front: an HTTP [`Handler`] plus the metadata
/// [`SimServices::start_with`] needs to run it as its own server.
pub trait Front: Handler {
    /// Stable service name (matches the crawler's endpoint classes:
    /// `dissenter`, `gab`, `reddit`, `youtube`).
    fn name(&self) -> &'static str;

    /// The server configuration this front should run under, given the
    /// fleet-wide base. The default keeps the base; fronts with an
    /// explicit override (see `with_server_config` on each front) return
    /// it instead.
    fn server_config(&self, base: &ServerConfig) -> ServerConfig {
        base.clone()
    }
}

/// The four concrete fronts over one shared world, ready to start.
/// Construct with [`SimFronts::new`] or [`SimFronts::on`], optionally
/// swap in customized fronts (rate limits, cache registries,
/// per-service configs), then hand to [`SimServices::start_with`].
pub struct SimFronts {
    /// dissenter.com handler.
    pub dissenter: Arc<dissenter::DissenterFront>,
    /// gab.com handler.
    pub gab: Arc<gab::GabFront>,
    /// reddit.com / Pushshift handler.
    pub reddit: Arc<reddit::RedditFront>,
    /// Rendered-YouTube handler.
    pub youtube: Arc<youtube::YouTubeFront>,
    /// The clock the Dissenter and Gab limiters read. A swapped-in
    /// rate-limited front should read it too; [`SimServices`] hands it
    /// on to the crawler.
    pub clock: Clock,
}

impl SimFronts {
    /// Default fronts over a shared world on the wall clock.
    pub fn new(world: Arc<World>) -> Self {
        Self::on(world, Clock::wall())
    }

    /// Default fronts whose rate limiters read `clock`.
    pub fn on(world: Arc<World>, clock: Clock) -> Self {
        let stamp = world.content_hash();
        Self::assemble(world, clock, [(); 4].map(|_| cache::FrontCache::new(stamp)))
    }

    /// Default fronts on the wall clock whose response caches publish
    /// `cache.*` metrics into `registry` (all four share the registry's
    /// counters).
    pub fn with_registry(world: Arc<World>, registry: &obs::Registry) -> Self {
        let stamp = world.content_hash();
        let caches = [(); 4].map(|_| {
            cache::FrontCache::with_registry(stamp, httpnet::CacheConfig::default(), registry)
        });
        Self::assemble(world, Clock::wall(), caches)
    }

    /// Fronts for one longitudinal sweep over an evolving world:
    ///
    /// * ETags carry **per-target stamps** ([`stamps`]) instead of the
    ///   whole-world digest, so a client's validators from an earlier
    ///   sweep keep revalidating pages whose entities didn't change;
    /// * every rate-limit decision (and `X-RateLimit-Reset` header) reads
    ///   the sweeps' shared simulated `clock`, so spent windows persist
    ///   from one sweep to the next;
    /// * `cache.*` metrics land in `registry`.
    pub fn for_sweep(world: Arc<World>, registry: &obs::Registry, clock: Clock) -> Self {
        let stamp = world.content_hash();
        let front_cache = |resolver: cache::StampResolver| {
            cache::FrontCache::with_registry(stamp, httpnet::CacheConfig::default(), registry)
                .with_stamp_resolver(resolver)
        };
        let caches = [
            front_cache(stamps::dissenter_stamps(world.clone())),
            front_cache(stamps::gab_stamps(world.clone())),
            front_cache(stamps::reddit_stamps(world.clone())),
            front_cache(stamps::youtube_stamps(world.clone())),
        ];
        Self::assemble(world, clock, caches)
    }

    /// The four fronts over `world`, each serving through its cache
    /// (dissenter, gab, reddit, youtube), with the production limiters
    /// reading `clock`.
    fn assemble(
        world: Arc<World>,
        clock: Clock,
        [dissenter, gab, reddit, youtube]: [cache::FrontCache; 4],
    ) -> Self {
        Self {
            dissenter: Arc::new(dissenter::DissenterFront::with_parts(
                world.clone(),
                dissenter,
                RateLimiter::dissenter_per_url(),
                clock.clone(),
            )),
            gab: Arc::new(gab::GabFront::with_parts(
                world.clone(),
                gab,
                RateLimiter::new(gab::RATE_LIMIT, gab::RATE_WINDOW_SECS),
                clock.clone(),
            )),
            reddit: Arc::new(reddit::RedditFront::with_cache(world.clone(), reddit)),
            youtube: Arc::new(youtube::YouTubeFront::with_cache(world, youtube)),
            clock,
        }
    }
}

/// All four servers bound to ephemeral loopback ports.
#[derive(Debug)]
pub struct SimServices {
    /// dissenter.com stand-in.
    pub dissenter: Server,
    /// gab.com stand-in.
    pub gab: Server,
    /// reddit.com / Pushshift stand-in.
    pub reddit: Server,
    /// Selenium-rendered YouTube stand-in.
    pub youtube: Server,
    /// The clock the fronts' rate limiters read. A crawler of these
    /// services takes a clone (`crawler.clock = services.clock.clone()`)
    /// so the resets it waits out are on the clock they were issued on.
    pub clock: Clock,
}

impl SimServices {
    /// Start default fronts over a shared world on the wall clock, all
    /// under one config.
    pub fn start(world: Arc<World>, config: ServerConfig) -> std::io::Result<SimServices> {
        Self::start_with(SimFronts::new(world), config)
    }

    /// [`SimServices::start`] on a fresh simulated clock at
    /// [`ids::STUDY_END`], the moment the paper's dataset closes: every
    /// reset a crawler of these services waits out advances that clock
    /// instead of sleeping.
    pub fn simulated(world: Arc<World>, config: ServerConfig) -> std::io::Result<SimServices> {
        Self::start_with(SimFronts::on(world, Clock::simulated(ids::STUDY_END)), config)
    }

    /// Start one server per front, each under the config the front asks
    /// for ([`Front::server_config`] applied to `base`), on the fronts'
    /// clock.
    pub fn start_with(fronts: SimFronts, base: ServerConfig) -> std::io::Result<SimServices> {
        fn launch<F: Front + 'static>(front: Arc<F>, base: &ServerConfig) -> std::io::Result<Server> {
            let config = front.server_config(base);
            Server::start(front as Arc<dyn Handler>, config)
        }
        Ok(SimServices {
            dissenter: launch(fronts.dissenter, &base)?,
            gab: launch(fronts.gab, &base)?,
            reddit: launch(fronts.reddit, &base)?,
            youtube: launch(fronts.youtube, &base)?,
            clock: fronts.clock,
        })
    }
}

/// Resolve a request's viewer from its `session` cookie (`u:<username>`).
pub(crate) fn viewer_for(world: &World, req: &httpnet::Request) -> platform::Viewer {
    let Some(session) = req.cookie("session") else {
        return platform::Viewer::Anonymous;
    };
    // The measurement team's own accounts (§3.2: "the HTTP cookies of an
    // authenticated account we created with NSFW and offensive content
    // enabled separately").
    if let Some(mode) = session.strip_prefix("crawler:") {
        let filters = match mode {
            "nsfw" => platform::ViewFilters { nsfw: true, ..Default::default() },
            "offensive" => platform::ViewFilters { offensive: true, ..Default::default() },
            "both" => platform::ViewFilters { nsfw: true, offensive: true, ..Default::default() },
            _ => platform::ViewFilters::default(),
        };
        return platform::Viewer::Authenticated(filters);
    }
    let Some(username) = session.strip_prefix("u:") else {
        return platform::Viewer::Anonymous;
    };
    match world.user_by_username(username) {
        Some(idx) => {
            let u = world.user(idx);
            // Deleted Gab accounts can no longer authenticate (§4.1.1).
            if u.gab_deleted || !u.flags.can_login || u.author_id.is_none() {
                platform::Viewer::Anonymous
            } else {
                platform::Viewer::Authenticated(u.filters)
            }
        }
        None => platform::Viewer::Anonymous,
    }
}
