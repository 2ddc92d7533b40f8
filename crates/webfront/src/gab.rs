//! The gab.com API front-end (§3.1, §3.4).

use crate::cache::FrontCache;
use crate::Front;
use httpnet::{Handler, Params, Request, Response, Router, ServerConfig, Status};
use ids::clock::format_datetime;
use parking_lot::Mutex;
use platform::{Clock, RateLimiter, World};
use std::sync::Arc;

/// The Gab API is unauthenticated — every requester sees the same JSON,
/// so all conditional requests share one visibility class.
const API_CLASS: &str = "api";

/// Followers/following page size.
pub const PAGE_SIZE: usize = 80;

/// The real Gab API allowed ~300 requests per 5 minutes; the paper's
/// crawler throttled to 1 req/s and slept until the advertised reset.
/// Simulating that wall-clock pacing would serialize every experiment
/// behind hours of sleeping, so the *default* simulated limit is set high
/// enough to never bind; the mechanism (429 + `X-RateLimit-*` headers +
/// crawler sleep-until-reset) is fully implemented and exercised by tests
/// that construct a [`GabFront::with_parts`] with a tight limiter.
pub const RATE_LIMIT: u32 = 5_000_000;
pub(crate) const RATE_WINDOW_SECS: u64 = 300;

/// Handler for the Gab API.
///
/// Every route is rate-limited, so conditional serving is
/// [`FrontCache::conditional_only`]: a revalidation still spends rate
/// budget (the limiter's accounting stays exact) but a fresh
/// `If-None-Match` skips the JSON render. Bodies are never cached — the
/// `X-RateLimit-*` headers differ on every response.
pub struct GabFront {
    router: Router,
    /// The advertised per-window limit (echoed in headers).
    limit: u32,
    config_override: Option<ServerConfig>,
}

impl GabFront {
    /// Build with every part explicit: the conditional-request cache,
    /// the API-wide limiter (production serves the non-binding
    /// [`RATE_LIMIT`] per 300 s), and the [`Clock`] its windows and
    /// `X-RateLimit-Reset` headers read. A crawler sharing a simulated
    /// clock waits out a reset by advancing it rather than sleeping.
    pub fn with_parts(
        world: Arc<World>,
        cache: FrontCache,
        limiter: RateLimiter,
        clock: Clock,
    ) -> Self {
        let limit = limiter.limit();
        let limiter = Arc::new(Mutex::new(limiter));
        let mut router = Router::new();
        {
            let world = world.clone();
            let limiter = limiter.clone();
            let cache = cache.clone();
            let clock = clock.clone();
            router.route("GET", "/api/v1/accounts/:id", move |req, p| {
                rate_limited(&limiter, &clock, req, |req| {
                    cache.conditional_only(req, API_CLASS, || account(&world, p))
                })
            });
        }
        {
            let world = world.clone();
            let limiter = limiter.clone();
            let cache = cache.clone();
            let clock = clock.clone();
            router.route("GET", "/api/v1/accounts/:id/followers", move |req, p| {
                rate_limited(&limiter, &clock, req, |req| {
                    cache.conditional_only(req, API_CLASS, || relationships(&world, req, p, true))
                })
            });
        }
        {
            let world = world.clone();
            router.route("GET", "/api/v1/accounts/:id/following", move |req, p| {
                rate_limited(&limiter, &clock, req, |req| {
                    cache.conditional_only(req, API_CLASS, || relationships(&world, req, p, false))
                })
            });
        }
        Self { router, limit, config_override: None }
    }

    /// Pin an explicit server configuration for this front.
    pub fn with_server_config(mut self, config: ServerConfig) -> Self {
        self.config_override = Some(config);
        self
    }

    /// The advertised per-window limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }
}

impl Handler for GabFront {
    fn handle(&self, req: &Request) -> Response {
        self.router.dispatch(req)
    }
}

impl Front for GabFront {
    fn name(&self) -> &'static str {
        "gab"
    }

    fn server_config(&self, base: &ServerConfig) -> ServerConfig {
        self.config_override.clone().unwrap_or_else(|| base.clone())
    }
}

fn rate_limited(
    limiter: &Mutex<RateLimiter>,
    clock: &Clock,
    req: &Request,
    f: impl FnOnce(&Request) -> Response,
) -> Response {
    let (decision, limit) = {
        let mut guard = limiter.lock();
        (guard.check("api", clock.now()), guard.limit())
    };
    match decision {
        platform::ratelimit::RateDecision::Deny { reset_at, penalized: _ } => {
            let mut r = Response::status(Status::TOO_MANY);
            r.headers.add("X-RateLimit-Limit", &limit.to_string());
            r.headers.add("X-RateLimit-Remaining", "0");
            r.headers.add("X-RateLimit-Reset", &reset_at.to_string());
            r.body = br#"{"error":"Too many requests"}"#.to_vec();
            r
        }
        platform::ratelimit::RateDecision::Allow { remaining, reset_at } => {
            let mut r = f(req);
            r.headers.add("X-RateLimit-Limit", &limit.to_string());
            r.headers.add("X-RateLimit-Remaining", &remaining.to_string());
            r.headers.add("X-RateLimit-Reset", &reset_at.to_string());
            r
        }
    }
}

fn json_error(status: Status, msg: &str) -> Response {
    let mut r = Response::status(status);
    r.headers.add("Content-Type", "application/json");
    r.body = jsonlite::to_string(&jsonlite::Value::object().with("error", msg)).into_bytes();
    r
}

fn account(world: &World, p: &Params) -> Response {
    let Some(id) = p.get("id").and_then(|s| s.parse::<u64>().ok()) else {
        return json_error(Status(400), "invalid id");
    };
    let Some(idx) = world.gab.user_by_gab_id(id) else {
        // The API "helpfully returns an error when an ID is not associated
        // with a user account" — the signal that makes exhaustive
        // enumeration possible.
        return json_error(Status::NOT_FOUND, "Record not found");
    };
    let u = world.user(idx);
    let v = jsonlite::Value::object()
        .with("id", id)
        .with("username", u.username.as_str())
        .with("acct", u.username.as_str())
        .with("display_name", u.display_name.as_str())
        .with("note", u.bio.as_str())
        .with("created_at", format_datetime(u.created_at))
        .with("followers_count", world.gab.followers(idx).len())
        .with("following_count", world.gab.following(idx).len());
    Response::json(jsonlite::to_string(&v))
}

fn relationships(world: &World, req: &Request, p: &Params, followers: bool) -> Response {
    let Some(id) = p.get("id").and_then(|s| s.parse::<u64>().ok()) else {
        return json_error(Status(400), "invalid id");
    };
    let Some(idx) = world.gab.user_by_gab_id(id) else {
        return json_error(Status::NOT_FOUND, "Record not found");
    };
    let page: usize = req.query("page").and_then(|s| s.parse().ok()).unwrap_or(0);
    // Deleted accounts vanish from relationship listings (their Dissenter
    // traces are reachable only through comments). Filter before
    // paginating so short pages still reliably signal the end of the list.
    let all = if followers { world.gab.followers(idx) } else { world.gab.following(idx) };
    let visible: Vec<u32> =
        all.iter().copied().filter(|&uidx| !world.user(uidx).gab_deleted).collect();
    let start = (page * PAGE_SIZE).min(visible.len());
    let end = (start + PAGE_SIZE).min(visible.len());
    let items: Vec<jsonlite::Value> = visible[start..end]
        .iter()
        .map(|&uidx| {
            let u = world.user(uidx);
            jsonlite::Value::object()
                .with("id", u.gab_id)
                .with("username", u.username.as_str())
        })
        .collect();
    Response::json(jsonlite::to_string(&jsonlite::Value::Array(items)))
}
