//! The dissenter.com front-end.

use crate::cache::{visibility_class, FrontCache};
use crate::{viewer_for, Front};
use httpnet::http::percent_encode;
use httpnet::{Handler, Params, Request, Response, Router, ServerConfig, Status};
use ids::ObjectId;
use parking_lot::Mutex;
use platform::{Clock, RateLimiter, World};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Front-level vote tallies layered over the immutable world's counts
/// (the world behind a running front is shared and read-only; votes are
/// the one write path the front accepts).
type VoteOverlay = Arc<Mutex<HashMap<ObjectId, (u64, u64)>>>;

/// Handler for the Dissenter web application.
///
/// User and single-comment pages are served through the full
/// [`FrontCache`] pipeline (ETag + `304` + response cache). The per-URL
/// comment page is **conditional-only**: its 10-req/min rate limiter must
/// account every request, so revalidation happens inside the limiter's
/// allowed branch and bodies are never served from cache.
pub struct DissenterFront {
    router: Router,
    cache: FrontCache,
    limiter: Arc<Mutex<RateLimiter>>,
    config_override: Option<ServerConfig>,
}

impl DissenterFront {
    /// Build over a shared world with a default cache and the
    /// production 10-req/min per-URL limiter on the wall clock.
    pub fn new(world: Arc<World>) -> Self {
        let stamp = world.content_hash();
        let limiter = RateLimiter::dissenter_per_url();
        Self::with_parts(world, FrontCache::new(stamp), limiter, Clock::wall())
    }

    /// Build with every part explicit: the conditional-request cache
    /// (callers wanting `cache.*` metrics construct one with
    /// [`FrontCache::with_registry`]), the per-URL limiter, and the
    /// [`Clock`] its window arithmetic — and so every
    /// `X-RateLimit-Reset` the front advertises — reads. A crawler
    /// sharing a simulated clock waits out a reset by advancing it
    /// rather than sleeping.
    pub fn with_parts(
        world: Arc<World>,
        cache: FrontCache,
        limiter: RateLimiter,
        clock: Clock,
    ) -> Self {
        let mut router = Router::new();
        let limit_header = limiter.limit().to_string();
        let limiter = Arc::new(Mutex::new(limiter));
        let votes: VoteOverlay = Arc::new(Mutex::new(HashMap::new()));

        {
            let world = world.clone();
            let cache = cache.clone();
            router.route("GET", "/user/:username", move |req, p| {
                cache.respond(req, &visibility_class(&world, req), || user_page(&world, req, p))
            });
        }
        {
            let world = world.clone();
            let cache = cache.clone();
            let limiter = limiter.clone();
            let votes = votes.clone();
            let limit_header = limit_header.clone();
            router.route("GET", "/url/:cuid", move |req, p| {
                let decision = limiter.lock().check(req.path(), clock.now());
                match decision {
                    platform::ratelimit::RateDecision::Deny { reset_at, penalized } => {
                        let mut r = Response::status(Status::TOO_MANY);
                        r.headers.add("X-RateLimit-Limit", &limit_header);
                        r.headers.add("X-RateLimit-Reset", &reset_at.to_string());
                        if penalized {
                            // This deny extended a greedy-client lockout;
                            // marked so abuse oracles can reconcile the
                            // limiter's penalized counter against what
                            // clients actually observed.
                            r.headers.add("X-RateLimit-Penalized", "1");
                        }
                        r
                    }
                    platform::ratelimit::RateDecision::Allow { remaining, reset_at } => {
                        let mut r = cache.conditional_only(
                            req,
                            &visibility_class(&world, req),
                            || comment_page(&world, &votes, req, p),
                        );
                        r.headers.add("X-RateLimit-Limit", &limit_header);
                        r.headers.add("X-RateLimit-Remaining", &remaining.to_string());
                        r.headers.add("X-RateLimit-Reset", &reset_at.to_string());
                        r
                    }
                }
            });
        }
        {
            let world = world.clone();
            let cache = cache.clone();
            let votes = votes.clone();
            router.route("POST", "/url/:cuid/vote", move |req, p| {
                vote(&world, &votes, &cache, req, p)
            });
        }
        {
            let world = world.clone();
            let cache = cache.clone();
            router.route("GET", "/comment/:cid", move |req, p| {
                cache.respond(req, &visibility_class(&world, req), || {
                    single_comment_page(&world, req, p)
                })
            });
        }
        {
            let world = world.clone();
            router.route("GET", "/discussion/begin", move |req, _| {
                discussion_begin(&world, req)
            });
        }
        Self { router, cache, limiter, config_override: None }
    }

    /// Pin an explicit server configuration for this front (returned by
    /// [`Front::server_config`] instead of the fleet-wide base).
    pub fn with_server_config(mut self, config: ServerConfig) -> Self {
        self.config_override = Some(config);
        self
    }

    /// The front's conditional-request cache.
    pub fn cache(&self) -> &FrontCache {
        &self.cache
    }

    /// The per-URL limiter's running decision totals, for oracles that
    /// reconcile server books against client-observed 429s.
    pub fn rate_stats(&self) -> platform::RateStats {
        self.limiter.lock().stats()
    }
}

impl Handler for DissenterFront {
    fn handle(&self, req: &Request) -> Response {
        self.router.dispatch(req)
    }
}

impl Front for DissenterFront {
    fn name(&self) -> &'static str {
        "dissenter"
    }

    fn server_config(&self, base: &ServerConfig) -> ServerConfig {
        self.config_override.clone().unwrap_or_else(|| base.clone())
    }
}

/// Boilerplate padding bringing real pages over the 10 kB threshold the
/// size-probe relies on (§3.1) — the real site ships large CSS/JS bundles.
/// Built once: the probe phase requests a user page per Gab account
/// (1.3M at paper scale), so rebuilding the filler per request would be
/// pure waste.
fn page_chrome() -> &'static str {
    static CHROME: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    CHROME.get_or_init(|| {
        let mut filler = String::with_capacity(11 * 1024);
        filler.push_str("<style>\n");
        for i in 0..340 {
            filler.push_str(&format!(
                ".c{i}{{display:flex;margin:{}px;padding:4px;color:#22{:02x}44}}\n",
                i % 17,
                i % 256
            ));
        }
        filler.push_str("</style>");
        filler
    })
}

fn user_page(world: &World, _req: &Request, p: &Params) -> Response {
    let username = p.get("username").unwrap_or("");
    let Some(idx) = world.user_by_username(username) else {
        return Response::not_found();
    };
    let user = world.user(idx);
    let Some(author_id) = user.author_id else {
        // Gab-only account: no Dissenter home page.
        return Response::not_found();
    };
    let urls = world.dissenter.urls_for_author(author_id);
    let mut body = String::with_capacity(12 * 1024);
    body.push_str("<html><head><title>Dissenter</title>");
    body.push_str(page_chrome());
    body.push_str("</head><body>");
    // Writing into a String cannot fail.
    let _ = write!(
        body,
        "<div class=\"profile\" data-author-id=\"{}\"><h1>@{}</h1><h2>{}</h2><p class=\"bio\">{}</p></div>",
        author_id,
        user.username,
        Escaped(&user.display_name),
        Escaped(&user.bio)
    );
    body.push_str("<ul class=\"commented-urls\">");
    for u in urls {
        let _ = write!(
            body,
            "<li><a href=\"/url/{}\" data-commenturl-id=\"{}\">{}</a></li>",
            u.id,
            u.id,
            Escaped(&u.url)
        );
    }
    body.push_str("</ul></body></html>");
    Response::html(body)
}

fn comment_page(world: &World, votes: &VoteOverlay, req: &Request, p: &Params) -> Response {
    let Some(cuid) = p.get("cuid").and_then(|s| s.parse::<ObjectId>().ok()) else {
        return Response::not_found();
    };
    let Some(url) = world.dissenter.url_by_id(cuid) else {
        return Response::not_found();
    };
    let viewer = viewer_for(world, req);
    let comments = world.dissenter.visible_comments(cuid, viewer);
    let (extra_up, extra_down) = votes.lock().get(&cuid).copied().unwrap_or((0, 0));
    let mut body = String::with_capacity(4096);
    body.push_str("<html><head><title>");
    // Writing into a String cannot fail.
    let _ = write!(body, "{}</title></head><body>", Escaped(&url.title));
    let _ = write!(
        body,
        "<div class=\"thread\" data-commenturl-id=\"{}\" data-url=\"{}\" data-upvotes=\"{}\" data-downvotes=\"{}\" data-comment-count=\"{}\"><p class=\"description\">{}</p></div>",
        url.id,
        Escaped(&url.url),
        url.upvotes as u64 + extra_up,
        url.downvotes as u64 + extra_down,
        world.dissenter.comment_count(cuid),
        Escaped(&url.description),
    );
    body.push_str("<ol class=\"comments\">");
    for c in comments {
        let _ = write!(
            body,
            "<li class=\"comment\" data-comment-id=\"{}\" data-author-id=\"{}\" data-parent=\"{}\" data-created=\"{}\"><p>{}</p></li>",
            c.id,
            c.author_id,
            c.parent.map(|p| p.to_hex()).unwrap_or_default(),
            c.created_at,
            Escaped(&c.text),
        );
    }
    body.push_str("</ol></body></html>");
    Response::html(body)
}

fn single_comment_page(world: &World, req: &Request, p: &Params) -> Response {
    let Some(cid) = p.get("cid").and_then(|s| s.parse::<ObjectId>().ok()) else {
        return Response::not_found();
    };
    let Some(comment) = world.dissenter.comment_by_id(cid) else {
        return Response::not_found();
    };
    let viewer = viewer_for(world, req);
    if !viewer.can_see(comment) {
        return Response::not_found();
    }
    let author_idx = world.user_by_author_id(comment.author_id);
    let mut body = String::with_capacity(2048);
    body.push_str("<html><head><title>Comment</title></head><body>");
    // Writing into a String cannot fail.
    let _ = write!(
        body,
        "<div class=\"comment\" data-comment-id=\"{}\" data-author-id=\"{}\"><p>{}</p></div>",
        comment.id,
        comment.author_id,
        Escaped(&comment.text)
    );
    // The quirk §3.2 exploits: a commented-out JavaScript variable with
    // otherwise-undiscoverable user metadata.
    if let Some(idx) = author_idx {
        let u = world.user(idx);
        let meta = jsonlite::Value::object()
            .with("author_id", comment.author_id.to_hex())
            .with("username", u.username.as_str())
            .with("language", u.language.as_str())
            .with(
                "permissions",
                jsonlite::Value::object()
                    .with("canLogin", u.flags.can_login)
                    .with("canPost", u.flags.can_post)
                    .with("canReport", u.flags.can_report)
                    .with("canChat", u.flags.can_chat)
                    .with("canVote", u.flags.can_vote)
                    .with("isBanned", u.flags.is_banned)
                    .with("isAdmin", u.flags.is_admin)
                    .with("isModerator", u.flags.is_moderator)
                    .with("isPro", u.flags.is_pro)
                    .with("isDonor", u.flags.is_donor)
                    .with("isInvestor", u.flags.is_investor)
                    .with("isPremium", u.flags.is_premium)
                    .with("isTippable", u.flags.is_tippable)
                    .with("isPrivate", u.flags.is_private)
                    .with("verified", u.flags.verified),
            )
            .with(
                "viewFilters",
                jsonlite::Value::object()
                    .with("pro", u.filters.pro)
                    .with("verified", u.filters.verified)
                    .with("standard", u.filters.standard)
                    .with("nsfw", u.filters.nsfw)
                    .with("offensive", u.filters.offensive),
            );
        body.push_str(&format!(
            "<script>\n// var commentAuthor = [{}];\n</script>",
            jsonlite::to_string(&meta)
        ));
    }
    body.push_str("</body></html>");
    Response::html(body)
}

/// `POST /url/:cuid/vote?dir=up|down` — the one world-visible mutation
/// the front accepts. The tally lands in the front-level overlay and the
/// cache generation is bumped, so every outstanding ETag stops
/// validating and no cached body survives the change.
fn vote(
    world: &World,
    votes: &VoteOverlay,
    cache: &FrontCache,
    req: &Request,
    p: &Params,
) -> Response {
    let Some(cuid) = p.get("cuid").and_then(|s| s.parse::<ObjectId>().ok()) else {
        return Response::not_found();
    };
    let Some(url) = world.dissenter.url_by_id(cuid) else {
        return Response::not_found();
    };
    let up = match req.query("dir").as_deref() {
        Some("up") => true,
        Some("down") => false,
        _ => return Response::status(Status(400)),
    };
    let (u, d) = {
        let mut guard = votes.lock();
        let entry = guard.entry(cuid).or_insert((0, 0));
        if up {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
        *entry
    };
    cache.bump_generation();
    Response::json(jsonlite::to_string(
        &jsonlite::Value::object()
            .with("id", cuid.to_hex())
            .with("upvotes", url.upvotes as u64 + u)
            .with("downvotes", url.downvotes as u64 + d),
    ))
}

fn discussion_begin(world: &World, req: &Request) -> Response {
    let Some(url) = req.query("url") else {
        return Response::status(Status(400));
    };
    match world.dissenter.url_by_string(&url) {
        Some(u) => {
            let target = format!("/url/{}", u.id);
            let mut r = Response::status(Status(302));
            r.headers.add("Location", &target);
            r.body = format!("<a href=\"{target}\">moved</a>").into_bytes();
            r
        }
        None => {
            // New URL: an empty discussion page inviting the first comment.
            Response::html(format!(
                "<html><body><div class=\"thread\" data-url=\"{}\" data-comment-count=\"0\"></div><p>No comments yet.</p></body></html>",
                Escaped(&url)
            ))
        }
    }
}

/// `s` with `&`, `<`, `>` and `"` escaped as entities, for HTML text and
/// attribute values. Formatting it writes the escaped text in one pass
/// straight into the page being built.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut last = 0;
        for (i, b) in self.0.bytes().enumerate() {
            let entity = match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' => "&quot;",
                _ => continue,
            };
            f.write_str(&self.0[last..i])?;
            f.write_str(entity)?;
            last = i + 1;
        }
        f.write_str(&self.0[last..])
    }
}

/// Build the `/discussion/begin` query target for a raw URL.
pub fn discussion_target(url: &str) -> String {
    format!("/discussion/begin?url={}", percent_encode(url))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn discussion_target_encodes_url() {
        let t = discussion_target("https://example.com/a b?x=1");
        assert!(t.starts_with("/discussion/begin?url="));
        assert!(!t.split_once('=').unwrap().1.contains(' '));
        assert!(!t.split_once('=').unwrap().1.contains('?'));
    }

    /// The escape before the one-pass rewrite.
    fn four_pass_escape(s: &str) -> String {
        s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
    }

    #[test]
    fn escape_critical_chars() {
        assert_eq!(Escaped("<a href=\"x\">&").to_string(), "&lt;a href=&quot;x&quot;&gt;&amp;");
    }

    proptest! {
        #[test]
        fn escaped_agrees_with_the_four_pass_escape(
            parts in prop::collection::vec(
                prop_oneof![Just("&amp;".to_owned()), "[&<>\"=a ]{0,6}", "\\PC{0,6}"],
                0..8,
            )
        ) {
            let s = parts.concat();
            prop_assert_eq!(Escaped(&s).to_string(), four_pass_escape(&s));
            let mut page = String::from("<p>");
            let _ = write!(page, "{}</p>", Escaped(&s));
            prop_assert_eq!(page, format!("<p>{}</p>", four_pass_escape(&s)));
        }
    }

    #[test]
    fn page_chrome_is_large_and_cached() {
        let a = page_chrome();
        assert!(a.len() > 10 * 1024, "filler must clear the probe threshold");
        let b = page_chrome();
        assert_eq!(a.as_ptr(), b.as_ptr(), "cached: same allocation");
    }
}
