//! The reddit.com / Pushshift front-end (§4.4.1).

use crate::cache::FrontCache;
use crate::Front;
use httpnet::{Handler, Params, Request, Response, Router, ServerConfig, Status};
use platform::World;
use std::sync::Arc;

/// Pushshift page size.
pub const PAGE_SIZE: usize = 100;

/// Pushshift is unauthenticated: one shared visibility class.
const API_CLASS: &str = "api";

/// Handler for Reddit account checks and Pushshift history pulls. No
/// rate limiter and no per-session content, so both routes run the full
/// conditional pipeline: 200s are tagged, cached, and revalidate to
/// bodyless `304`s. The account-miss 404 (the §4.4.1 existence signal)
/// stays fully dynamic.
pub struct RedditFront {
    router: Router,
    config_override: Option<ServerConfig>,
}

impl RedditFront {
    /// Build with an explicit conditional-request cache.
    pub fn with_cache(world: Arc<World>, cache: FrontCache) -> Self {
        let mut router = Router::new();
        {
            let world = world.clone();
            let cache = cache.clone();
            router.route("GET", "/user/:username/about", move |req, p| {
                cache.respond(req, API_CLASS, || about(&world, p))
            });
        }
        {
            let world = world.clone();
            router.route("GET", "/pushshift/comments", move |req, _| {
                cache.respond(req, API_CLASS, || comments(&world, req))
            });
        }
        Self { router, config_override: None }
    }

    /// Pin an explicit server configuration for this front.
    pub fn with_server_config(mut self, config: ServerConfig) -> Self {
        self.config_override = Some(config);
        self
    }
}

impl Handler for RedditFront {
    fn handle(&self, req: &Request) -> Response {
        self.router.dispatch(req)
    }
}

impl Front for RedditFront {
    fn name(&self) -> &'static str {
        "reddit"
    }

    fn server_config(&self, base: &ServerConfig) -> ServerConfig {
        self.config_override.clone().unwrap_or_else(|| base.clone())
    }
}

fn about(world: &World, p: &Params) -> Response {
    let name = p.get("username").unwrap_or("");
    if world.reddit.exists(name) {
        let v = jsonlite::Value::object()
            .with("name", name)
            .with("total_comments", world.reddit.declared_count(name).unwrap_or(0));
        Response::json(jsonlite::to_string(&v))
    } else {
        let mut r = Response::status(Status::NOT_FOUND);
        r.body = br#"{"error":404,"message":"Not Found"}"#.to_vec();
        r
    }
}

fn comments(world: &World, req: &Request) -> Response {
    let Some(author) = req.query("author") else {
        return Response::status(Status(400));
    };
    let page: usize = req.query("page").and_then(|s| s.parse().ok()).unwrap_or(0);
    let Some(all) = world.reddit.comments(&author) else {
        return Response::json("{\"data\":[],\"total\":0}".to_owned());
    };
    let start = (page * PAGE_SIZE).min(all.len());
    let end = (start + PAGE_SIZE).min(all.len());
    let items: Vec<jsonlite::Value> = all[start..end]
        .iter()
        .map(|t| jsonlite::Value::object().with("body", t.as_str()))
        .collect();
    let v = jsonlite::Value::object()
        .with("data", jsonlite::Value::Array(items))
        .with("total", world.reddit.declared_count(&author).unwrap_or(0))
        .with("materialized", all.len());
    Response::json(jsonlite::to_string(&v))
}
