//! The rendered-YouTube front-end (§3.3).
//!
//! The paper drove Selenium because YouTube titles/owners live in large
//! JavaScript blobs. Our stand-in models the *output* of that rendering
//! step: `GET /render?url=<page url>` returns the fully-rendered page
//! state as JSON (kind, availability, title, owner, comments-disabled).

use crate::cache::FrontCache;
use crate::Front;
use httpnet::http::percent_encode;
use httpnet::{Handler, Request, Response, Router, ServerConfig, Status};
use platform::{World, YtKind, YtState, YtUnavailableReason};
use std::sync::Arc;

/// Rendered pages are the same for every requester.
const RENDER_CLASS: &str = "render";

/// Handler exposing the rendered view of YouTube pages. Rendering was
/// the paper's most expensive fetch (a Selenium browser per page), which
/// makes this front the best conditional-serving customer: rendered
/// states are tagged, cached, and revalidate to `304`s.
pub struct YouTubeFront {
    router: Router,
    config_override: Option<ServerConfig>,
}

impl YouTubeFront {
    /// Build with an explicit conditional-request cache.
    pub fn with_cache(world: Arc<World>, cache: FrontCache) -> Self {
        let mut router = Router::new();
        router.route("GET", "/render", move |req, _| {
            cache.respond(req, RENDER_CLASS, || render(&world, req))
        });
        Self { router, config_override: None }
    }

    /// Pin an explicit server configuration for this front.
    pub fn with_server_config(mut self, config: ServerConfig) -> Self {
        self.config_override = Some(config);
        self
    }
}

impl Handler for YouTubeFront {
    fn handle(&self, req: &Request) -> Response {
        self.router.dispatch(req)
    }
}

impl Front for YouTubeFront {
    fn name(&self) -> &'static str {
        "youtube"
    }

    fn server_config(&self, base: &ServerConfig) -> ServerConfig {
        self.config_override.clone().unwrap_or_else(|| base.clone())
    }
}

/// Path for rendering a given URL.
pub fn render_target(url: &str) -> String {
    format!("/render?url={}", percent_encode(url))
}

fn render(world: &World, req: &Request) -> Response {
    let Some(url) = req.query("url") else {
        return Response::status(Status(400));
    };
    let Some(content) = world.youtube.get(&url) else {
        // Never-hosted URL: YouTube 404.
        let mut r = Response::status(Status::NOT_FOUND);
        r.body = br#"{"error":"not found"}"#.to_vec();
        return r;
    };
    let kind = match content.kind {
        YtKind::Video => "video",
        YtKind::User => "user",
        YtKind::Channel => "channel",
    };
    let v = match &content.state {
        YtState::Active { title, owner, comments_disabled } => jsonlite::Value::object()
            .with("kind", kind)
            .with("available", true)
            .with("title", title.as_str())
            .with("owner", owner.as_str())
            .with("comments_disabled", *comments_disabled),
        YtState::Unavailable(reason) => {
            let label = match reason {
                YtUnavailableReason::Generic => "Video Unavailable",
                YtUnavailableReason::Private => "This video is private",
                YtUnavailableReason::AccountTerminated => {
                    "This video is no longer available because the account has been terminated"
                }
                YtUnavailableReason::HateSpeechPolicy => {
                    "This video has been removed for violating YouTube's policy on hate speech"
                }
            };
            jsonlite::Value::object()
                .with("kind", kind)
                .with("available", false)
                .with("reason", label)
        }
    };
    Response::json(jsonlite::to_string(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_target_percent_encodes() {
        let t = render_target("https://youtube.com/watch?v=a&b=c");
        assert!(t.starts_with("/render?url="));
        assert!(!t[12..].contains('&'), "reserved chars must be escaped: {t}");
        assert!(!t[12..].contains('?'));
    }
}
