#![warn(missing_docs)]
//! The simulated platform universe: Dissenter, Gab, Reddit, and YouTube.
//!
//! The paper measures a live system; this crate is that system's faithful
//! in-memory model, encoding every mechanism §2 and §3 describe:
//!
//! * Dissenter users with 12-byte author-ids, home pages listing every
//!   commented URL, hidden `commentAuthor` metadata (language, permissions,
//!   view filters), admin/banned flags (Table 1);
//! * comment pages per URL with commenturl-ids, titles/descriptions
//!   (absent for YouTube embeds), votes, and arbitrarily nested replies;
//! * the NSFW / "offensive" shadow overlay: content invisible unless an
//!   authenticated viewer opted in (§2.2, §4.3.1);
//! * Gab accounts (sequential IDs, superset of Dissenter users, deletable
//!   — deleted accounts leave orphaned Dissenter comments), the follower
//!   graph, and API rate limiting with reset headers (§3.1, §3.4);
//! * Reddit accounts for the username-intersection baseline (§4.4.1);
//! * YouTube content with takedown states and comments-disabled flags
//!   (§3.3, §4.2.2).
//!
//! [`World`] bundles the four services plus the baseline news-site comment
//! corpora of Table 3. The `httpnet`-based front-end serves this model over
//! HTTP; the `crawler` crate re-discovers it exactly the way the paper did.

pub mod clock;
pub mod dissenter;
pub mod gab;
pub mod model;
pub mod ratelimit;
pub mod reddit;
pub mod visibility;
pub mod world;
pub mod youtube;

pub use clock::Clock;
pub use dissenter::DissenterDb;
pub use gab::GabDb;
pub use model::{
    BaselineCorpus, Comment, CommentUrl, User, UserFlags, ViewFilters, Vote,
};
pub use ratelimit::{RateLimiter, RateStats};
pub use reddit::RedditDb;
pub use visibility::Viewer;
pub use world::World;
pub use youtube::{YouTubeDb, YtContent, YtKind, YtState, YtUnavailableReason};
