#![warn(missing_docs)]
//! A small, robust HTTP/1.1 server and client over `std::net` TCP.
//!
//! The paper's methodology is protocol work: probing response *sizes* to
//! detect account existence (§3.1), reading rate-limit headers and backing
//! off (§3.4), re-requesting timed-out pages (§4.3.1), and walking
//! paginated APIs. To exercise those code paths for real, the simulated
//! services are served over actual loopback TCP sockets and crawled with a
//! real client.
//!
//! Design follows the networking guides' priorities — simplicity and
//! robustness over framework magic:
//!
//! * an explicit event-driven server — an accept loop feeding per-core
//!   epoll reactors ([`sys`] raw syscall wrappers, no `libc`), with
//!   per-connection state machines, reusable buffers, and vectored
//!   writes; no async runtime (the bounded worker [`pool`] remains for
//!   compute scatter/gather);
//! * strict, bounded request parsing ([`http`]) — header and body caps so
//!   no peer can exhaust memory;
//! * keep-alive with per-connection request caps;
//! * deterministic, seedable **fault injection** ([`fault`]): added
//!   latency, dropped connections, injected 5xx responses, truncated
//!   bodies, mid-line resets, slow-loris stalls, malformed status lines,
//!   and 429/503 throttling with `Retry-After` — in the spirit of
//!   smoltcp's `--drop-chance` example knobs — used by tests to prove the
//!   crawler's retry logic works;
//! * a seeded exponential-backoff [`retry`] policy with status-aware
//!   classification, `Retry-After` honoring, and a total-elapsed cap;
//! * a blocking [`client`] with one request path — every GET, single or
//!   pipelined, goes through a keep-alive [`cpool::ConnPool`] — with
//!   timeouts and redirects disabled (the crawler wants raw behavior),
//!   configured only through [`Client::builder`];
//! * conditional requests ([`http::format_etag`], [`http::if_none_match`],
//!   `304 Not Modified`) backed by a server-side [`cache::ResponseCache`]
//!   and a client-side [`cache::RevalidationCache`] so longitudinal
//!   re-crawls revalidate instead of re-downloading.

pub mod cache;
pub mod client;
pub mod cpool;
pub mod fault;
pub mod http;
pub mod log;
pub mod pool;
mod reactor;
pub mod retry;
pub mod router;
pub mod server;
pub mod sys;

pub use cache::{CacheConfig, ResponseCache, RevalidationCache};
pub use client::{Client, ClientBuilder, ClientError};
pub use cpool::{ConnPool, PoolConfig, PoolStats, PooledConn};
pub use fault::{FaultAction, FaultConfig, FaultInjector};
pub use http::{format_etag, if_none_match, Headers, Request, Response, Status};
pub use log::{AccessEntry, AccessLog};
pub use pool::ThreadPool;
pub use retry::{
    classify_status, parse_retry_after_detailed, RetryAfter, RetryPolicy, StatusClass,
    MAX_RETRY_AFTER,
};
pub use router::{Params, Router};
pub use server::{Handler, Server, ServerConfig};
