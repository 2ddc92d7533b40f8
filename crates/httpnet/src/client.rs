//! The blocking HTTP client the crawler drives.
//!
//! Supports per-request headers and cookies, read timeouts, optional
//! keep-alive, and simple retry with backoff — the operational behaviors
//! the paper's crawl needed (timeout monitoring + re-requests, §4.3.1;
//! rate-limit sleeps, §3.4).

use crate::cache::RevalidationCache;
use crate::cpool::{ConnPool, PooledConn};
use crate::http::{read_response, write_request, write_requests, Request, Response, Status, WireError};
use crate::retry::{classify_status, parse_retry_after, RetryPolicy, StatusClass};
use std::fmt;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect.
    Connect(std::io::Error),
    /// Failed mid-request/response (includes timeouts and drops).
    Wire(WireError),
    /// The server kept answering with a retryable error status until the
    /// retry budget ran out. The final response is preserved — callers can
    /// inspect the status (and any `Retry-After`) instead of a stand-in
    /// "server error" string.
    Http(Response),
}

impl ClientError {
    /// The status of the final response, when the failure was an HTTP
    /// error status rather than a transport fault.
    pub fn status(&self) -> Option<Status> {
        match self {
            ClientError::Http(r) => Some(r.status),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Wire(e) => write!(f, "request failed: {e}"),
            ClientError::Http(r) => write!(f, "retries exhausted on status {}", r.status),
        }
    }
}

impl std::error::Error for ClientError {}

/// Metric handles for one instrumented client (see [`Client::instrument`]).
/// Counter values are a pure function of the seeded workload — latency
/// lives in the histogram, which is the only timing-dependent piece.
#[derive(Debug, Clone)]
struct Instrument {
    /// `http.<class>.requests` — wire attempts issued (one per logical
    /// call; a transparent keep-alive reconnect is not double-counted).
    requests: obs::Counter,
    /// `http.<class>.latency` — request→response wall-clock for
    /// delivered responses.
    latency: obs::Histogram,
    /// `http.<class>.wire_faults` — connect/transport failures observed
    /// (drops, resets, truncations, malformed replies, timeouts).
    wire_faults: obs::Counter,
    /// `http.<class>.status_5xx` — injected/real server errors observed.
    status_5xx: obs::Counter,
    /// `http.<class>.status_429` — throttling responses observed.
    status_429: obs::Counter,
    /// `http.<class>.retries` — extra attempts spent by
    /// [`Client::get_with_policy`].
    retries: obs::Counter,
    /// `http.<class>.retry_after_waits` — delays honored from an
    /// advertised `Retry-After` header.
    retry_after_waits: obs::Counter,
    /// `http.<class>.not_modified` — 304s answered from the
    /// revalidation cache (full representation served locally).
    not_modified: obs::Counter,
}

impl Instrument {
    fn new(registry: &obs::Registry, class: &str) -> Self {
        let name = |suffix: &str| format!("http.{class}.{suffix}");
        Self {
            requests: registry.counter(&name("requests")),
            latency: registry.histogram(&name("latency")),
            wire_faults: registry.counter(&name("wire_faults")),
            status_5xx: registry.counter(&name("status_5xx")),
            status_429: registry.counter(&name("status_429")),
            retries: registry.counter(&name("retries")),
            retry_after_waits: registry.counter(&name("retry_after_waits")),
            not_modified: registry.counter(&name("not_modified")),
        }
    }

    fn observe(&self, latency: Duration, result: &Result<Response, ClientError>) {
        self.requests.inc();
        match result {
            Ok(r) => {
                self.latency.observe(latency);
                if r.status.0 >= 500 {
                    self.status_5xx.inc();
                } else if r.status.0 == 429 {
                    self.status_429.inc();
                }
            }
            Err(_) => self.wire_faults.inc(),
        }
    }
}

/// Chained-setter construction for [`Client`] — the one supported way
/// to configure a client. Obtained from [`Client::builder`].
///
/// ```
/// # let addr: std::net::SocketAddr = "127.0.0.1:9".parse().unwrap();
/// let registry = obs::Registry::new();
/// let client = httpnet::Client::builder(addr)
///     .timeout(std::time::Duration::from_secs(2))
///     .keep_alive(true)
///     .metrics(&registry, "gab")
///     .revalidation_cache(httpnet::RevalidationCache::new(1024))
///     .build();
/// # drop(client);
/// ```
#[derive(Debug)]
#[must_use = "call .build() to obtain the Client"]
pub struct ClientBuilder {
    addr: SocketAddr,
    timeout: Duration,
    keep_alive: bool,
    cookies: Vec<(String, String)>,
    inst: Option<Instrument>,
    reval: Option<RevalidationCache>,
    pool: Option<ConnPool>,
}

impl ClientBuilder {
    /// Set the connect/read timeout.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// Enable or disable connection reuse.
    pub fn keep_alive(mut self, on: bool) -> Self {
        self.keep_alive = on;
        self
    }

    /// Attach a cookie to every request.
    pub fn cookie(mut self, name: &str, value: &str) -> Self {
        self.cookies.retain(|(n, _)| n != name);
        self.cookies.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Report request metrics into `registry` under the endpoint class
    /// `class` (see [`Client::instrument`] for the metric names).
    pub fn metrics(mut self, registry: &obs::Registry, class: &str) -> Self {
        self.inst = Some(Instrument::new(registry, class));
        self
    }

    /// Attach a client-side revalidation cache: stored ETags are sent as
    /// `If-None-Match`, and a `304 Not Modified` is transparently
    /// resolved to the cached full representation, so callers always see
    /// the complete response. Clone one cache across clients (and across
    /// sweeps) to share it.
    pub fn revalidation_cache(mut self, cache: RevalidationCache) -> Self {
        self.reval = Some(cache);
        self
    }

    /// Share a keep-alive [`ConnPool`] with other clients. Without this
    /// the client gets a private pool with default knobs.
    pub fn pool(mut self, pool: ConnPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Finish construction.
    pub fn build(self) -> Client {
        Client {
            addr: self.addr,
            timeout: self.timeout,
            keep_alive: self.keep_alive,
            pool: self.pool.unwrap_or_default(),
            cookies: self.cookies,
            inst: self.inst,
            reval: self.reval,
        }
    }
}

/// One response read off a pipelined batch, with its latency.
type Answer = (Result<Response, ClientError>, Duration);

/// A blocking HTTP/1.1 client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    keep_alive: bool,
    pool: ConnPool,
    /// Cookies sent with every request as `name=value` pairs.
    cookies: Vec<(String, String)>,
    inst: Option<Instrument>,
    reval: Option<RevalidationCache>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Client({})", self.addr)
    }
}

impl Client {
    /// Start building a client for `addr`. Defaults: 5-second timeout,
    /// no keep-alive, no cookies, no metrics, no revalidation cache.
    pub fn builder(addr: SocketAddr) -> ClientBuilder {
        ClientBuilder {
            addr,
            timeout: Duration::from_secs(5),
            keep_alive: false,
            cookies: Vec::new(),
            inst: None,
            reval: None,
            pool: None,
        }
    }

    /// The keep-alive connection pool backing [`Client::get_keep_alive`].
    pub fn pool(&self) -> &ConnPool {
        &self.pool
    }

    /// Report request metrics into `registry` under the endpoint class
    /// `class` (e.g. the service name): per-request latency histogram
    /// `http.<class>.latency`, plus counters for attempts, wire faults,
    /// 5xx/429 statuses observed, retries, and honored `Retry-After`
    /// waits.
    pub fn instrument(&mut self, registry: &obs::Registry, class: &str) -> &mut Self {
        self.inst = Some(Instrument::new(registry, class));
        self
    }

    /// Set the read timeout.
    pub fn timeout(&mut self, t: Duration) -> &mut Self {
        self.timeout = t;
        self
    }

    /// Enable or disable connection reuse.
    pub fn keep_alive(&mut self, on: bool) -> &mut Self {
        self.keep_alive = on;
        self
    }

    /// Attach a cookie to all subsequent requests (e.g. the authenticated
    /// session cookie used for the NSFW/offensive re-spider, §3.2).
    pub fn set_cookie(&mut self, name: &str, value: &str) -> &mut Self {
        self.cookies.retain(|(n, _)| n != name);
        self.cookies.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Remove all cookies.
    pub fn clear_cookies(&mut self) -> &mut Self {
        self.cookies.clear();
        self
    }

    /// Attach (or replace) the revalidation cache after construction —
    /// the runtime counterpart of
    /// [`ClientBuilder::revalidation_cache`].
    pub fn set_revalidation_cache(&mut self, cache: RevalidationCache) -> &mut Self {
        self.reval = Some(cache);
        self
    }

    /// The cache-context key for `target`: cookie state is part of the
    /// key because the same target renders differently per session
    /// (shadow views must never resurrect into another session).
    fn reval_key(&self, target: &str) -> String {
        let mut key = String::new();
        for (n, v) in &self.cookies {
            key.push_str(n);
            key.push('=');
            key.push_str(v);
            key.push(';');
        }
        key.push('|');
        key.push_str(target);
        key
    }

    /// Build the (possibly conditional) GET for `target`, returning the
    /// revalidation context when a cache is attached: `(key, etag sent)`.
    fn prepare_get(&self, target: &str) -> (Request, Option<(String, bool)>) {
        let mut req = self.build(Request::get(target));
        let Some(rc) = &self.reval else { return (req, None) };
        let key = self.reval_key(target);
        let etag = rc.etag_for(&key);
        if let Some(etag) = &etag {
            req.headers.add("If-None-Match", etag);
        }
        let conditional = etag.is_some();
        (req, Some((key, conditional)))
    }

    /// Settle a GET's answer against the revalidation cache: a `304` to a
    /// conditional request becomes the cached full representation (or,
    /// when the entry was evicted since its ETag was read, an
    /// unconditional refetch through `resend` — still one logical
    /// request), and a fresh representation is stored. Without a cache
    /// (`ctx` is `None`) the answer passes through.
    fn revalidate(
        &self,
        target: &str,
        ctx: Option<(String, bool)>,
        result: Result<Response, ClientError>,
        resend: impl FnOnce(&Request) -> Result<Response, ClientError>,
    ) -> Result<Response, ClientError> {
        let (Some(rc), Some((key, conditional))) = (&self.reval, ctx) else { return result };
        match result {
            Ok(r) if r.status == Status::NOT_MODIFIED && conditional => {
                match rc.take_revalidated(&key) {
                    Some(full) => {
                        if let Some(inst) = &self.inst {
                            inst.not_modified.inc();
                        }
                        Ok(full)
                    }
                    None => {
                        let refetched = resend(&self.build(Request::get(target)));
                        if let Ok(r2) = &refetched {
                            rc.store(&key, r2);
                        }
                        refetched
                    }
                }
            }
            Ok(r) => {
                rc.store(&key, &r);
                Ok(r)
            }
            e => e,
        }
    }

    /// Issue a GET. Requires `&mut self` only when keep-alive is on; this
    /// immutable variant always uses a fresh connection.
    pub fn get(&self, target: &str) -> Result<Response, ClientError> {
        let (req, ctx) = self.prepare_get(target);
        let started = Instant::now();
        let result = self.send_fresh(&req);
        let result = self.revalidate(target, ctx, result, |req| self.send_fresh(req));
        if let Some(inst) = &self.inst {
            inst.observe(started.elapsed(), &result);
        }
        result
    }

    /// Issue a GET over the persistent connection (establishing one on
    /// demand; transparently reconnecting once if the pooled connection
    /// died).
    pub fn get_keep_alive(&mut self, target: &str) -> Result<Response, ClientError> {
        if !self.keep_alive {
            return self.get(target);
        }
        let (req, ctx) = self.prepare_get(target);
        let started = Instant::now();
        // Counted as ONE wire attempt even when a stale pooled connection
        // forces a transparent resend — staleness depends on scheduling,
        // and counters must replay identically for identical seeds.
        let result = self.send_pooled(&req);
        let result = self.revalidate(target, ctx, result, |req| self.send_pooled(req));
        if let Some(inst) = &self.inst {
            inst.observe(started.elapsed(), &result);
        }
        result
    }

    /// Issue GETs for `targets` pipelined on one pooled connection: every
    /// request (built as [`Client::get_keep_alive`] builds it, cookies and
    /// `If-None-Match` included) goes out in one `write`, and the
    /// responses are read back in order. Returns one answer per target,
    /// in order, each revalidated and counted exactly as
    /// [`Client::get_keep_alive`] would.
    ///
    /// * If the first response fails, the whole batch is re-sent once on
    ///   a fresh connection — the stale-connection rule of
    ///   [`Client::get_keep_alive`], batch-wide.
    /// * If the connection ends after at least one response arrived (the
    ///   server retired it at its keep-alive cap, or a fault killed it),
    ///   the rest are unanswered: each is re-sent on its own through
    ///   [`Client::get_keep_alive`] and counted only then, once.
    ///
    /// Without keep-alive, or for a single target, the GETs go one at a
    /// time.
    pub fn get_pipelined<S: AsRef<str>>(
        &mut self,
        targets: &[S],
    ) -> Vec<Result<Response, ClientError>> {
        if !self.keep_alive || targets.len() < 2 {
            return targets.iter().map(|t| self.get_keep_alive(t.as_ref())).collect();
        }
        let (reqs, ctxs): (Vec<Request>, Vec<_>) =
            targets.iter().map(|t| self.prepare_get(t.as_ref())).unzip();
        let mut answers = self.send_pipelined(&reqs).into_iter();
        let mut out = Vec::with_capacity(targets.len());
        for (target, ctx) in targets.iter().map(AsRef::as_ref).zip(ctxs) {
            let Some((result, latency)) = answers.next() else {
                out.push(self.get_keep_alive(target));
                continue;
            };
            let started = Instant::now();
            let result = self.revalidate(target, ctx, result, |req| self.send_pooled(req));
            if let Some(inst) = &self.inst {
                inst.observe(latency + started.elapsed(), &result);
            }
            out.push(result);
        }
        out
    }

    /// Send one request over the pool: [`Client::send_pipelined`] with a
    /// batch of one.
    fn send_pooled(&self, req: &Request) -> Result<Response, ClientError> {
        self.send_pipelined(std::slice::from_ref(req)).swap_remove(0).0
    }

    /// Send `reqs` pipelined over the pool: check out a (possibly reused)
    /// connection and, if the first response fails, re-send the whole
    /// batch once on a fresh one — a reused socket may have been closed
    /// server-side at any point. Returns the answers that arrived, in
    /// order, each with its latency. Fewer answers than requests means the
    /// rest went unanswered; a failed first response (after the one
    /// fresh-connection resend) is the only answer. Only a fully answered
    /// exchange returns the connection to the pool.
    fn send_pipelined(&self, reqs: &[Request]) -> Vec<Answer> {
        let started = Instant::now();
        let failed = |e| vec![(Err(e), started.elapsed())];
        let conn = match self.pool.acquire(self.addr, self.timeout) {
            Ok((conn, _reused)) => conn,
            Err(e) => return failed(ClientError::Connect(e)),
        };
        if let Ok(answers) = self.exchange_pipelined(conn, reqs, started) {
            return answers;
        }
        // Stale pooled connection (or transient failure): one resend on a
        // fresh connection, still one logical request per target.
        match self.pool.connect_fresh(self.addr, self.timeout) {
            Ok(fresh) => self.exchange_pipelined(fresh, reqs, started).unwrap_or_else(failed),
            Err(e) => failed(ClientError::Connect(e)),
        }
    }

    /// Resilient GET over the persistent connection: retries on transport
    /// errors *and* on retryable statuses (5xx, 429 — a fault-injected
    /// server error is as transient as a dropped connection). The §4.3.1
    /// re-request loop, scheduled by `policy`: exponential backoff with
    /// seeded jitter, `Retry-After` honoring, and a total-elapsed cap.
    ///
    /// On exhaustion the *last failure is preserved*: a transport fault
    /// comes back as [`ClientError::Wire`]/[`ClientError::Connect`], and a
    /// retryable status as [`ClientError::Http`] carrying the final
    /// response.
    pub fn get_with_policy(
        &mut self,
        target: &str,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        let started = Instant::now();
        let mut rng = policy.jitter_rng();
        let mut last_err: Option<ClientError> = None;
        for attempt in 0..=policy.max_retries {
            let delay = match self.get_keep_alive(target) {
                Ok(r) => match classify_status(r.status) {
                    StatusClass::Deliver => return Ok(r),
                    StatusClass::Retryable | StatusClass::Throttled => {
                        if let (Some(inst), Some(_)) = (&self.inst, parse_retry_after(&r)) {
                            inst.retry_after_waits.inc();
                        }
                        let d = policy.delay_for_response(&r, attempt, &mut rng);
                        last_err = Some(ClientError::Http(r));
                        d
                    }
                },
                Err(e) => {
                    last_err = Some(e);
                    policy.backoff(attempt, &mut rng)
                }
            };
            if attempt == policy.max_retries {
                break;
            }
            if started.elapsed() + delay > policy.max_elapsed {
                break; // budget spent: report the last failure
            }
            if let Some(inst) = &self.inst {
                inst.retries.inc();
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        Err(last_err.expect("at least one attempt"))
    }

    fn build(&self, mut req: Request) -> Request {
        req.headers.add("Host", "sim.local");
        if !self.cookies.is_empty() {
            let cookie = self
                .cookies
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join("; ");
            req.headers.add("Cookie", &cookie);
        }
        if !self.keep_alive {
            req.headers.add("Connection", "close");
        }
        req
    }

    fn connect(&self) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(ClientError::Connect)?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(ClientError::Connect)?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn send_fresh(&self, req: &Request) -> Result<Response, ClientError> {
        let mut stream = self.connect()?;
        write_request(req, &mut stream).map_err(|e| ClientError::Wire(WireError::Io(e)))?;
        let mut reader = BufReader::new(stream);
        read_response(&mut reader).map_err(ClientError::Wire)
    }

    /// One pipelined exchange on `conn`: all of `reqs` in one write, then
    /// their responses in order. Fails only when the first response
    /// fails; a later failure ends the answers early and drops the
    /// connection. A fully answered connection goes back to the pool.
    fn exchange_pipelined(
        &self,
        mut conn: PooledConn,
        reqs: &[Request],
        started: Instant,
    ) -> Result<Vec<Answer>, ClientError> {
        let io = |e| ClientError::Wire(WireError::Io(e));
        conn.set_read_timeout(self.timeout).map_err(io)?;
        write_requests(reqs, conn.get_mut()).map_err(io)?;
        let mut answers = Vec::with_capacity(reqs.len());
        let first = read_response(&mut *conn).map_err(ClientError::Wire)?;
        answers.push((Ok(first), started.elapsed()));
        while answers.len() < reqs.len() {
            match read_response(&mut *conn) {
                Ok(r) => answers.push((Ok(r), started.elapsed())),
                Err(_) => return Ok(answers),
            }
        }
        self.pool.release(self.addr, conn);
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;
    use crate::server::{Handler, Server, ServerConfig};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn cookie_header_is_sent() {
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            let auth = req.cookie("session").unwrap_or("none").to_owned();
            Response::html(auth)
        });
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let mut client = Client::builder(server.addr()).build();
        assert_eq!(client.get("/").unwrap().text(), "none");
        client.set_cookie("session", "tok123");
        assert_eq!(client.get("/").unwrap().text(), "tok123");
        client.clear_cookies();
        assert_eq!(client.get("/").unwrap().text(), "none");
    }

    #[test]
    fn retries_eventually_succeed_against_flaky_server() {
        // Server drops the first 2 of every 3 requests.
        let counter = Arc::new(AtomicU32::new(0));
        let c2 = counter.clone();
        let handler: Arc<dyn Handler> = Arc::new(move |_: &Request| {
            c2.fetch_add(1, Ordering::SeqCst);
            Response::html("ok".into())
        });
        let cfg = ServerConfig {
            faults: crate::fault::FaultConfig { drop_prob: 0.66, seed: 3, ..Default::default() },
            ..Default::default()
        };
        let server = Server::start(handler, cfg).unwrap();
        let mut client = Client::builder(server.addr()).build();
        let resp = client
            .get_with_policy("/x", &crate::retry::RetryPolicy::immediate(20))
            .expect("retries should eventually land");
        assert_eq!(resp.status, Status::OK);
    }

    #[test]
    fn exhausted_retries_preserve_the_5xx_response() {
        // Regression: the old loop discarded the 5xx response and
        // reported a fabricated Malformed("server error") wire error.
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("x".into()));
        let cfg = ServerConfig {
            faults: crate::fault::FaultConfig { error_prob: 1.0, seed: 1, ..Default::default() },
            ..Default::default()
        };
        let server = Server::start(handler, cfg).unwrap();
        let mut client = Client::builder(server.addr()).build();
        match client.get_with_policy("/x", &crate::retry::RetryPolicy::immediate(2)) {
            Err(ClientError::Http(r)) => assert_eq!(r.status, Status::INTERNAL),
            other => panic!("expected Http(500), got {other:?}"),
        }
    }

    #[test]
    fn policy_retries_ride_out_a_flaky_5xx_server() {
        // 500 on the first two requests, then healthy.
        let counter = Arc::new(AtomicU32::new(0));
        let c2 = counter.clone();
        let handler: Arc<dyn Handler> = Arc::new(move |_: &Request| {
            if c2.fetch_add(1, Ordering::SeqCst) < 2 {
                Response::status(Status::INTERNAL)
            } else {
                Response::html("recovered".into())
            }
        });
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let mut client = Client::builder(server.addr()).build();
        let policy = crate::retry::RetryPolicy::immediate(3);
        let resp = client.get_with_policy("/x", &policy).expect("third attempt lands");
        assert_eq!(resp.text(), "recovered");
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn throttled_responses_honor_retry_after() {
        // One 429 advertising a 60 ms pause, then healthy: the policy must
        // wait at least that long before the retry that succeeds.
        let counter = Arc::new(AtomicU32::new(0));
        let c2 = counter.clone();
        let handler: Arc<dyn Handler> = Arc::new(move |_: &Request| {
            if c2.fetch_add(1, Ordering::SeqCst) == 0 {
                let mut r = Response::status(Status::TOO_MANY);
                r.headers.add("Retry-After", "0.06");
                r
            } else {
                Response::html("ok".into())
            }
        });
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let mut client = Client::builder(server.addr()).build();
        let policy = crate::retry::RetryPolicy {
            base_backoff: Duration::ZERO,
            jitter: 0.0,
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let resp = client.get_with_policy("/x", &policy).expect("retry lands");
        assert_eq!(resp.text(), "ok");
        assert!(
            started.elapsed() >= Duration::from_millis(55),
            "must have slept the advertised Retry-After, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn max_elapsed_cap_stops_retrying() {
        let handler: Arc<dyn Handler> =
            Arc::new(|_: &Request| Response::status(Status::INTERNAL));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let mut client = Client::builder(server.addr()).build();
        let policy = crate::retry::RetryPolicy {
            max_retries: 1_000,
            base_backoff: Duration::from_millis(40),
            multiplier: 1.0,
            jitter: 0.0,
            max_elapsed: Duration::from_millis(120),
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let err = client.get_with_policy("/x", &policy).unwrap_err();
        assert_eq!(err.status(), Some(Status::INTERNAL));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the elapsed cap must cut 1000 retries short"
        );
    }

    #[test]
    fn four_oh_four_is_delivered_not_retried() {
        // The §3.1 probe *reads* 404s; retrying them would be both wrong
        // and slow.
        let counter = Arc::new(AtomicU32::new(0));
        let c2 = counter.clone();
        let handler: Arc<dyn Handler> = Arc::new(move |_: &Request| {
            c2.fetch_add(1, Ordering::SeqCst);
            Response::not_found()
        });
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let mut client = Client::builder(server.addr()).build();
        let resp = client
            .get_with_policy("/missing", &crate::retry::RetryPolicy::immediate(5))
            .expect("404 is a delivered response");
        assert_eq!(resp.status, Status::NOT_FOUND);
        assert_eq!(counter.load(Ordering::SeqCst), 1, "exactly one attempt");
    }

    #[test]
    fn connect_error_reported() {
        // Port 1 on localhost is almost certainly closed.
        let client = Client::builder("127.0.0.1:1".parse().unwrap()).build();
        match client.get("/") {
            Err(ClientError::Connect(_)) => {}
            other => panic!("expected connect error, got {other:?}"),
        }
    }

    #[test]
    fn keep_alive_reconnects_after_server_side_close() {
        let handler: Arc<dyn Handler> =
            Arc::new(|_: &Request| Response::html("pong".into()));
        let cfg = ServerConfig { max_requests_per_conn: 1, ..Default::default() };
        let server = Server::start(handler, cfg).unwrap();
        let mut client = Client::builder(server.addr()).build();
        client.keep_alive(true);
        // Server closes after every request; client must transparently
        // reconnect.
        for _ in 0..3 {
            assert_eq!(client.get_keep_alive("/p").unwrap().text(), "pong");
        }
    }

    #[test]
    fn instrumented_client_counts_requests_and_latency() {
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("ok".into()));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let registry = obs::Registry::new();
        let mut client = Client::builder(server.addr()).build();
        client.instrument(&registry, "gab");
        for _ in 0..5 {
            client.get("/x").unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("http.gab.requests"), Some(5));
        assert_eq!(snap.counter("http.gab.wire_faults"), Some(0));
        let hist = snap.histogram("http.gab.latency").expect("latency histogram");
        assert_eq!(hist.count, 5);
        assert!(hist.sum_ns > 0, "loopback round-trips take nonzero time");
    }

    #[test]
    fn instrumented_retries_and_retry_after_are_counted() {
        // First response: 429 with Retry-After. Second: 500. Third: ok.
        // Expect requests=3, retries=2, retry_after_waits=1, status_429=1,
        // status_5xx=1 — all seed-independent facts of the exchange.
        let counter = Arc::new(AtomicU32::new(0));
        let c2 = counter.clone();
        let handler: Arc<dyn Handler> = Arc::new(move |_: &Request| {
            match c2.fetch_add(1, Ordering::SeqCst) {
                0 => {
                    let mut r = Response::status(Status::TOO_MANY);
                    r.headers.add("Retry-After", "0.01");
                    r
                }
                1 => Response::status(Status::INTERNAL),
                _ => Response::html("ok".into()),
            }
        });
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let registry = obs::Registry::new();
        let mut client = Client::builder(server.addr()).build();
        client.instrument(&registry, "api");
        let policy = crate::retry::RetryPolicy {
            base_backoff: Duration::ZERO,
            jitter: 0.0,
            ..Default::default()
        };
        assert_eq!(client.get_with_policy("/x", &policy).unwrap().text(), "ok");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("http.api.requests"), Some(3));
        assert_eq!(snap.counter("http.api.retries"), Some(2));
        assert_eq!(snap.counter("http.api.retry_after_waits"), Some(1));
        assert_eq!(snap.counter("http.api.status_429"), Some(1));
        assert_eq!(snap.counter("http.api.status_5xx"), Some(1));
    }

    /// A conditional server: tags every 200 with a fixed ETag and
    /// answers 304 to a matching If-None-Match. Returns the handler and
    /// a counter of full (non-304) renders.
    fn conditional_server() -> (Server, Arc<AtomicU32>) {
        let renders = Arc::new(AtomicU32::new(0));
        let r2 = renders.clone();
        let etag = crate::http::format_etag(0xabcd);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            if let Some(inm) = req.headers.get("if-none-match") {
                if crate::http::if_none_match(inm, &etag) {
                    let mut h = crate::http::Headers::new();
                    h.add("ETag", &etag);
                    return Response::not_modified(h);
                }
            }
            r2.fetch_add(1, Ordering::SeqCst);
            let mut resp = Response::html(format!("full body for {}", req.path()));
            resp.headers.add("ETag", &etag);
            resp
        });
        (Server::start(handler, ServerConfig::default()).unwrap(), renders)
    }

    #[test]
    fn revalidation_cache_turns_304_into_the_full_response() {
        let (server, renders) = conditional_server();
        let registry = obs::Registry::new();
        let cache = RevalidationCache::new(64);
        let mut client = Client::builder(server.addr())
            .keep_alive(true)
            .metrics(&registry, "cond")
            .revalidation_cache(cache.clone())
            .build();
        let first = client.get_keep_alive("/page").unwrap();
        let second = client.get_keep_alive("/page").unwrap();
        // The caller sees identical full 200s both times…
        assert_eq!(first.status, Status::OK);
        assert_eq!(second.status, Status::OK);
        assert_eq!(first.text(), second.text());
        // …but the server only rendered once.
        assert_eq!(renders.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().revalidated, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("http.cond.not_modified"), Some(1));
        assert_eq!(snap.counter("http.cond.requests"), Some(2));
    }

    #[test]
    fn revalidation_is_scoped_by_cookie_context() {
        // Same target, different session cookie: the second session must
        // NOT revalidate against the first session's entry.
        let (server, renders) = conditional_server();
        let cache = RevalidationCache::new(64);
        let mut client =
            Client::builder(server.addr()).revalidation_cache(cache.clone()).build();
        client.set_cookie("session", "a");
        client.get("/page").unwrap();
        client.set_cookie("session", "b");
        client.get("/page").unwrap();
        assert_eq!(renders.load(Ordering::SeqCst), 2, "one full render per session");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn evicted_entry_forces_transparent_unconditional_refetch() {
        let (server, renders) = conditional_server();
        let cache = RevalidationCache::new(1);
        let client = Client::builder(server.addr()).revalidation_cache(cache.clone()).build();
        client.get("/a").unwrap();
        client.get("/b").unwrap(); // evicts /a (capacity 1)
        let again = client.get("/a").unwrap();
        assert_eq!(again.status, Status::OK);
        assert!(again.text().contains("/a"), "full body delivered after eviction");
        assert_eq!(renders.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn pooled_keep_alive_reconciles_with_server_requests_served() {
        // Lifecycle satellite: every logical request rides exactly one
        // pooled checkout, so open + reuse == server.requests_served.
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("pong".into()));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let mut client = Client::builder(server.addr()).keep_alive(true).build();
        for _ in 0..10 {
            assert_eq!(client.get_keep_alive("/p").unwrap().text(), "pong");
        }
        let stats = client.pool().stats();
        assert_eq!(stats.open, 1, "one connect for the whole run");
        assert_eq!(stats.reuse, 9);
        assert_eq!(stats.open + stats.reuse, server.requests_served());
    }

    #[test]
    fn shared_pool_reuses_across_client_instances() {
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("pong".into()));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let pool = crate::cpool::ConnPool::new(crate::cpool::PoolConfig::default());
        for _ in 0..3 {
            // A fresh Client per sweep, as the crawler builds them.
            let mut client =
                Client::builder(server.addr()).keep_alive(true).pool(pool.clone()).build();
            assert_eq!(client.get_keep_alive("/p").unwrap().text(), "pong");
        }
        let stats = pool.stats();
        assert_eq!(stats.open, 1, "later clients reuse the first client's connection");
        assert_eq!(stats.reuse, 2);
    }

    #[test]
    fn pool_idle_timeout_evicts_between_requests() {
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("pong".into()));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let pool = crate::cpool::ConnPool::new(crate::cpool::PoolConfig {
            idle_timeout: Duration::from_millis(20),
            ..Default::default()
        });
        let mut client =
            Client::builder(server.addr()).keep_alive(true).pool(pool.clone()).build();
        client.get_keep_alive("/p").unwrap();
        std::thread::sleep(Duration::from_millis(60));
        client.get_keep_alive("/p").unwrap();
        let stats = pool.stats();
        assert_eq!(stats.evicted, 1, "cold connection evicted, not reused");
        assert_eq!(stats.open, 2);
        assert_eq!(stats.reuse, 0);
    }

    #[test]
    fn transparent_retry_reconciles_pool_and_server_counters() {
        // Server closes after every request, so each logical request
        // after the first burns one stale reuse and opens one fresh
        // connection — yet requests/served counters see one request each.
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("pong".into()));
        let cfg = ServerConfig { max_requests_per_conn: 1, ..Default::default() };
        let server = Server::start(handler, cfg).unwrap();
        let registry = obs::Registry::new();
        let mut client = Client::builder(server.addr())
            .keep_alive(true)
            .metrics(&registry, "ka")
            .build();
        for _ in 0..4 {
            assert_eq!(client.get_keep_alive("/p").unwrap().text(), "pong");
        }
        let stats = client.pool().stats();
        assert_eq!(stats.open, 4, "every logical request ends on a fresh connection");
        assert_eq!(stats.reuse, 3, "stale checkouts before each transparent retry");
        assert_eq!(server.requests_served(), 4, "server saw exactly the logical requests");
        assert_eq!(registry.snapshot().counter("http.ka.requests"), Some(4));
    }

    #[test]
    fn keep_alive_reconnect_counts_one_logical_request() {
        // The transparent stale-connection resend must NOT double-count:
        // counters are part of the deterministic replay surface and
        // connection staleness depends on scheduling.
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("pong".into()));
        let cfg = ServerConfig { max_requests_per_conn: 1, ..Default::default() };
        let server = Server::start(handler, cfg).unwrap();
        let registry = obs::Registry::new();
        let mut client = Client::builder(server.addr()).build();
        client.keep_alive(true);
        client.instrument(&registry, "ka");
        for _ in 0..4 {
            assert_eq!(client.get_keep_alive("/p").unwrap().text(), "pong");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("http.ka.requests"), Some(4));
        assert_eq!(snap.histogram("http.ka.latency").unwrap().count, 4);
    }

    fn retiring_echo_server() -> Server {
        let handler: Arc<dyn Handler> =
            Arc::new(|req: &Request| Response::html(format!("echo:{}", req.path())));
        Server::start(handler, ServerConfig { max_requests_per_conn: 3, ..Default::default() })
            .unwrap()
    }

    fn targets(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("/t{i}")).collect()
    }

    fn assert_echoed(answers: Vec<Result<Response, ClientError>>, targets: &[String]) {
        assert_eq!(answers.len(), targets.len());
        for (answer, target) in answers.into_iter().zip(targets) {
            assert_eq!(answer.unwrap().text(), format!("echo:{target}"));
        }
    }

    #[test]
    fn a_pipelined_batch_is_fully_answered_past_keep_alive_retirement() {
        // The server retires each connection after 3 requests, so 5 of
        // the 8 go unanswered on the batch's connection and are re-sent
        // one at a time — each counted once, when it is sent.
        let server = retiring_echo_server();
        let registry = obs::Registry::new();
        let mut client =
            Client::builder(server.addr()).keep_alive(true).metrics(&registry, "pl").build();
        let targets = targets(8);
        assert_echoed(client.get_pipelined(&targets), &targets);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("http.pl.requests"), Some(8));
        assert_eq!(snap.counter("http.pl.requests"), Some(server.requests_served()));
        assert_eq!(snap.histogram("http.pl.latency").unwrap().count, 8);
        let served: Vec<String> =
            server.access_log().snapshot().into_iter().map(|e| e.target).collect();
        assert_eq!(served, targets, "each request reached the server once, in order");
    }

    #[test]
    fn a_stale_pooled_connection_resends_the_batch_once() {
        let server = retiring_echo_server();
        let registry = obs::Registry::new();
        let mut client =
            Client::builder(server.addr()).keep_alive(true).metrics(&registry, "pl").build();
        // Three requests use up the connection; the client parks it, and
        // the server has closed it.
        for t in ["/w0", "/w1", "/w2"] {
            client.get_keep_alive(t).unwrap();
        }
        let parked = client.pool().stats();
        assert_eq!((parked.open, parked.idle), (1, 1));
        let targets = targets(8);
        assert_echoed(client.get_pipelined(&targets), &targets);
        assert!(client.pool().stats().reuse > parked.reuse, "the stale connection was tried");
        assert_eq!(server.requests_served(), 11);
        assert_eq!(registry.snapshot().counter("http.pl.requests"), Some(11));
        let served: Vec<String> =
            server.access_log().snapshot().into_iter().skip(3).map(|e| e.target).collect();
        assert_eq!(served, targets, "the batch reached the server once, on a fresh connection");
    }

    #[test]
    fn pipelined_gets_resolve_304s_from_the_revalidation_cache() {
        let (server, renders) = conditional_server();
        let registry = obs::Registry::new();
        let mut client = Client::builder(server.addr())
            .keep_alive(true)
            .metrics(&registry, "cond")
            .revalidation_cache(RevalidationCache::new(64))
            .build();
        client.set_cookie("session", "s");
        let targets = targets(4);
        let first: Vec<String> =
            client.get_pipelined(&targets).into_iter().map(|r| r.unwrap().text()).collect();
        let second: Vec<String> =
            client.get_pipelined(&targets).into_iter().map(|r| r.unwrap().text()).collect();
        assert_eq!(first, second, "the 304s resolved to the cached bodies");
        assert_eq!(renders.load(Ordering::SeqCst), 4, "the re-fetch rendered nothing");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("http.cond.not_modified"), Some(4));
        assert_eq!(snap.counter("http.cond.requests"), Some(8));
    }

    #[test]
    fn clients_sharing_a_pool_each_get_their_own_read_timeout() {
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("pong".into()));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let pool = ConnPool::default();
        let client = |t| {
            Client::builder(server.addr()).keep_alive(true).timeout(t).pool(pool.clone()).build()
        };
        let (slow, fast) = (Duration::from_secs(5), Duration::from_millis(700));
        let mut clients = [client(slow), client(fast)];
        // The socket's kernel timeout after each client's exchange on the
        // one shared connection.
        let parked_timeout = || {
            let (conn, reused) = pool.acquire(server.addr(), slow).unwrap();
            assert!(reused, "the exchange parked its connection");
            let t = conn.get_ref().read_timeout().unwrap();
            pool.release(server.addr(), conn);
            t
        };
        // The patient client, then the hasty one, then the patient again.
        for (i, want) in [(0, slow), (1, fast), (0, slow)] {
            assert_eq!(clients[i].get_keep_alive("/").unwrap().text(), "pong");
            assert_eq!(parked_timeout(), Some(want));
        }
        assert_eq!(pool.stats().open, 1, "all three exchanges shared one connection");
    }
}
