//! The event-driven HTTP server.
//!
//! An accept loop on a dedicated thread feeds accepted connections
//! round-robin to `workers` epoll reactors (the private `reactor`
//! module); each reactor multiplexes its connections on a readiness loop
//! with per-connection state machines, so a stalled or fault-delayed peer
//! never pins a thread. Transient `accept()` failures (EMFILE during a
//! connection flood) back off exponentially instead of spinning hot, and
//! are counted under `accept.errors` when a metrics registry is set.
//! Shutdown is cooperative: a flag is set, the accept loop is woken with
//! a self-connection, and every reactor is woken through its eventfd.

use crate::fault::{FaultConfig, FaultInjector};
use crate::http::{Request, Response, Status};
use crate::reactor::{Inbox, Reactor, ReactorShared};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A request handler. Implementations must be thread-safe; the server
/// invokes them concurrently (one at a time per reactor).
pub trait Handler: Send + Sync + 'static {
    /// Produce a response for one request.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor (event-loop worker) threads.
    pub workers: usize,
    /// Pending-connection hand-off queue per reactor.
    pub queue: usize,
    /// Per-connection read timeout (enforced to sweep granularity,
    /// ~200 ms).
    pub read_timeout: Duration,
    /// Per-connection write timeout — symmetric with `read_timeout`: a
    /// peer that stops draining its receive window must not pin a
    /// connection slot forever any more than a peer that stops sending.
    pub write_timeout: Duration,
    /// Maximum keep-alive requests per connection.
    pub max_requests_per_conn: usize,
    /// Total time a connection may take to deliver one complete request,
    /// measured from its first byte. Unlike `read_timeout` (refreshed on
    /// every read, so a slowloris peer trickling one byte per interval
    /// refreshes it forever), this budget is pinned at request start;
    /// connections that exceed it are closed and counted under
    /// `conn.read_timeouts`.
    pub header_read_timeout: Duration,
    /// Ceiling on buffered, not-yet-parsed request bytes per connection.
    /// A peer that exceeds it (shoveling bytes that never form a request)
    /// is closed and counted under `conn.oversize`.
    pub max_inflight_request_bytes: usize,
    /// Fault injection.
    pub faults: FaultConfig,
    /// Optional metrics registry: handler panics are counted under
    /// `server.handler_panics` and accept failures under `accept.errors`
    /// when set.
    pub metrics: Option<obs::Registry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            queue: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            header_read_timeout: Duration::from_secs(10),
            max_inflight_request_bytes: crate::http::MAX_BODY + crate::http::MAX_LINE * 2,
            faults: FaultConfig::none(),
            metrics: None,
        }
    }
}

/// Smallest accept-error backoff; doubles per consecutive failure.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
/// Backoff cap, so recovery after a long fd-exhaustion episode is quick.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// A running HTTP server. Dropping it shuts it down and joins all threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    reactor_threads: Vec<std::thread::JoinHandle<()>>,
    inboxes: Vec<Arc<Inbox>>,
    requests_served: Arc<AtomicU64>,
    access_log: Arc<crate::log::AccessLog>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({})", self.addr)
    }
}

impl Server {
    /// Bind to `127.0.0.1:0` (ephemeral port) and start serving.
    pub fn start(handler: Arc<dyn Handler>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests_served = Arc::new(AtomicU64::new(0));
        let access_log = Arc::new(crate::log::AccessLog::new(4096));
        let accept_errors = config.metrics.as_ref().map(|r| r.counter("accept.errors"));
        let handler_panics = config.metrics.as_ref().map(|r| r.counter("server.handler_panics"));
        let read_timeouts = config.metrics.as_ref().map(|r| r.counter("conn.read_timeouts"));
        let write_timeouts = config.metrics.as_ref().map(|r| r.counter("conn.write_timeouts"));
        let oversize = config.metrics.as_ref().map(|r| r.counter("conn.oversize"));
        let coalesced = config.metrics.as_ref().map(|r| r.counter("conn.coalesced"));

        let shared = Arc::new(ReactorShared {
            handler,
            injector: Arc::new(FaultInjector::new(config.faults)),
            requests_served: requests_served.clone(),
            access_log: access_log.clone(),
            stop: stop.clone(),
            config: config.clone(),
            handler_panics,
            read_timeouts,
            write_timeouts,
            oversize,
            coalesced,
        });

        let workers = config.workers.max(1);
        let mut inboxes = Vec::with_capacity(workers);
        let mut reactor_threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let inbox = Inbox::new(config.queue)?;
            let reactor = Reactor::new(inbox.clone(), shared.clone())?;
            inboxes.push(inbox);
            reactor_threads.push(
                std::thread::Builder::new()
                    .name(format!("httpnet-reactor-{i}"))
                    .spawn(move || reactor.run())?,
            );
        }

        let accept_stop = stop.clone();
        let accept_inboxes = inboxes.clone();
        let accept_thread = std::thread::Builder::new()
            .name("httpnet-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_inboxes, accept_stop, accept_errors);
            })?;

        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            reactor_threads,
            inboxes,
            requests_served,
            access_log,
        })
    }

    /// The server's access log (bounded ring of recent requests).
    pub fn access_log(&self) -> &crate::log::AccessLog {
        &self.access_log
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::SeqCst)
    }

    /// Stop accepting and join all threads.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for inbox in &self.inboxes {
            inbox.wake();
        }
        for t in self.reactor_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections and hand them to reactors round-robin. Errors from
/// `accept()` (fd exhaustion, aborted handshakes on some platforms) back
/// off exponentially up to [`ACCEPT_BACKOFF_MAX`] instead of spinning.
fn accept_loop(
    listener: TcpListener,
    inboxes: Vec<Arc<Inbox>>,
    stop: Arc<AtomicBool>,
    accept_errors: Option<obs::Counter>,
) {
    let mut next = 0usize;
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let mut pending = Some(stream);
                'place: while let Some(s) = pending.take() {
                    let mut cur = s;
                    for k in 0..inboxes.len() {
                        let i = (next + k) % inboxes.len();
                        match inboxes[i].push(cur) {
                            Ok(()) => {
                                next = (i + 1) % inboxes.len();
                                continue 'place;
                            }
                            Err(back) => cur = back,
                        }
                    }
                    // Every inbox is full: brief pause, then retry so the
                    // connection is not dropped under a burst.
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    pending = Some(cur);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(c) = &accept_errors {
                    c.inc();
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

/// A throttling response advertising when the client may retry.
/// `Retry-After` is written in (possibly fractional) seconds; the
/// simulation allows sub-second values so throttle tests stay fast.
pub(crate) fn retry_after_response(status: Status, retry_after: Duration) -> Response {
    let mut resp = Response::status(status);
    resp.headers.add("Retry-After", &format!("{}", retry_after.as_secs_f64()));
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::fault::FaultAction;
    use crate::http::WireError;

    fn echo_server(config: ServerConfig) -> Server {
        let handler: Arc<dyn Handler> =
            Arc::new(|req: &Request| Response::html(format!("echo:{}", req.path())));
        Server::start(handler, config).expect("server starts")
    }

    #[test]
    fn serves_requests() {
        let server = echo_server(ServerConfig::default());
        let client = Client::builder(server.addr()).build();
        let resp = client.get("/hello").unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.text(), "echo:/hello");
        assert_eq!(server.requests_served(), 1);
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let server = echo_server(ServerConfig::default());
        let client = Client::builder(server.addr()).build();
        for i in 0..5 {
            let resp = client.get(&format!("/r{i}")).unwrap();
            assert_eq!(resp.text(), format!("echo:/r{i}"));
        }
        assert_eq!(server.requests_served(), 5);
        assert_eq!(client.pool().stats().open, 1, "all five rode one connection");
    }

    #[test]
    fn concurrent_clients() {
        let server = echo_server(ServerConfig::default());
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(std::thread::spawn(move || {
                let client = Client::builder(addr).build();
                for i in 0..20 {
                    let resp = client.get(&format!("/t{t}/{i}")).unwrap();
                    assert_eq!(resp.text(), format!("echo:/t{t}/{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.requests_served(), 160);
    }

    #[test]
    fn access_log_records_served_requests() {
        let server = echo_server(ServerConfig::default());
        let client = Client::builder(server.addr()).build();
        client.get("/logged?x=1").unwrap();
        client.get("/another").unwrap();
        let snap = server.access_log().snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].target, "/logged?x=1");
        assert_eq!(snap[0].status, 200);
        assert!(snap[0].body_len > 0);
        assert_eq!(server.access_log().count_status_class(2), 2);
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let mut server = echo_server(ServerConfig::default());
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn single_worker_multiplexes_concurrent_connections() {
        // One reactor, many simultaneous keep-alive connections: the
        // readiness loop must interleave them rather than serialize
        // whole connections.
        let server = echo_server(ServerConfig { workers: 1, ..Default::default() });
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..16 {
            handles.push(std::thread::spawn(move || {
                let client = Client::builder(addr).build();
                for i in 0..10 {
                    let resp = client.get(&format!("/w{t}/{i}")).unwrap();
                    assert_eq!(resp.text(), format!("echo:/w{t}/{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.requests_served(), 160);
    }

    #[test]
    fn pipelined_requests_get_ordered_responses() {
        use std::io::{Read, Write};
        let server = echo_server(ServerConfig::default());
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut batch = Vec::new();
        for i in 0..4 {
            batch.extend_from_slice(
                format!("GET /p{i} HTTP/1.1\r\nHost: sim.local\r\n\r\n").as_bytes(),
            );
        }
        // Last request closes the connection so read_to_end terminates.
        batch.extend_from_slice(b"GET /last HTTP/1.1\r\nHost: sim.local\r\nConnection: close\r\n\r\n");
        s.write_all(&batch).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        let mut pos = 0;
        for expect in ["echo:/p0", "echo:/p1", "echo:/p2", "echo:/p3", "echo:/last"] {
            let at = text[pos..].find(expect).unwrap_or_else(|| panic!("missing {expect}"));
            pos += at + expect.len();
        }
        assert_eq!(server.requests_served(), 5);
    }

    /// The bytes a server answering `reqs` one at a time puts on the wire.
    fn sequential_bytes(handler: &dyn Handler, reqs: &[Request]) -> Vec<u8> {
        let mut want = Vec::new();
        for req in reqs {
            handler.handle(req).write_to(&mut want).unwrap();
        }
        want
    }

    fn pipelined_batch(paths: &[&str]) -> (Vec<Request>, Vec<u8>) {
        let reqs: Vec<Request> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut req = Request::get(p);
                req.headers.add("Host", "sim.local");
                if i + 1 == paths.len() {
                    req.headers.add("Connection", "close");
                }
                req
            })
            .collect();
        let mut wire = Vec::new();
        crate::http::write_requests(&reqs, &mut wire).unwrap();
        (reqs, wire)
    }

    #[test]
    fn pipelined_gets_are_answered_in_order_by_one_coalesced_write() {
        use std::io::{Read, Write};
        let registry = obs::Registry::new();
        // Bodies of different sizes, so a misordered or merged response
        // cannot produce the same bytes.
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            Response::html(format!("echo:{}", req.path()).repeat(req.path().len()))
        });
        let server = Server::start(
            handler.clone(),
            ServerConfig { workers: 1, metrics: Some(registry.clone()), ..Default::default() },
        )
        .unwrap();
        let paths = ["/a", "/bb", "/ccc", "/d", "/eeeee", "/f", "/gg", "/last"];
        let (reqs, wire) = pipelined_batch(&paths);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&wire).unwrap();
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        assert_eq!(got, sequential_bytes(&*handler, &reqs), "sequential serving's bytes");
        assert_eq!(server.requests_served(), 8);
        assert_eq!(
            registry.snapshot().counter("conn.coalesced"),
            Some(7),
            "all eight responses left in one write"
        );
    }

    #[test]
    fn a_killed_request_never_holds_back_earlier_responses() {
        use std::io::{Read, Write};
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            assert_ne!(req.path(), "/boom", "handler exploded");
            Response::html(format!("echo:{}", req.path()))
        });
        let server =
            Server::start(handler.clone(), ServerConfig { workers: 1, ..Default::default() })
                .unwrap();
        let (reqs, wire) = pipelined_batch(&["/a", "/b", "/boom", "/c"]);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&wire).unwrap();
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        assert_eq!(got, sequential_bytes(&*handler, &reqs[..2]), "earlier responses, then close");
        assert_eq!(server.requests_served(), 2);
    }

    #[test]
    fn a_delayed_request_never_holds_back_earlier_responses() {
        use std::io::Write;
        let stall = Duration::from_millis(1500);
        // A seed whose first three draws are proceed, proceed, stall.
        let faults = (0..)
            .map(|seed| FaultConfig { stall_prob: 0.5, stall, seed, ..Default::default() })
            .find(|cfg| {
                let injector = crate::fault::FaultInjector::new(*cfg);
                let draws: Vec<_> = (0..3).map(|_| injector.decide()).collect();
                matches!(
                    draws[..],
                    [FaultAction::Proceed(_), FaultAction::Proceed(_), FaultAction::Stall(_)]
                )
            })
            .unwrap();
        let server = echo_server(ServerConfig { workers: 1, faults, ..Default::default() });
        let (_, wire) = pipelined_batch(&["/a", "/b", "/slow", "/c"]);
        let started = std::time::Instant::now();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&wire).unwrap();
        let mut reader = std::io::BufReader::new(s);
        for want in ["echo:/a", "echo:/b"] {
            assert_eq!(crate::http::read_response(&mut reader).unwrap().text(), want);
        }
        assert!(started.elapsed() < stall, "earlier responses waited out the stall");
        for want in ["echo:/slow", "echo:/c"] {
            assert_eq!(crate::http::read_response(&mut reader).unwrap().text(), want);
        }
        assert!(started.elapsed() >= stall);
        assert_eq!(server.requests_served(), 4);
    }

    #[test]
    fn an_unread_pipelined_flood_stays_bounded() {
        use std::io::Write;
        let registry = obs::Registry::new();
        let body = "x".repeat(64 * 1024);
        let handler: Arc<dyn Handler> = Arc::new(move |_: &Request| Response::html(body.clone()));
        let server = Server::start(
            handler,
            ServerConfig {
                workers: 1,
                write_timeout: Duration::from_millis(300),
                metrics: Some(registry.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        // 100k padded GETs (~100 MB) that the peer never reads answers to.
        let mut one = Request::get("/flood");
        one.headers.add("Host", "sim.local");
        one.headers.add("X-Pad", &"p".repeat(1000));
        let mut chunk = Vec::new();
        crate::http::write_requests(&vec![one; 100], &mut chunk).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
        let sent = (0..1000).take_while(|_| s.write_all(&chunk).is_ok()).count() * 100;
        assert!(sent < 100_000, "the server kept reading an undrained flood");
        // The reactor stopped serving once its writes backed up, and the
        // write deadline closed the connection.
        let served = server.requests_served();
        assert!(served < 2_000, "served {served} responses nobody read");
        assert_eq!(registry.snapshot().counter("conn.write_timeouts"), Some(1));
        let client = Client::builder(server.addr()).build();
        assert_eq!(client.get("/fine").unwrap().status, Status::OK);
    }

    #[test]
    fn handler_panic_drops_connection_and_counts() {
        use std::io::Write;
        let registry = obs::Registry::new();
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            if req.path() == "/boom" {
                panic!("handler exploded");
            }
            Response::html("ok".to_string())
        });
        let server = Server::start(
            handler,
            ServerConfig { metrics: Some(registry.clone()), ..Default::default() },
        )
        .unwrap();
        // A raw socket, not the client: the client's fresh-connection
        // resend would run the panicking handler a second time.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(b"GET /boom HTTP/1.1\r\nHost: sim.local\r\n\r\n").unwrap();
        assert!(
            crate::http::read_response(&mut std::io::BufReader::new(raw)).is_err(),
            "panicked handler must close the connection"
        );
        // The server survives and keeps serving.
        let client = Client::builder(server.addr()).build();
        assert_eq!(client.get("/fine").unwrap().text(), "ok");
        // A scoring pool sharing the registry, as in `run_study`, counts
        // its job panics apart from the server's handler panics.
        crate::ThreadPool::with_metrics(1, 1, Some(&registry))
            .execute(|| panic!("scoring job exploded"));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.handler_panics"), Some(1));
        assert_eq!(snap.counter("pool.job_panics"), Some(1));
    }

    #[test]
    fn slow_draining_peer_gets_write_timeout_close() {
        use std::io::Write;
        // A response too large for kernel socket buffers (tcp_wmem +
        // tcp_rmem autotune to ~36 MB here) against a peer that never
        // reads: the reactor must park the connection on EPOLLOUT and
        // close it when the write deadline passes — without blocking
        // other connections.
        let big = "x".repeat(64 * 1024 * 1024);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            if req.path() == "/big" {
                Response::html(big.clone())
            } else {
                Response::html("ok".to_string())
            }
        });
        let server = Server::start(
            handler,
            ServerConfig {
                workers: 1,
                write_timeout: Duration::from_millis(300),
                ..Default::default()
            },
        )
        .unwrap();
        let mut stuck = TcpStream::connect(server.addr()).unwrap();
        stuck.write_all(b"GET /big HTTP/1.1\r\nHost: sim.local\r\n\r\n").unwrap();
        // While the big write is parked, a well-behaved client on the
        // same single reactor is still served.
        std::thread::sleep(Duration::from_millis(50));
        let client = Client::builder(server.addr()).build();
        assert_eq!(client.get("/ok").unwrap().status, Status::OK);
        // Wait out the write deadline plus a sweep interval (draining
        // earlier would un-stick the write), then drain: buffered bytes
        // followed by EOF proves the sweep closed the connection.
        std::thread::sleep(Duration::from_millis(900));
        stuck.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut sink = vec![0u8; 1024 * 1024];
        loop {
            match std::io::Read::read(&mut stuck, &mut sink) {
                Ok(0) => break, // server closed
                Ok(_) => continue,
                Err(e) => panic!("server never closed the stuck connection: {e}"),
            }
        }
    }

    #[test]
    fn header_trickle_slowloris_is_closed_and_counted() {
        use std::io::Write;
        // One byte per 100 ms of a syntactically fine request that never
        // completes: each byte refreshes the per-read deadline, so only
        // the pinned `header_read_timeout` budget can stop it.
        let registry = obs::Registry::new();
        let server = echo_server(ServerConfig {
            workers: 1,
            read_timeout: Duration::from_secs(5),
            header_read_timeout: Duration::from_millis(300),
            metrics: Some(registry.clone()),
            ..Default::default()
        });
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let req = b"GET /slow HTTP/1.1\r\nHost: sim.local\r\nX-Pad: aaaaaaaaaaaaaaaa\r\n\r\n";
        let started = std::time::Instant::now();
        let mut fed = 0usize;
        let mut closed = false;
        for &b in req.iter() {
            if s.write_all(&[b]).is_err() {
                closed = true;
                break;
            }
            fed += 1;
            std::thread::sleep(Duration::from_millis(100));
            if started.elapsed() > Duration::from_secs(3) {
                break;
            }
        }
        // The write side may keep succeeding into kernel buffers after
        // the server closed; the read side is authoritative.
        if !closed {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut byte = [0u8; 16];
            match std::io::Read::read(&mut s, &mut byte) {
                Ok(0) => {}
                Err(e) if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => panic!("server never closed the trickling connection"),
                Err(_) => {}
                Ok(n) => panic!("server answered a never-completed request with {n} bytes"),
            }
        }
        assert!(
            fed < req.len(),
            "server accepted the whole trickled request ({fed} bytes) without closing"
        );
        assert!(
            registry.snapshot().counter("conn.read_timeouts").unwrap_or(0) >= 1,
            "slowloris close must be counted under conn.read_timeouts"
        );
        // A well-behaved client on the same reactor is unaffected.
        let client = Client::builder(server.addr()).build();
        assert_eq!(client.get("/fine").unwrap().status, Status::OK);
    }

    #[test]
    fn peer_abort_mid_request_leaves_server_clean() {
        use std::io::Write;
        // Two flavors of mid-request abort against the reactor: a FIN
        // after half a request (EPOLLRDHUP / read 0) and an RST via
        // SO_LINGER(0) (EPOLLHUP / ECONNRESET). Neither may count a
        // served request or wedge the reactor.
        let registry = obs::Registry::new();
        let server = echo_server(ServerConfig {
            workers: 1,
            metrics: Some(registry.clone()),
            ..Default::default()
        });

        // FIN mid-request.
        let mut fin = TcpStream::connect(server.addr()).unwrap();
        fin.write_all(b"GET /half HTTP/1.1\r\nHos").unwrap();
        fin.shutdown(std::net::Shutdown::Write).unwrap();
        // RST mid-request: linger(0) turns close into a reset.
        let rst = TcpStream::connect(server.addr()).unwrap();
        (&rst).write_all(b"POST /half HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial").unwrap();
        set_linger_zero(&rst);
        drop(rst);
        std::thread::sleep(Duration::from_millis(100));

        // The reactor survives both aborts and never accounted them.
        let client = Client::builder(server.addr()).build();
        assert_eq!(client.get("/after").unwrap().text(), "echo:/after");
        assert_eq!(server.requests_served(), 1, "aborted requests must not be counted");
        drop(fin);
    }

    /// `SO_LINGER { on, 0 }` via setsockopt so dropping the socket sends
    /// RST instead of FIN (no libc: raw syscall like `crate::sys`).
    fn set_linger_zero(s: &TcpStream) {
        use std::os::fd::AsRawFd;
        #[repr(C)]
        struct Linger {
            onoff: i32,
            linger: i32,
        }
        let val = Linger { onoff: 1, linger: 0 };
        // SOL_SOCKET = 1, SO_LINGER = 13 on linux.
        let ret = unsafe {
            let fd = s.as_raw_fd() as usize;
            let level = 1usize;
            let optname = 13usize;
            let optval = &val as *const Linger as usize;
            let optlen = std::mem::size_of::<Linger>();
            syscall_setsockopt(fd, level, optname, optval, optlen)
        };
        assert_eq!(ret, 0, "setsockopt(SO_LINGER) failed");
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall_setsockopt(
        fd: usize,
        level: usize,
        optname: usize,
        optval: usize,
        optlen: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 54isize => ret, // __NR_setsockopt
            in("rdi") fd,
            in("rsi") level,
            in("rdx") optname,
            in("r10") optval,
            in("r8") optlen,
            lateout("rcx") _,
            lateout("r11") _,
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall_setsockopt(
        fd: usize,
        level: usize,
        optname: usize,
        optval: usize,
        optlen: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            inlateout("x8") 208isize => _, // __NR_setsockopt
            inlateout("x0") fd as isize => ret,
            in("x1") level,
            in("x2") optname,
            in("x3") optval,
            in("x4") optlen,
        );
        ret
    }

    #[test]
    fn oversize_inflight_request_is_closed_and_counted() {
        use std::io::Write;
        let registry = obs::Registry::new();
        let server = echo_server(ServerConfig {
            workers: 1,
            max_inflight_request_bytes: 64 * 1024,
            metrics: Some(registry.clone()),
            ..Default::default()
        });
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // Headers that never end: the buffered bytes cross the ceiling
        // long before any request parses.
        s.write_all(b"GET /big HTTP/1.1\r\n").unwrap();
        let chunk = format!("X-Fill: {}\r\n", "a".repeat(4000));
        let mut closed = false;
        for _ in 0..64 {
            if s.write_all(chunk.as_bytes()).is_err() {
                closed = true;
                break;
            }
        }
        if !closed {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut byte = [0u8; 16];
            match std::io::Read::read(&mut s, &mut byte) {
                Ok(0) => {}
                Err(e) if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => panic!("server never closed the oversize connection"),
                Err(_) => {}
                Ok(n) => panic!("server answered an oversize request with {n} bytes"),
            }
        }
        assert!(
            registry.snapshot().counter("conn.oversize").unwrap_or(0) >= 1,
            "oversize close must be counted under conn.oversize"
        );
        let client = Client::builder(server.addr()).build();
        assert_eq!(client.get("/fine").unwrap().status, Status::OK);
    }

    #[test]
    fn fault_injection_drops_connections() {
        let cfg = ServerConfig {
            faults: FaultConfig { drop_prob: 1.0, seed: 1, ..Default::default() },
            ..Default::default()
        };
        let server = echo_server(cfg);
        let client = Client::builder(server.addr()).build();
        assert!(client.get("/x").is_err(), "dropped connection must error");
    }

    #[test]
    fn fault_injection_errors() {
        let cfg = ServerConfig {
            faults: FaultConfig { error_prob: 1.0, seed: 2, ..Default::default() },
            ..Default::default()
        };
        let server = echo_server(cfg);
        let client = Client::builder(server.addr()).build();
        let resp = client.get("/x").unwrap();
        assert_eq!(resp.status, Status::INTERNAL);
    }

    #[test]
    fn fault_injection_truncates_bodies() {
        let cfg = ServerConfig {
            faults: FaultConfig { truncate_prob: 1.0, seed: 4, ..Default::default() },
            ..Default::default()
        };
        let server = echo_server(cfg);
        let client = Client::builder(server.addr()).build();
        match client.get("/x") {
            Err(crate::client::ClientError::Wire(WireError::Malformed(m))) => {
                assert!(m.contains("truncated"), "{m}");
            }
            other => panic!("expected truncated-body error, got {other:?}"),
        }
    }

    #[test]
    fn fault_injection_resets_mid_line() {
        let cfg = ServerConfig {
            faults: FaultConfig { reset_prob: 1.0, seed: 5, ..Default::default() },
            ..Default::default()
        };
        let server = echo_server(cfg);
        let client = Client::builder(server.addr()).build();
        assert!(client.get("/x").is_err(), "mid-line reset must error");
    }

    #[test]
    fn fault_injection_malformed_status_line() {
        let cfg = ServerConfig {
            faults: FaultConfig { malformed_prob: 1.0, seed: 6, ..Default::default() },
            ..Default::default()
        };
        let server = echo_server(cfg);
        let client = Client::builder(server.addr()).build();
        match client.get("/x") {
            Err(crate::client::ClientError::Wire(WireError::Malformed(_))) => {}
            other => panic!("expected malformed-wire error, got {other:?}"),
        }
    }

    #[test]
    fn fault_injection_stall_outlives_client_timeout() {
        let cfg = ServerConfig {
            faults: FaultConfig {
                stall_prob: 1.0,
                stall: Duration::from_millis(300),
                seed: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        let server = echo_server(cfg);
        let client = Client::builder(server.addr()).timeout(Duration::from_millis(50)).build();
        match client.get("/x") {
            Err(crate::client::ClientError::Wire(WireError::Io(e))) => {
                assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "{e:?}"
                );
            }
            other => panic!("expected read timeout, got {other:?}"),
        }
    }

    #[test]
    fn fault_injection_stall_does_not_block_other_connections() {
        // On a single reactor, a stalled response must not delay an
        // unfaulted concurrent request — the delay is a timer, not a
        // sleeping thread.
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("ok".to_string()));
        let stalled = Server::start(
            handler.clone(),
            ServerConfig {
                workers: 1,
                faults: FaultConfig {
                    stall_prob: 1.0,
                    stall: Duration::from_millis(600),
                    seed: 11,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // Every request stalls, so overlap is the signal: four stalled
        // connections on one reactor must finish in ~one stall, not four.
        let addr = stalled.addr();
        let started = std::time::Instant::now();
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(move || {
                let client = Client::builder(addr).build();
                let _ = client.get("/x");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = started.elapsed();
        // Serialized stalls would take ≥ 4 × 600 ms on one reactor.
        assert!(
            elapsed < Duration::from_millis(1800),
            "stalls must overlap on a single reactor, took {elapsed:?}"
        );
    }

    #[test]
    fn fault_injection_rate_limit_carries_retry_after() {
        let cfg = ServerConfig {
            faults: FaultConfig {
                rate_limit_prob: 1.0,
                retry_after: Duration::from_millis(250),
                seed: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let server = echo_server(cfg);
        let client = Client::builder(server.addr()).build();
        let resp = client.get("/x").unwrap();
        assert_eq!(resp.status, Status::TOO_MANY);
        let ra: f64 = resp.headers.get("retry-after").unwrap().parse().unwrap();
        assert!((ra - 0.25).abs() < 1e-9, "{ra}");
    }

    #[test]
    fn fault_injection_unavailable_is_503() {
        let cfg = ServerConfig {
            faults: FaultConfig { unavailable_prob: 1.0, seed: 9, ..Default::default() },
            ..Default::default()
        };
        let server = echo_server(cfg);
        let client = Client::builder(server.addr()).build();
        let resp = client.get("/x").unwrap();
        assert_eq!(resp.status.0, 503);
        assert!(resp.headers.get("retry-after").is_some());
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read, Write};
        let server = echo_server(ServerConfig::default());
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }

    #[test]
    fn smuggled_content_length_gets_400() {
        use std::io::{Read, Write};
        let server = echo_server(ServerConfig::default());
        for bad in
            ["Content-Length: +10", "Content-Length: 5\r\nContent-Length: 6", "Content-Length: 1e2"]
        {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(format!("GET / HTTP/1.1\r\nHost: sim.local\r\n{bad}\r\n\r\n").as_bytes())
                .unwrap();
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
            let text = String::from_utf8_lossy(&buf);
            assert!(text.starts_with("HTTP/1.1 400"), "{bad} => {text}");
        }
    }
}
