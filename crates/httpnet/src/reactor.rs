//! The epoll readiness loop behind [`crate::server::Server`].
//!
//! One [`Reactor`] per worker thread. The accept thread hands fresh
//! `TcpStream`s to reactors round-robin through an [`Inbox`] (a locked
//! queue plus an eventfd wakeup); from then on the connection lives
//! entirely on its reactor:
//!
//! * **Reads** append into a per-connection reusable buffer;
//!   [`crate::http::parse_request`] parses complete requests straight off
//!   that buffer (no per-line allocations, pipelining falls out for
//!   free).
//! * **Handlers** run inline on the reactor thread — per-core workers,
//!   no cross-thread handoff per request.
//! * **Writes** go out as one vectored write over each staged
//!   response's `[head, body]`. Responses to pipelined requests that are
//!   ready now and keep the connection open share one write (up to
//!   [`COALESCE_MAX`] responses or [`COALESCE_BYTES`]); partial writes
//!   arm `EPOLLOUT` and resume when the peer drains.
//! * **Fault delays** (base latency, stalls, `Retry-After` pauses) park
//!   the connection in a timer heap instead of sleeping a thread, so one
//!   stalled response never blocks the other connections on the core.
//!
//! Timeout enforcement is coarse: a periodic sweep closes connections
//! whose read/write deadline passed. That mirrors the old blocking
//! server's `SO_RCVTIMEO` behavior to within the sweep interval.

use crate::fault::{FaultAction, FaultInjector};
use crate::http::{parse_request, serialize_response_head, Request, Response, Status};
use crate::server::{Handler, ServerConfig};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the reactor sweeps for timed-out connections.
const SWEEP_INTERVAL: Duration = Duration::from_millis(200);
/// Read chunk size (stack scratch; bytes are appended to the conn buffer).
const READ_CHUNK: usize = 16 * 1024;
/// A connection's read buffer is shrunk back to this once it empties.
const BUF_RETAIN: usize = 16 * 1024;
/// Token reserved for the inbox eventfd.
const WAKE_TOKEN: u64 = u64::MAX;
/// Most responses one coalesced write carries.
const COALESCE_MAX: usize = 16;
/// A coalesced write stops taking responses once it holds this many bytes.
const COALESCE_BYTES: usize = 64 * 1024;

/// Hand-off queue from the accept thread to one reactor.
pub(crate) struct Inbox {
    queue: Mutex<VecDeque<TcpStream>>,
    wake: EventFd,
    capacity: usize,
}

impl Inbox {
    pub(crate) fn new(capacity: usize) -> std::io::Result<Arc<Inbox>> {
        Ok(Arc::new(Inbox {
            queue: Mutex::new(VecDeque::new()),
            wake: EventFd::new()?,
            capacity: capacity.max(1),
        }))
    }

    /// Push a fresh connection. When the inbox is full the stream is
    /// handed back so the accept loop can try another reactor.
    pub(crate) fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        {
            let mut q = self.queue.lock();
            if q.len() >= self.capacity {
                return Err(stream);
            }
            q.push_back(stream);
        }
        self.wake.wake();
        Ok(())
    }

    /// Wake the reactor without queueing anything (shutdown).
    pub(crate) fn wake(&self) {
        self.wake.wake();
    }
}

/// What a connection is currently waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for (more) request bytes.
    Reading,
    /// Response computed; parked until its fault delay elapses.
    Delayed,
    /// Flushing the staged responses; waiting for the peer to drain.
    Writing,
}

/// A response staged for the wire: its serialized head and its body
/// (moved out of the handler's response, never copied).
struct Staged {
    head: Vec<u8>,
    body: Vec<u8>,
}

impl Staged {
    fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }
}

/// A response waiting out its fault delay. It is released (counted and
/// logged) when the delay has passed and every earlier response is on
/// the wire.
struct Parked {
    ready_at: Instant,
    staged: Staged,
    log: Option<PendingLog>,
}

/// Per-connection state machine with reusable buffers.
struct Conn {
    stream: TcpStream,
    state: State,
    /// Unparsed request bytes (reused across requests on the connection).
    read_buf: Vec<u8>,
    /// Released responses, in request order, flushed by one vectored
    /// write (reused across batches).
    out: Vec<Staged>,
    /// Bytes of `out` already written.
    written: usize,
    /// A delayed response, started once `out` is flushed.
    parked: Option<Parked>,
    /// Requests served on this connection (keep-alive cap).
    served: usize,
    /// Close once everything staged is written.
    close_after_write: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Read/write deadline enforced by the sweep (None while delayed —
    /// the timer heap owns the wakeup then).
    deadline: Option<Instant>,
    /// When the first byte of the in-flight request arrived. Unlike
    /// `deadline` (which is refreshed on every read), this is pinned
    /// until a complete request parses, so `header_read_timeout` bounds
    /// the *total* time a slowloris peer can trickle bytes.
    request_started: Option<Instant>,
    /// Slot generation, so stale timer entries can be detected.
    gen: u64,
}

/// Deferred access-log entry: recorded when the response is released to
/// the wire (after any fault delay), like the old blocking server did.
struct PendingLog {
    method: String,
    target: String,
    status: u16,
    body_len: usize,
    started: Instant,
    /// Whether this response counts toward `requests_served` (fault
    /// actions that abandon the exchange do not).
    counted: bool,
}

/// Shared handles a reactor needs from the server.
pub(crate) struct ReactorShared {
    pub(crate) handler: Arc<dyn Handler>,
    pub(crate) injector: Arc<FaultInjector>,
    pub(crate) requests_served: Arc<AtomicU64>,
    pub(crate) access_log: Arc<crate::log::AccessLog>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) config: ServerConfig,
    /// `server.handler_panics` — handler panics confined by the reactor.
    pub(crate) handler_panics: Option<obs::Counter>,
    /// `conn.read_timeouts` — sweep closes of connections stuck in
    /// `Reading` (idle keep-alive expiry and slowloris header trickles).
    pub(crate) read_timeouts: Option<obs::Counter>,
    /// `conn.write_timeouts` — sweep closes of peers that stop draining
    /// their response (slow-drain abuse).
    pub(crate) write_timeouts: Option<obs::Counter>,
    /// `conn.oversize` — closes of peers that shoveled more unparsed
    /// request bytes than `max_inflight_request_bytes` allows.
    pub(crate) oversize: Option<obs::Counter>,
    /// `conn.coalesced` — responses that shared a write with an earlier
    /// response to a pipelined request.
    pub(crate) coalesced: Option<obs::Counter>,
}

impl ReactorShared {
    /// Account a response as it is released to the wire.
    fn release(&self, log: Option<PendingLog>) {
        let Some(log) = log.filter(|log| log.counted) else { return };
        self.requests_served.fetch_add(1, Ordering::SeqCst);
        self.access_log.record(crate::log::AccessEntry {
            method: log.method,
            target: log.target,
            status: log.status,
            body_len: log.body_len,
            duration: log.started.elapsed(),
        });
    }
}

fn bump(counter: &Option<obs::Counter>) {
    if let Some(c) = counter {
        c.inc();
    }
}

/// One event-loop worker.
pub(crate) struct Reactor {
    epoll: Epoll,
    inbox: Arc<Inbox>,
    shared: Arc<ReactorShared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slot generations (parallel to `conns`, survives slot reuse).
    gens: Vec<u64>,
    /// (ready_at, token, gen) min-heap for delayed responses.
    timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    next_sweep: Instant,
}

impl Reactor {
    pub(crate) fn new(inbox: Arc<Inbox>, shared: Arc<ReactorShared>) -> std::io::Result<Reactor> {
        let epoll = Epoll::new()?;
        epoll.add(inbox.wake.fd(), EPOLLIN, WAKE_TOKEN)?;
        Ok(Reactor {
            epoll,
            inbox,
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
            timers: BinaryHeap::new(),
            next_sweep: Instant::now() + SWEEP_INTERVAL,
        })
    }

    /// Run until the server's stop flag is raised.
    pub(crate) fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 256];
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let timeout = self.next_timeout();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => continue,
            };
            for ev in &events[..n] {
                let token = ev.token();
                if token == WAKE_TOKEN {
                    self.inbox.wake.drain();
                    self.drain_inbox();
                } else {
                    self.dispatch(token as usize, ev.mask());
                }
            }
            self.fire_timers();
            let now = Instant::now();
            if now >= self.next_sweep {
                self.sweep(now);
                self.next_sweep = now + SWEEP_INTERVAL;
            }
        }
    }

    /// Milliseconds until the next timer or sweep; -1 blocks when the
    /// reactor holds no connections and no timers.
    fn next_timeout(&self) -> i32 {
        let now = Instant::now();
        let mut next: Option<Instant> = self.timers.peek().map(|Reverse((t, _, _))| *t);
        if self.conns.iter().any(Option::is_some) {
            let sweep = self.next_sweep;
            next = Some(next.map_or(sweep, |t| t.min(sweep)));
        }
        match next {
            None => -1,
            Some(t) => {
                let dur = t.saturating_duration_since(now);
                // Round up so a due-in-200µs timer doesn't spin at 0ms.
                dur.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
            }
        }
    }

    fn drain_inbox(&mut self) {
        loop {
            let stream = { self.inbox.queue.lock().pop_front() };
            let Some(stream) = stream else { return };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            });
            let conn = Conn {
                stream,
                state: State::Reading,
                read_buf: Vec::new(),
                out: Vec::new(),
                written: 0,
                parked: None,
                served: 0,
                close_after_write: false,
                interest: EPOLLIN | EPOLLRDHUP,
                deadline: Some(Instant::now() + self.shared.config.read_timeout),
                request_started: None,
                gen: self.gens[token],
            };
            if self.epoll.add(conn.stream.as_raw_fd(), conn.interest, token as u64).is_err() {
                self.gens[token] += 1;
                self.free.push(token);
                continue;
            }
            self.conns[token] = Some(conn);
        }
    }

    fn dispatch(&mut self, token: usize, mask: u32) {
        let Some(conn) = self.conns.get(token).and_then(Option::as_ref) else { return };
        match conn.state {
            // Peer hangups during a fault delay are deliberately ignored:
            // the old server slept through them and still accounted the
            // response; the timer will fire and the write will fail.
            State::Delayed => {}
            State::Reading => {
                if mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                    self.on_readable(token);
                }
            }
            State::Writing => {
                if mask & (EPOLLERR | EPOLLHUP) != 0 && mask & EPOLLOUT == 0 {
                    self.close(token);
                } else {
                    self.write_some(token);
                }
            }
        }
    }

    fn on_readable(&mut self, token: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer EOF. Matches the old server's treatment of EOF
                    // between requests: close silently.
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    if conn.read_buf.len() > self.shared.config.max_inflight_request_bytes {
                        // A peer shoveling unbounded bytes that never parse.
                        bump(&self.shared.oversize);
                        self.close(token);
                        return;
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.advance(token);
    }

    /// Parse and serve the requests buffered on the connection, then
    /// flush the responses. Requests already complete in the buffer are
    /// served into the same write while their responses are ready now
    /// and keep the connection open; a response that is delayed or ends
    /// the connection stops the batch, and everything staged before it
    /// is flushed first.
    fn advance(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
            debug_assert_eq!(conn.state, State::Reading);
            if !conn.read_buf.is_empty() && conn.request_started.is_none() {
                conn.request_started = Some(Instant::now());
            }
            match parse_request(&conn.read_buf) {
                // Incomplete: wait for more bytes. `request_started` stays
                // pinned — a trickling peer still runs out of
                // `header_read_timeout`.
                Ok(None) => break,
                Err(_) => {
                    // Same contract as the blocking server: one 400, then close.
                    conn.read_buf.clear();
                    let mut head = Vec::new();
                    serialize_response_head(&Response::status(Status(400)), &mut head);
                    conn.out.push(Staged { head, body: Vec::new() });
                    conn.close_after_write = true;
                    break;
                }
                Ok(Some((req, consumed))) => {
                    // A complete request arrived in time; pipelined leftovers
                    // start a fresh header clock when they get parsed.
                    conn.request_started = None;
                    // Drop the consumed prefix, keeping pipelined leftovers.
                    if consumed == conn.read_buf.len() {
                        conn.read_buf.clear();
                        if conn.read_buf.capacity() > 4 * BUF_RETAIN {
                            conn.read_buf.shrink_to(BUF_RETAIN);
                        }
                    } else {
                        conn.read_buf.copy_within(consumed.., 0);
                        let rest = conn.read_buf.len() - consumed;
                        conn.read_buf.truncate(rest);
                    }
                    if !self.serve(token, req) {
                        break;
                    }
                }
            }
        }
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        if !conn.out.is_empty() {
            self.begin_write(token);
        } else if conn.parked.is_some() || conn.close_after_write {
            self.after_flush(token);
        } else {
            // Only an incomplete request is buffered.
            self.await_request(token);
        }
    }

    /// Decide the fault action, run the handler, and stage the response:
    /// released into the current write when it is ready now, parked when
    /// it has a fault delay. Returns whether the next buffered request
    /// may join the same write.
    fn serve(&mut self, token: usize, req: Request) -> bool {
        let shared = self.shared.clone();
        let started = Instant::now();
        let action = shared.injector.decide();
        let close_requested = req
            .headers
            .get("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);

        // (response-to-send, raw-bytes-instead, counted, kill-connection)
        let mut raw: Option<Vec<u8>> = None;
        let mut kill = false;
        let (delay, resp, counted) = match action {
            FaultAction::Proceed(d) | FaultAction::Stall(d) => {
                (d, self.run_handler(&req), true)
            }
            FaultAction::Error(d) => (d, Some(Response::status(Status::INTERNAL)), true),
            FaultAction::Drop(d) => {
                kill = true;
                (d, None, false)
            }
            FaultAction::Reset(d) => {
                kill = true;
                raw = Some(b"HTTP/1.1 2".to_vec());
                (d, None, false)
            }
            FaultAction::Malformed(d) => {
                kill = true;
                raw = Some(b"SMTP/0.9 GARBAGE NOISE\r\n\r\n".to_vec());
                (d, None, false)
            }
            FaultAction::Truncate(d) => {
                // Correct head promising the full Content-Length, then
                // only part of the body.
                kill = true;
                if let Some(resp) = self.run_handler(&req) {
                    let mut buf = Vec::new();
                    let _ = resp.write_to(&mut buf);
                    let cut = buf.len().saturating_sub(resp.body.len() / 2 + 1).max(1);
                    buf.truncate(cut);
                    raw = Some(buf);
                }
                (d, None, false)
            }
            FaultAction::RateLimit(d) => (
                d,
                Some(crate::server::retry_after_response(
                    Status::TOO_MANY,
                    shared.config.faults.retry_after,
                )),
                true,
            ),
            FaultAction::Unavailable(d) => (
                d,
                Some(crate::server::retry_after_response(
                    Status(503),
                    shared.config.faults.retry_after,
                )),
                true,
            ),
        };

        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return false };
        // A handler panic leaves no response and no raw bytes: confine it
        // by dropping the connection (after the responses already staged),
        // like the old worker pool did.
        if resp.is_none() && raw.is_none() && !kill {
            conn.close_after_write = true;
            return false;
        }
        conn.served += 1;
        let retiring = conn.served >= shared.config.max_requests_per_conn;
        conn.close_after_write = kill || close_requested || retiring;
        let mut staged = Staged { head: Vec::new(), body: Vec::new() };
        let mut log = None;
        match (resp, raw) {
            (Some(mut resp), _) => {
                // Announce a keep-alive retirement, so the client does not
                // park a connection the server is closing.
                if retiring {
                    resp.headers.add("Connection", "close");
                }
                serialize_response_head(&resp, &mut staged.head);
                log = Some(PendingLog {
                    method: req.method,
                    target: req.target,
                    status: resp.status.0,
                    body_len: resp.body.len(),
                    started,
                    counted,
                });
                staged.body = resp.body;
            }
            (None, Some(bytes)) => staged.head = bytes,
            (None, None) => {}
        }
        if !delay.is_zero() {
            conn.parked = Some(Parked { ready_at: started + delay, staged, log });
            return false;
        }
        shared.release(log);
        if staged.len() > 0 {
            conn.out.push(staged);
        }
        !conn.close_after_write
            && conn.out.len() < COALESCE_MAX
            && conn.out.iter().map(Staged::len).sum::<usize>() < COALESCE_BYTES
    }

    /// Run the handler, confining panics. `None` means it panicked.
    fn run_handler(&self, req: &Request) -> Option<Response> {
        let handler = &self.shared.handler;
        match std::panic::catch_unwind(AssertUnwindSafe(|| handler.handle(req))) {
            Ok(resp) => Some(resp),
            Err(_) => {
                if let Some(c) = &self.shared.handler_panics {
                    c.inc();
                }
                None
            }
        }
    }

    /// Release parked responses whose delay has passed.
    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(Reverse((at, token, gen))) = self.timers.peek().copied() {
            if at > now {
                return;
            }
            self.timers.pop();
            let live = matches!(
                self.conns.get(token).and_then(Option::as_ref),
                Some(c) if c.gen == gen && c.state == State::Delayed
            );
            if live {
                self.after_flush(token);
            }
        }
    }

    /// Start flushing the released responses.
    fn begin_write(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        if let (Some(c), extra @ 1..) = (&self.shared.coalesced, conn.out.len().saturating_sub(1)) {
            c.add(extra as u64);
        }
        conn.state = State::Writing;
        conn.deadline = Some(Instant::now() + self.shared.config.write_timeout);
        self.write_some(token);
    }

    /// Push staged bytes to the socket as one vectored write over every
    /// response's unwritten `[head, body]`; re-arm `EPOLLOUT` on a short
    /// write.
    fn write_some(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
            let mut slices = [IoSlice::new(&[]); 2 * COALESCE_MAX];
            let mut n = 0;
            let mut skip = conn.written;
            for part in conn.out.iter().flat_map(|s| [&s.head[..], &s.body[..]]) {
                if skip >= part.len() {
                    skip -= part.len();
                    continue;
                }
                slices[n] = IoSlice::new(&part[skip..]);
                skip = 0;
                n += 1;
            }
            if n == 0 {
                break;
            }
            let result = if n == 1 {
                conn.stream.write(&slices[0])
            } else {
                conn.stream.write_vectored(&slices[..n])
            };
            match result {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(k) => conn.written += k,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_interest(token, EPOLLOUT);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        let conn = self.conns[token].as_mut().expect("checked");
        conn.out.clear();
        conn.written = 0;
        self.after_flush(token);
    }

    /// Nothing staged is left unwritten: start the parked response (or
    /// wait out its delay), close, serve the next pipelined request, or
    /// go back to waiting for bytes.
    fn after_flush(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        if let Some(parked) = conn.parked.take() {
            if parked.ready_at > Instant::now() {
                conn.state = State::Delayed;
                conn.deadline = None;
                self.timers.push(Reverse((parked.ready_at, token, conn.gen)));
                conn.parked = Some(parked);
                self.set_interest(token, 0);
            } else {
                self.shared.release(parked.log);
                conn.out.push(parked.staged);
                self.begin_write(token);
            }
            return;
        }
        if conn.close_after_write {
            self.close(token);
            return;
        }
        conn.state = State::Reading;
        if conn.read_buf.is_empty() {
            self.await_request(token);
        } else {
            // Pipelined request already buffered.
            self.advance(token);
        }
    }

    /// Wait for (more) request bytes under a fresh read deadline.
    fn await_request(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        conn.deadline = Some(Instant::now() + self.shared.config.read_timeout);
        self.set_interest(token, EPOLLIN | EPOLLRDHUP);
    }

    fn set_interest(&mut self, token: usize, mask: u32) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        if conn.interest != mask {
            conn.interest = mask;
            let _ = self.epoll.modify(conn.stream.as_raw_fd(), mask, token as u64);
        }
    }

    /// Close connections whose read/write deadline has passed. Two clocks
    /// apply while reading: the per-read deadline (refreshed on every
    /// byte) and the pinned `request_started + header_read_timeout`
    /// budget that a slowloris trickle cannot refresh.
    fn sweep(&mut self, now: Instant) {
        let header_budget = self.shared.config.header_read_timeout;
        let overdue: Vec<(usize, State)> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.as_ref()?;
                let deadline_passed = matches!(c.deadline, Some(d) if d <= now);
                let header_passed = c.state == State::Reading
                    && matches!(c.request_started, Some(s) if s + header_budget <= now);
                (deadline_passed || header_passed).then_some((i, c.state))
            })
            .collect();
        for (token, state) in overdue {
            match state {
                State::Reading => bump(&self.shared.read_timeouts),
                State::Writing => bump(&self.shared.write_timeouts),
                State::Delayed => {}
            }
            self.close(token);
        }
    }

    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::take) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.gens[token] = self.gens[token].wrapping_add(1);
            self.free.push(token);
            // conn (and its TcpStream) drops here.
            drop(conn);
        }
    }
}
