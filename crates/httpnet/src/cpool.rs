//! Client-side keep-alive connection pool.
//!
//! A [`ConnPool`] keeps idle TCP connections per host so repeated
//! requests to the same server skip the connect handshake. It is cheap
//! to clone (shared handle) so one pool can back many [`crate::Client`]s
//! — the crawler's sweeps and the load generator both reuse connections
//! instead of paying per-request connect cost.
//!
//! Invariants:
//!
//! * **Bounded per host** — at most [`PoolConfig::max_idle_per_host`]
//!   idle connections are retained per address; surplus check-ins are
//!   dropped (counted as evictions).
//! * **Idle timeout** — a connection idle longer than
//!   [`PoolConfig::idle_timeout`] is never handed out; it is closed and
//!   counted under `pool.evicted` at the next checkout (plus whenever
//!   [`ConnPool::evict_idle`] runs).
//! * **LIFO reuse** — the most recently returned connection is handed
//!   out first, so the warmest socket is reused and stale ones age out
//!   at the bottom of the stack.
//! * A checked-out connection is owned by the caller; only a successful
//!   response should check it back in (a failed exchange leaves the
//!   socket in an unknown wire state, so the caller must drop it).
//! * A [`PooledConn`] remembers the read timeout last applied to its
//!   socket, so clients sharing a pool each get their own timeout while
//!   a reused connection pays the `setsockopt` only when it changes.
//!
//! Counters `pool.{reuse,open,evicted}` are always tracked internally
//! (see [`ConnPool::stats`]) and mirrored into an [`obs::Registry`] when
//! constructed via [`ConnPool::with_metrics`].

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum idle connections retained per host.
    pub max_idle_per_host: usize,
    /// Idle connections older than this are evicted instead of reused.
    pub idle_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { max_idle_per_host: 8, idle_timeout: Duration::from_secs(30) }
    }
}

/// A point-in-time view of pool activity (see [`ConnPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh connections opened (`pool.open`).
    pub open: u64,
    /// Checkouts satisfied by an idle connection (`pool.reuse`).
    pub reuse: u64,
    /// Idle connections closed by timeout or per-host bound
    /// (`pool.evicted`).
    pub evicted: u64,
    /// Idle connections currently parked.
    pub idle: usize,
}

/// A checked-out connection: the buffered stream plus the read timeout
/// last applied to its socket. Set the timeout through
/// [`PooledConn::set_read_timeout`] so the record stays true; the stream
/// itself is reached through `Deref`.
#[derive(Debug)]
pub struct PooledConn {
    reader: BufReader<TcpStream>,
    read_timeout: Option<Duration>,
}

impl PooledConn {
    /// Make `timeout` the socket's read timeout, calling into the kernel
    /// only when it differs from the one last applied.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        if self.read_timeout != Some(timeout) {
            self.reader.get_ref().set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        Ok(())
    }
}

impl Deref for PooledConn {
    type Target = BufReader<TcpStream>;

    fn deref(&self) -> &Self::Target {
        &self.reader
    }
}

impl DerefMut for PooledConn {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.reader
    }
}

struct IdleConn {
    conn: PooledConn,
    since: Instant,
}

struct Inner {
    config: PoolConfig,
    hosts: Mutex<HashMap<SocketAddr, Vec<IdleConn>>>,
    open: AtomicU64,
    reuse: AtomicU64,
    evicted: AtomicU64,
    metrics: Option<PoolCounters>,
}

struct PoolCounters {
    open: obs::Counter,
    reuse: obs::Counter,
    evicted: obs::Counter,
}

/// A cloneable, thread-safe keep-alive connection pool.
#[derive(Clone)]
pub struct ConnPool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ConnPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(f, "ConnPool(open={}, reuse={}, evicted={}, idle={})", s.open, s.reuse, s.evicted, s.idle)
    }
}

impl Default for ConnPool {
    fn default() -> Self {
        ConnPool::new(PoolConfig::default())
    }
}

impl ConnPool {
    /// A pool with the given knobs and no registry-backed metrics.
    pub fn new(config: PoolConfig) -> ConnPool {
        ConnPool {
            inner: Arc::new(Inner {
                config,
                hosts: Mutex::new(HashMap::new()),
                open: AtomicU64::new(0),
                reuse: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                metrics: None,
            }),
        }
    }

    /// A pool that mirrors its counters into `registry` under
    /// `pool.{open,reuse,evicted}`.
    pub fn with_metrics(config: PoolConfig, registry: &obs::Registry) -> ConnPool {
        let mut pool = ConnPool::new(config);
        Arc::get_mut(&mut pool.inner).expect("freshly built, no clones yet").metrics =
            Some(PoolCounters {
                open: registry.counter("pool.open"),
                reuse: registry.counter("pool.reuse"),
                evicted: registry.counter("pool.evicted"),
            });
        pool
    }

    /// Check out a connection to `addr`: the warmest non-expired idle one
    /// when available (reuse), otherwise a fresh connect bounded by
    /// `connect_timeout`. Returns the connection and whether it was
    /// reused.
    pub fn acquire(
        &self,
        addr: SocketAddr,
        connect_timeout: Duration,
    ) -> std::io::Result<(PooledConn, bool)> {
        if let Some(conn) = self.checkout_idle(addr) {
            return Ok((conn, true));
        }
        Ok((self.connect_fresh(addr, connect_timeout)?, false))
    }

    /// Open a fresh connection to `addr`, bypassing idle reuse (used for
    /// the transparent retry after a stale pooled connection failed).
    /// Counted under `pool.open`.
    pub fn connect_fresh(
        &self,
        addr: SocketAddr,
        connect_timeout: Duration,
    ) -> std::io::Result<PooledConn> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        let _ = stream.set_nodelay(true);
        self.inner.open.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.inner.metrics {
            m.open.inc();
        }
        // A fresh socket has no read timeout.
        Ok(PooledConn { reader: BufReader::new(stream), read_timeout: None })
    }

    /// Return a healthy connection for later reuse. Dropped (and counted
    /// as evicted) when the host already holds `max_idle_per_host` idle
    /// connections.
    pub fn release(&self, addr: SocketAddr, conn: PooledConn) {
        let mut dropped = 0u64;
        {
            let mut hosts = self.inner.hosts.lock();
            let stack = hosts.entry(addr).or_default();
            if stack.len() >= self.inner.config.max_idle_per_host {
                dropped = 1;
            } else {
                stack.push(IdleConn { conn, since: Instant::now() });
            }
        }
        if dropped > 0 {
            self.count_evicted(dropped);
        }
    }

    /// Close every idle connection that has outlived the idle timeout,
    /// across all hosts. Returns how many were evicted. (Expired
    /// connections are also skipped-and-evicted lazily at checkout; this
    /// exists for callers that want bounded idle fd counts without
    /// traffic.)
    pub fn evict_idle(&self) -> u64 {
        let cutoff = Instant::now();
        let timeout = self.inner.config.idle_timeout;
        let mut dropped = 0u64;
        {
            let mut hosts = self.inner.hosts.lock();
            for stack in hosts.values_mut() {
                let before = stack.len();
                stack.retain(|c| cutoff.duration_since(c.since) <= timeout);
                dropped += (before - stack.len()) as u64;
            }
            hosts.retain(|_, stack| !stack.is_empty());
        }
        if dropped > 0 {
            self.count_evicted(dropped);
        }
        dropped
    }

    /// Activity counters and the current idle population.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            open: self.inner.open.load(Ordering::Relaxed),
            reuse: self.inner.reuse.load(Ordering::Relaxed),
            evicted: self.inner.evicted.load(Ordering::Relaxed),
            idle: self.inner.hosts.lock().values().map(Vec::len).sum(),
        }
    }

    fn checkout_idle(&self, addr: SocketAddr) -> Option<PooledConn> {
        let timeout = self.inner.config.idle_timeout;
        let now = Instant::now();
        let mut expired = 0u64;
        let picked = {
            let mut hosts = self.inner.hosts.lock();
            let stack = hosts.get_mut(&addr)?;
            // LIFO: warmest connection first; expired ones are closed.
            let mut picked = None;
            while let Some(idle) = stack.pop() {
                if now.duration_since(idle.since) <= timeout {
                    picked = Some(idle.conn);
                    break;
                }
                expired += 1;
            }
            if stack.is_empty() {
                hosts.remove(&addr);
            }
            picked
        };
        if expired > 0 {
            self.count_evicted(expired);
        }
        if picked.is_some() {
            self.inner.reuse.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.inner.metrics {
                m.reuse.inc();
            }
        }
        picked
    }

    fn count_evicted(&self, n: u64) {
        self.inner.evicted.fetch_add(n, Ordering::Relaxed);
        if let Some(m) = &self.inner.metrics {
            m.evicted.add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Request, Response};
    use crate::server::{Handler, Server, ServerConfig};

    fn pong_server() -> Server {
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("pong".to_string()));
        Server::start(handler, ServerConfig::default()).unwrap()
    }

    #[test]
    fn acquire_reuses_released_connections() {
        let server = pong_server();
        let pool = ConnPool::new(PoolConfig::default());
        let (conn, reused) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        assert!(!reused);
        pool.release(server.addr(), conn);
        let (_conn, reused) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        assert!(reused, "released connection must be handed back out");
        let stats = pool.stats();
        assert_eq!((stats.open, stats.reuse, stats.idle), (1, 1, 0));
    }

    #[test]
    fn per_host_bound_drops_surplus_checkins() {
        let server = pong_server();
        let pool = ConnPool::new(PoolConfig { max_idle_per_host: 2, ..Default::default() });
        let conns: Vec<_> = (0..4)
            .map(|_| pool.acquire(server.addr(), Duration::from_secs(1)).unwrap().0)
            .collect();
        for c in conns {
            pool.release(server.addr(), c);
        }
        let stats = pool.stats();
        assert_eq!(stats.idle, 2, "bound enforced");
        assert_eq!(stats.evicted, 2, "surplus counted as evicted");
    }

    #[test]
    fn idle_timeout_evicts_on_checkout() {
        let server = pong_server();
        let pool = ConnPool::new(PoolConfig {
            idle_timeout: Duration::from_millis(20),
            ..Default::default()
        });
        let (conn, _) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        pool.release(server.addr(), conn);
        std::thread::sleep(Duration::from_millis(50));
        let (_conn, reused) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        assert!(!reused, "expired idle connection must not be reused");
        let stats = pool.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.open, 2);
    }

    #[test]
    fn evict_idle_sweeps_without_traffic() {
        let server = pong_server();
        let pool = ConnPool::new(PoolConfig {
            idle_timeout: Duration::from_millis(20),
            ..Default::default()
        });
        for _ in 0..3 {
            let conn = pool.connect_fresh(server.addr(), Duration::from_secs(1)).unwrap();
            pool.release(server.addr(), conn);
        }
        assert_eq!(pool.stats().idle, 3);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.evict_idle(), 3);
        let stats = pool.stats();
        assert_eq!((stats.idle, stats.evicted), (0, 3));
    }

    #[test]
    fn metrics_mirror_pool_counters() {
        let server = pong_server();
        let registry = obs::Registry::new();
        let pool = ConnPool::with_metrics(
            PoolConfig { max_idle_per_host: 1, ..Default::default() },
            &registry,
        );
        let (a, _) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        let (b, _) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        pool.release(server.addr(), a);
        pool.release(server.addr(), b); // over the bound of 1 → evicted
        let (_c, reused) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        assert!(reused);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.open"), Some(2));
        assert_eq!(snap.counter("pool.reuse"), Some(1));
        assert_eq!(snap.counter("pool.evicted"), Some(1));
    }

    #[test]
    fn read_timeout_is_applied_only_when_it_changes() {
        let server = pong_server();
        let pool = ConnPool::new(PoolConfig::default());
        let (mut conn, _) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        let (a, b) = (Duration::from_secs(3), Duration::from_secs(4));
        conn.set_read_timeout(a).unwrap();
        assert_eq!(conn.get_ref().read_timeout().unwrap(), Some(a));
        // Change the socket behind the record's back: re-applying the
        // recorded timeout is skipped, so the kernel keeps `b`.
        conn.get_ref().set_read_timeout(Some(b)).unwrap();
        conn.set_read_timeout(a).unwrap();
        assert_eq!(conn.get_ref().read_timeout().unwrap(), Some(b), "unchanged timeout skipped");
        // The record survives a trip through the pool.
        pool.release(server.addr(), conn);
        let (mut conn, reused) = pool.acquire(server.addr(), Duration::from_secs(1)).unwrap();
        assert!(reused);
        conn.set_read_timeout(a).unwrap();
        assert_eq!(conn.get_ref().read_timeout().unwrap(), Some(b));
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let server = pong_server();
        let addr = server.addr();
        let pool = ConnPool::new(PoolConfig::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = pool.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let (conn, _) = p.acquire(addr, Duration::from_secs(1)).unwrap();
                    p.release(addr, conn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.open + stats.reuse, 40, "every checkout accounted");
    }
}
