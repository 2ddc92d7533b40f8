//! Closed-loop load generator for the conditional-request serving layer
//! (the loadgen phase of the `transport` bench suite).
//!
//! [`run`] drives a front with `threads` closed-loop workers — each
//! issues its next request only after the previous one completes — and
//! reports throughput plus exact latency percentiles. Two regimes:
//!
//! * [`Mode::Uncached`] — every request carries a unique cache-busting
//!   query, so the server renders every response from scratch and no
//!   validator ever matches. This is the pre-PR cost of a request.
//! * [`Mode::Cached`] — a fixed working set fetched through a shared
//!   client [`RevalidationCache`]: after the first fetch of each target,
//!   repeats send `If-None-Match` and ride the `304` fast path (a hash
//!   compare and ~100 wire bytes instead of a render and a full body).
//!
//! The `transport` bench suite runs both regimes against the same
//! services and gates on cached throughput strictly beating uncached.

use httpnet::{Client, ConnPool, RevalidationCache};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Load shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Closed-loop worker threads.
    pub threads: usize,
    /// Requests each worker issues inside the measured window.
    pub requests_per_thread: usize,
    /// Requests each worker issues *before* the measured window, to
    /// reach steady state: connections established, server and
    /// revalidation caches filled. Without this, cold-cache fill lands
    /// inside the measured window and skews cached-regime percentiles
    /// (an unwarmed run's cached p99 exceeded its uncached p99 exactly
    /// this way).
    pub warmup_per_thread: usize,
    /// Keep-alive pool shared by the workers; inspect
    /// [`ConnPool::stats`] afterwards for reuse/open/evicted accounting.
    pub pool: ConnPool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            requests_per_thread: 250,
            warmup_per_thread: 0,
            pool: ConnPool::default(),
        }
    }
}

/// Serving regime under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unique query string per request: every response fully rendered.
    Uncached,
    /// Fixed working set through a shared revalidation cache.
    Cached,
}

/// One regime's measured outcome.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Requests completed successfully (2xx, or 304-resolved).
    pub requests: u64,
    /// Requests that errored or returned non-success (expected 0).
    pub failures: u64,
    /// Wall-clock for the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Successful requests per second.
    pub req_per_sec: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Requests resolved client-side from a `304 Not Modified`.
    pub not_modified: u64,
}

/// Drive `targets` on the server at `addr` under the given regime.
/// Workers walk the target list round-robin from staggered offsets, so
/// every target is exercised by every thread.
///
/// When [`LoadConfig::warmup_per_thread`] is nonzero, every worker first
/// issues that many unmeasured requests; all workers then rendezvous at
/// a barrier, the clock starts, and only steady-state requests are
/// measured. `not_modified` likewise counts only the measured window.
pub fn run(addr: SocketAddr, targets: &[String], cfg: &LoadConfig, mode: Mode) -> LoadSummary {
    assert!(!targets.is_empty(), "loadgen needs at least one target");
    let threads = cfg.threads.max(1);
    let bust = AtomicU64::new(0);
    let reval = RevalidationCache::new(targets.len() * 4);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let failures = AtomicU64::new(0);

    // warmed: workers done with warmup. measured: clock started, the
    // measured-window baseline counters are sampled in between.
    let warmed = Barrier::new(threads + 1);
    let measured = Barrier::new(threads + 1);
    let mut before_revalidated = reval.stats().revalidated;
    let mut started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let reval = reval.clone();
            let (bust, latencies, failures) = (&bust, &latencies, &failures);
            let (warmed, measured) = (&warmed, &measured);
            scope.spawn(move || {
                let mut builder = Client::builder(addr).pool(cfg.pool.clone());
                if mode == Mode::Cached {
                    builder = builder.revalidation_cache(reval);
                }
                let client = builder.build();
                for i in 0..cfg.warmup_per_thread {
                    let base = &targets[(t + i) % targets.len()];
                    let target = match mode {
                        Mode::Cached => base.clone(),
                        // Distinct bust keys so warmup stays render-cold
                        // without consuming measured-window bust numbers.
                        Mode::Uncached => format!("{base}?warm={t}x{i}"),
                    };
                    let _ = client.get(&target);
                }
                warmed.wait();
                measured.wait();
                let mut local = Vec::with_capacity(cfg.requests_per_thread);
                for i in 0..cfg.requests_per_thread {
                    let base = &targets[(t + i) % targets.len()];
                    let target = match mode {
                        Mode::Cached => base.clone(),
                        Mode::Uncached => {
                            format!("{base}?bust={}", bust.fetch_add(1, Ordering::Relaxed))
                        }
                    };
                    let sent = Instant::now();
                    match client.get(&target) {
                        Ok(resp) if resp.status.is_success() => {
                            local.push(sent.elapsed().as_micros() as u64);
                        }
                        _ => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
            });
        }
        warmed.wait();
        before_revalidated = reval.stats().revalidated;
        started = Instant::now();
        measured.wait();
    });
    let wall = started.elapsed();

    let mut lat = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    lat.sort_unstable();
    let pct = |q: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        lat[((lat.len() - 1) as f64 * q).round() as usize]
    };
    let requests = lat.len() as u64;
    let wall_ms = wall.as_secs_f64() * 1e3;
    LoadSummary {
        requests,
        failures: failures.load(Ordering::Relaxed),
        wall_ms,
        req_per_sec: if wall_ms > 0.0 { requests as f64 / (wall_ms / 1e3) } else { 0.0 },
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        not_modified: reval.stats().revalidated.saturating_sub(before_revalidated),
    }
}

/// Shape of a pipelined transport run (see [`run_pipelined`]).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Worker threads, one pipelined connection each.
    pub threads: usize,
    /// Requests written back-to-back before reading any response.
    pub batch: usize,
    /// Measured batches per thread.
    pub batches_per_thread: usize,
    /// Unmeasured batches per thread before the measured window.
    pub warmup_batches: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self { threads: 2, batch: 64, batches_per_thread: 200, warmup_batches: 4 }
    }
}

/// Drive `target` with HTTP/1.1 pipelining: each worker keeps one
/// connection and alternates between one vectored burst of `batch`
/// requests and reading the `batch` in-order responses. This measures
/// the transport itself — per-request syscall and connect overhead is
/// amortized away, so throughput is bounded by request parsing, handler
/// dispatch, and response serialization on the server's reactors.
///
/// Per-request latency is the batch round-trip divided by the batch
/// size (requests inside a batch are not individually timed).
pub fn run_pipelined(addr: SocketAddr, target: &str, cfg: &PipelineConfig) -> LoadSummary {
    use std::io::{BufReader, Write};
    let threads = cfg.threads.max(1);
    let batch = cfg.batch.max(1);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let failures = AtomicU64::new(0);
    let ready = Barrier::new(threads + 1);
    let mut started = Instant::now();

    let one = format!("GET {target} HTTP/1.1\r\nHost: sim.local\r\n\r\n");
    let burst: Vec<u8> = one.as_bytes().repeat(batch);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (latencies, failures, ready, burst) = (&latencies, &failures, &ready, &burst);
            scope.spawn(move || {
                let exchange = |conn: &mut BufReader<std::net::TcpStream>| -> Result<(), ()> {
                    conn.get_mut().write_all(burst).map_err(|_| ())?;
                    for _ in 0..batch {
                        let resp = httpnet::http::read_response(conn).map_err(|_| ())?;
                        if !resp.status.is_success() {
                            return Err(());
                        }
                    }
                    Ok(())
                };
                let conn = std::net::TcpStream::connect(addr).and_then(|s| {
                    s.set_nodelay(true)?;
                    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
                    Ok(BufReader::new(s))
                });
                let Ok(mut conn) = conn else {
                    failures.fetch_add((batch * cfg.batches_per_thread) as u64, Ordering::Relaxed);
                    ready.wait();
                    return;
                };
                for _ in 0..cfg.warmup_batches {
                    let _ = exchange(&mut conn);
                }
                ready.wait();
                let mut local = Vec::with_capacity(cfg.batches_per_thread * batch);
                for _ in 0..cfg.batches_per_thread {
                    let sent = Instant::now();
                    match exchange(&mut conn) {
                        Ok(()) => {
                            let per_req = (sent.elapsed().as_micros() as u64) / batch as u64;
                            local.extend(std::iter::repeat_n(per_req, batch));
                        }
                        Err(()) => {
                            failures.fetch_add(batch as u64, Ordering::Relaxed);
                            break; // connection state is unknown after a failure
                        }
                    }
                }
                latencies.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
            });
        }
        ready.wait();
        started = Instant::now();
    });
    let wall = started.elapsed();

    let mut lat = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    lat.sort_unstable();
    let pct = |q: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        lat[((lat.len() - 1) as f64 * q).round() as usize]
    };
    let requests = lat.len() as u64;
    let wall_ms = wall.as_secs_f64() * 1e3;
    LoadSummary {
        requests,
        failures: failures.load(Ordering::Relaxed),
        wall_ms,
        req_per_sec: if wall_ms > 0.0 { requests as f64 / (wall_ms / 1e3) } else { 0.0 },
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        not_modified: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use synth::config::Scale;
    use synth::WorldConfig;

    #[test]
    fn cached_load_engages_the_fast_path() {
        let cfg = WorldConfig {
            seed: 0xBEEF,
            scale: Scale::Custom(0.001),
            ..WorldConfig::small()
        };
        let (world, _) = synth::generate(&cfg);
        let world = Arc::new(world);
        let registry = obs::Registry::new();
        let fronts = webfront::SimFronts::with_registry(world.clone(), &registry);
        let services =
            webfront::SimServices::start_with(fronts, crawler::default_server_config())
                .expect("services start");

        let mut names: Vec<String> =
            world.dissenter_users().map(|i| world.user(i).username.clone()).collect();
        names.sort_unstable();
        let targets: Vec<String> =
            names.iter().take(4).map(|n| format!("/user/{n}")).collect();
        assert!(!targets.is_empty(), "world has dissenter users");

        let load = LoadConfig { threads: 2, requests_per_thread: 20, ..Default::default() };
        let summary = run(services.dissenter.addr(), &targets, &load, Mode::Cached);
        assert_eq!(summary.failures, 0, "loopback load must not fail");
        assert_eq!(summary.requests, 40);
        assert!(
            summary.not_modified > 0,
            "repeat fetches of a fixed working set must revalidate: {summary:?}"
        );
        let snap = registry.snapshot();
        let hits = snap.counter("cache.hits").unwrap_or(0);
        let ratio = (summary.not_modified + hits) as f64 / summary.requests as f64;
        assert!(ratio > 0.0, "cache-hit ratio must be nonzero (hits {hits}, {summary:?})");
    }

    #[test]
    fn warmup_is_unmeasured_and_reaches_steady_state() {
        let cfg = WorldConfig {
            seed: 0xBEEF,
            scale: Scale::Custom(0.001),
            ..WorldConfig::small()
        };
        let (world, _) = synth::generate(&cfg);
        let world = Arc::new(world);
        let services =
            webfront::SimServices::start(world.clone(), crawler::default_server_config())
                .expect("services start");
        let mut names: Vec<String> =
            world.dissenter_users().map(|i| world.user(i).username.clone()).collect();
        names.sort_unstable();
        let targets: Vec<String> = names.iter().take(3).map(|n| format!("/user/{n}")).collect();

        let load = LoadConfig {
            threads: 2,
            requests_per_thread: 15,
            warmup_per_thread: 10,
            ..Default::default()
        };
        let summary = run(services.dissenter.addr(), &targets, &load, Mode::Cached);
        assert_eq!(summary.failures, 0);
        assert_eq!(summary.requests, 30, "warmup requests must not be counted");
        // Warmup already fetched every target on both workers, so every
        // measured request revalidates: steady state, no cold-fill skew.
        assert_eq!(
            summary.not_modified, summary.requests,
            "measured window must be pure steady-state revalidation: {summary:?}"
        );
        let stats = load.pool.stats();
        assert!(stats.open <= 2 + 1, "steady keep-alive load opens ~one conn per worker");
        assert!(stats.reuse > 0, "workers must ride pooled connections");
    }

    #[test]
    fn pipelined_transport_round_trips_in_order() {
        use httpnet::{Handler, Request, Response, Server, ServerConfig};
        let handler: Arc<dyn Handler> =
            Arc::new(|req: &Request| Response::html(format!("t:{}", req.path())));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let cfg = PipelineConfig {
            threads: 2,
            batch: 16,
            batches_per_thread: 6,
            warmup_batches: 1,
        };
        let summary = run_pipelined(server.addr(), "/t", &cfg);
        assert_eq!(summary.failures, 0, "{summary:?}");
        assert_eq!(summary.requests, 2 * 16 * 6);
        // warmup (2×16) + measured (2×96) all hit the server
        assert_eq!(server.requests_served(), 2 * 16 * 7);
    }

    #[test]
    fn uncached_load_never_revalidates() {
        let cfg = WorldConfig {
            seed: 0xBEEF,
            scale: Scale::Custom(0.001),
            ..WorldConfig::small()
        };
        let (world, _) = synth::generate(&cfg);
        let world = Arc::new(world);
        let services =
            webfront::SimServices::start(world.clone(), crawler::default_server_config())
                .expect("services start");
        let name = world
            .dissenter_users()
            .map(|i| world.user(i).username.clone())
            .min()
            .expect("a dissenter user");
        let targets = vec![format!("/user/{name}")];
        let load = LoadConfig { threads: 2, requests_per_thread: 10, ..Default::default() };
        let summary = run(services.dissenter.addr(), &targets, &load, Mode::Uncached);
        assert_eq!(summary.failures, 0);
        assert_eq!(summary.not_modified, 0, "cache-busted requests must never 304");
    }
}
