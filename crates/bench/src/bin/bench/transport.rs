//! `transport` suite: the event-driven httpnet server and pooled client,
//! in three phases.
//!
//! 1. **loadgen** — a warmed closed-loop load on the Dissenter front
//!    (4 threads × 250 requests after 50 warmup requests each, over 24
//!    user pages), once with every request rendered (cache-busting
//!    queries) and once revalidated through a shared client
//!    `RevalidationCache` (`If-None-Match` → `304`). Gates: zero
//!    failures, the uncached pass never revalidated and the cached one
//!    did, cached beats uncached on throughput and (within 10%) on p99,
//!    the shared pool accounts for every request as one open or reuse,
//!    and the shadow-visibility isolation probe holds.
//! 2. **pipelined** — HTTP/1.1 pipelined load against a trivial echo
//!    handler, measuring the reactor transport with render cost out of
//!    the picture. Gate: ≥ 5× the 12,506 req/s the blocking
//!    thread-per-request transport served uncached (62,530 req/s).
//! 3. **soak** — 10,000 concurrent keep-alive connections. The binary
//!    re-execs itself as `transport --soak-client` so the client's 10k
//!    fds live in a separate process; the parent (server side) gates its
//!    own peak RSS from `/proc/self/status` against a ceiling. Needs
//!    `ulimit -n` comfortably above the connection count in both
//!    processes (`scripts/bench.sh transport` raises it).

use crate::{proc_status_kb, summary_json, user_targets};
use bench::loadgen::{run as run_load, run_pipelined, LoadConfig, Mode, PipelineConfig};
use bench::report::{Args, BenchReport, Op};
use httpnet::{Handler, Request, Response, Server, ServerConfig};
use jsonlite::Value;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use synth::config::Scale;
use synth::WorldConfig;
use webfront::dissenter::DissenterFront;

pub const FLAGS: &[&str] = &[
    "--conns <n>",
    "--rounds <n>",
    "--rss-ceiling-mb <n>",
    "--threads <n>",
    "--batch <n>",
    "--batches <n>",
    "--scale <f64>",
    "--seed <n>",
    "--soak-client",
    "--addr <host:port>",
];

/// Uncached throughput of the blocking thread-per-request transport this
/// one replaced; the pipelined phase must clear 5× this.
const BASELINE_UNCACHED_REQ_PER_SEC: f64 = 12_506.0;
const TRANSPORT_SPEEDUP_GATE: f64 = 5.0;

fn rss_mb() -> f64 {
    proc_status_kb("VmRSS") as f64 / 1024.0
}

/// In-process probe of the cache-coherence contract: a shadow-labeled
/// comment page fetched by an opted-in session (200, tagged, cached)
/// must stay invisible to an anonymous request — including when the
/// anonymous request replays the shadow session's validator.
fn shadow_isolation_holds(world: &Arc<platform::World>) -> bool {
    let Some(comment) = world.dissenter.comments().iter().find(|c| c.nsfw || c.offensive) else {
        eprintln!("transport: world has no shadow-labeled comments; grow --scale");
        return false;
    };
    let front = DissenterFront::new(world.clone());
    let target = format!("/comment/{}", comment.id);

    let mut shadow_req = Request::get(&target);
    shadow_req.headers.add("Cookie", "session=crawler:both");
    let shadow = front.handle(&shadow_req);
    if !shadow.status.is_success() {
        eprintln!("transport: shadow session got {} for {target}", shadow.status);
        return false;
    }
    let Some(tag) = shadow.etag().map(str::to_owned) else {
        eprintln!("transport: shadow 200 for {target} is untagged");
        return false;
    };

    // Plain anonymous request: the cached shadow body must not leak.
    let anon = front.handle(&Request::get(&target));
    if anon.status.is_success() {
        eprintln!("transport: anonymous request was served a shadow-visible page for {target}");
        return false;
    }
    // Anonymous request replaying the shadow validator: must not 304.
    let mut replay = Request::get(&target);
    replay.headers.add("If-None-Match", &tag);
    let replayed = front.handle(&replay);
    if replayed.status == httpnet::Status::NOT_MODIFIED || replayed.status.is_success() {
        eprintln!(
            "transport: shadow validator {tag} validated for an anonymous session ({})",
            replayed.status
        );
        return false;
    }
    true
}

/// Client half of the soak, run in a child process so its `conns` fds
/// don't share the parent's fd table. Opens every connection, then per
/// round writes one request on each connection before reading any
/// response back — so all `conns` connections are simultaneously
/// mid-request on the server — with an idle keep-alive hold between
/// rounds. Exits nonzero on any failure.
fn soak_client(addr: SocketAddr, conns: usize, rounds: usize) -> ! {
    let request = b"GET /soak HTTP/1.1\r\nHost: sim.local\r\n\r\n";
    // Connect from several threads: one-at-a-time, 10k connects against
    // a busy accept loop can take long enough for the earliest-accepted
    // connections to idle into the server's read deadline.
    let connectors = 8usize;
    let streams_mx: std::sync::Mutex<Vec<BufReader<TcpStream>>> =
        std::sync::Mutex::new(Vec::with_capacity(conns));
    std::thread::scope(|scope| {
        for part in 0..connectors {
            let streams_mx = &streams_mx;
            let share = conns / connectors + usize::from(part < conns % connectors);
            scope.spawn(move || {
                let mut local = Vec::with_capacity(share);
                for i in 0..share {
                    let stream = TcpStream::connect(addr)
                        .and_then(|s| {
                            s.set_nodelay(true)?;
                            s.set_read_timeout(Some(Duration::from_secs(60)))?;
                            Ok(s)
                        })
                        .unwrap_or_else(|e| {
                            eprintln!(
                                "soak-client: connect {i} of {share} (part {part}) failed: {e} \
                                 (is `ulimit -n` above the connection count?)"
                            );
                            std::process::exit(1);
                        });
                    // Small buffers: 10k default 8 KiB BufReaders would be
                    // 80 MiB of client-side ballast for ~100-byte responses.
                    local.push(BufReader::with_capacity(512, stream));
                }
                streams_mx.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
            });
        }
    });
    let mut streams = streams_mx.into_inner().unwrap_or_else(|e| e.into_inner());
    eprintln!("soak-client: {} connections established", streams.len());

    let mut served = 0u64;
    for round in 0..rounds {
        for conn in &mut streams {
            if let Err(e) = conn.get_mut().write_all(request) {
                eprintln!("soak-client: write failed in round {round}: {e}");
                std::process::exit(1);
            }
        }
        for conn in &mut streams {
            match httpnet::http::read_response(conn) {
                Ok(resp) if resp.status.is_success() => served += 1,
                other => {
                    eprintln!("soak-client: bad response in round {round}: {other:?}");
                    std::process::exit(1);
                }
            }
        }
        if round + 1 < rounds {
            // Idle hold: every connection stays open and silent, so the
            // server must carry all of them without timing them out.
            std::thread::sleep(Duration::from_secs(2));
        }
    }
    eprintln!("soak-client: ok, {served} responses over {rounds} rounds");
    std::process::exit(0);
}

struct SoakOutcome {
    requests: u64,
    rss_before_mb: f64,
    rss_after_mb: f64,
    rss_peak_mb: f64,
}

/// Server half of the soak: start an echo server sized for `conns`
/// concurrent connections, run the client as a subprocess, and sample
/// this process's RSS around the run.
fn run_soak(conns: usize, rounds: usize) -> Result<SoakOutcome, String> {
    let handler: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::html("ok".to_string()));
    let mut server = Server::start(
        handler,
        ServerConfig {
            workers: 4,
            queue: 1024,
            // Effectively no read deadline: early connections sit idle
            // while the client is still opening the rest, and again
            // during the inter-round hold — this phase soaks memory,
            // not timeout policy.
            read_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("soak server failed to start: {e}"))?;

    let rss_before_mb = rss_mb();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["transport", "--soak-client", "--addr"])
        .arg(server.addr().to_string())
        .arg("--conns")
        .arg(conns.to_string())
        .arg("--rounds")
        .arg(rounds.to_string())
        .status()
        .map_err(|e| format!("failed to spawn soak client: {e}"))?;
    if !status.success() {
        return Err(format!("soak client exited with {status}"));
    }
    // Let the reactors observe the client's EOFs and release buffers
    // before the post-run sample.
    std::thread::sleep(Duration::from_millis(500));
    let rss_after_mb = rss_mb();
    let rss_peak_mb = proc_status_kb("VmHWM") as f64 / 1024.0;

    let requests = server.requests_served();
    server.shutdown();
    Ok(SoakOutcome { requests, rss_before_mb, rss_after_mb, rss_peak_mb })
}

pub fn run(args: &Args) -> Result<BenchReport, String> {
    let conns: usize = args.get("--conns", 10_000)?;
    let rounds: usize = args.get("--rounds", 2)?;
    if args.has("--soak-client") {
        let addr = args.opt("--addr")?.ok_or("--soak-client needs --addr")?;
        soak_client(addr, conns, rounds);
    }
    let rss_ceiling_mb: f64 = args.get("--rss-ceiling-mb", 512.0)?;
    let scale: f64 = args.get("--scale", 0.002)?;
    let seed: u64 = args.get("--seed", 0x5EED_BE7A)?;
    let defaults = PipelineConfig::default();
    let pipe = PipelineConfig {
        threads: args.get("--threads", defaults.threads)?,
        batch: args.get("--batch", defaults.batch)?,
        batches_per_thread: args.get("--batches", defaults.batches_per_thread)?,
        ..defaults
    };

    // ---- Phase 1: warmed loadgen on the real dissenter front ----------
    let cfg = WorldConfig { seed, scale: Scale::Custom(scale), ..WorldConfig::small() };
    let (world, _) = synth::generate(&cfg);
    let world = Arc::new(world);
    let targets = user_targets(&world, 24)?;
    let registry = obs::Registry::new();
    let fronts = webfront::SimFronts::with_registry(world.clone(), &registry);
    let services = webfront::SimServices::start_with(fronts, crawler::default_server_config())
        .expect("failed to start simulated services");

    // Warm both regimes so the measured window starts at steady state
    // (connection pool filled, caches primed for the cached pass):
    // without this, cold-start outliers land in the cached p99 and can
    // make it read *worse* than uncached.
    let load = LoadConfig { warmup_per_thread: 50, ..LoadConfig::default() };
    let front = services.dissenter.addr();
    let uncached = run_load(front, &targets, &load, Mode::Uncached);
    let cached = run_load(front, &targets, &load, Mode::Cached);
    let pool_stats = load.pool.stats();
    let shadow_isolated = shadow_isolation_holds(&world);
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    println!(
        "transport: loadgen uncached {:.0} req/s (p99 {} us) vs cached {:.0} req/s (p99 {} us)",
        uncached.req_per_sec, uncached.p99_us, cached.req_per_sec, cached.p99_us
    );

    // ---- Phase 2: pipelined transport against an echo handler ---------
    let echo: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::html("ok".to_string()));
    let mut echo_server = Server::start(
        echo,
        ServerConfig {
            // Each pipelined worker sends its whole run down one
            // connection; don't let the keep-alive cap cut it short.
            max_requests_per_conn: usize::MAX,
            ..ServerConfig::default()
        },
    )
    .expect("echo server");
    let pipelined = run_pipelined(echo_server.addr(), "/t", &pipe);
    echo_server.shutdown();
    let pipelined_speedup = pipelined.req_per_sec / BASELINE_UNCACHED_REQ_PER_SEC;
    println!(
        "transport: pipelined {:.0} req/s ({pipelined_speedup:.1}x the blocking baseline)",
        pipelined.req_per_sec
    );

    // ---- Phase 3: 10k-connection soak ---------------------------------
    let soak = run_soak(conns, rounds);
    if let Err(e) = &soak {
        eprintln!("transport: soak failed: {e}");
    }

    let mut report = BenchReport::new(
        "transport",
        Value::object()
            .with("scale", scale)
            .with("seed", seed)
            .with("conns", conns)
            .with("rounds", rounds)
            .with("rss_ceiling_mb", rss_ceiling_mb)
            .with("threads", pipe.threads)
            .with("batch", pipe.batch)
            .with("batches", pipe.batches_per_thread),
    );
    report.metric(
        "loadgen",
        Value::object()
            .with("threads", load.threads)
            .with("requests_per_thread", load.requests_per_thread)
            .with("warmup_per_thread", load.warmup_per_thread)
            .with("targets", targets.len())
            .with("uncached", summary_json(&uncached))
            .with("cached", summary_json(&cached))
            .with("speedup", cached.req_per_sec / uncached.req_per_sec.max(1e-9))
            .with("cache_hits", counter("cache.hits"))
            .with("cache_misses", counter("cache.misses"))
            .with("cache_evictions", counter("cache.evictions")),
    );
    report.metric(
        "pool",
        Value::object()
            .with("open", pool_stats.open)
            .with("reuse", pool_stats.reuse)
            .with("evicted", pool_stats.evicted)
            .with("idle", pool_stats.idle),
    );
    report.metric(
        "pipelined",
        Value::object()
            .with("summary", summary_json(&pipelined))
            .with("baseline_uncached_req_per_sec", BASELINE_UNCACHED_REQ_PER_SEC)
            .with("speedup_vs_baseline", pipelined_speedup),
    );
    report.metric(
        "soak",
        match &soak {
            Ok(s) => Value::object()
                .with("requests", s.requests)
                .with("rss_before_mb", s.rss_before_mb)
                .with("rss_after_mb", s.rss_after_mb)
                .with("rss_peak_mb", s.rss_peak_mb),
            Err(e) => Value::object().with("error", e.as_str()),
        },
    );

    report.gate("loadgen.uncached.failures", uncached.failures as f64, Op::Eq, 0.0);
    report.gate("loadgen.cached.failures", cached.failures as f64, Op::Eq, 0.0);
    report.gate("loadgen.uncached.not_modified", uncached.not_modified as f64, Op::Eq, 0.0);
    report.gate("loadgen.cached.not_modified", cached.not_modified as f64, Op::Gt, 0.0);
    report.gate("loadgen.cached.req_per_sec", cached.req_per_sec, Op::Gt, uncached.req_per_sec);
    // The warmed gate allows 10% scheduler jitter on the tail but no more.
    let p99_bound = uncached.p99_us as f64 * 1.10;
    report.gate("loadgen.cached.p99_us", cached.p99_us as f64, Op::Le, p99_bound);
    report.check("loadgen.shadow_isolated", shadow_isolated);
    report.gate("pool.reuse", pool_stats.reuse as f64, Op::Gt, 0.0);
    // Every request is one pool acquire (open or reuse), plus one extra
    // open per transparent retry when the server retires a keep-alive
    // connection at its per-connection request cap — a ~0.1% overhead,
    // not more.
    let expected = (uncached.requests
        + cached.requests
        + 2 * (load.threads * load.warmup_per_thread) as u64) as f64;
    let acquires = (pool_stats.open + pool_stats.reuse) as f64;
    report.gate("pool.acquires_min", acquires, Op::Ge, expected);
    report.gate("pool.acquires_max", acquires, Op::Le, expected * 1.01);
    report.gate("pipelined.failures", pipelined.failures as f64, Op::Eq, 0.0);
    report.gate("pipelined.speedup_vs_baseline", pipelined_speedup, Op::Ge, TRANSPORT_SPEEDUP_GATE);
    let soak = soak.ok();
    report.gate(
        "soak.requests",
        soak.as_ref().map(|s| s.requests as f64),
        Op::Eq,
        (conns * rounds) as f64,
    );
    report.gate("soak.rss_peak_mb", soak.map(|s| s.rss_peak_mb), Op::Le, rss_ceiling_mb);
    Ok(report)
}
