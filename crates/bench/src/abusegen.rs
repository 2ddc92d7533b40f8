//! Seeded hostile-load generator: composable abuse profiles driven
//! concurrently with a well-behaved loadgen baseline (the `abuse` bench
//! suite, and the simcheck `abuse.*` oracle family).
//!
//! Each [`Profile`] is one adversarial client population:
//!
//! * [`Profile::Slowloris`] — header-trickle clients (one byte per
//!   interval, so `read_timeout` alone would never fire — the
//!   `header_read_timeout` budget must) interleaved with partial-write
//!   sinkholes that pipeline a large burst and never drain the
//!   responses, stalling the reactor's write path until
//!   `ServerConfig::write_timeout` closes them;
//! * [`Profile::Stampede`] — a herd hammering one hot dissenter user
//!   page while a voter keeps invalidating the response cache, forcing
//!   repeated miss storms through the front cache's single-flight;
//! * [`Profile::ValidatorReplay`] — cache-poisoning probes replaying a
//!   shadow session's validator from an anonymous connection (extending
//!   the PR5 shadow-isolation probe to sustained hostile load);
//! * [`Profile::PipelineFlood`] — batched HTTP/1.1 pipelined floods that
//!   ride keep-alive connections into the per-connection request cap;
//! * [`Profile::GreedyScraper`] — a swarm hammering the rate-limited
//!   per-URL route, ignoring every 429, eating penalized lockouts.
//!
//! Every driver keeps exact books ([`AbuseCounts`]): each offered
//! request ends in exactly one of served / not-modified / denied /
//! rejected / dropped / errored, so the caller can reconcile the abuse
//! run against the server's own counters (`conn.read_timeouts`,
//! `conn.write_timeouts`, `conn.oversize`, the rate limiter's
//! [`platform::RateStats`]) and prove nothing went unaccounted.
//!
//! [`polite_collect`] / [`greedy_collect`] run the 4TCT-style collector
//! comparison (arXiv:2307.03556) on the rate-limited route: same wall
//! budget, one honoring `X-RateLimit-Reset`, one hammering through
//! penalized lockouts — the polite collector must acquire more.

use crate::loadgen::{run, LoadConfig, LoadSummary, Mode};
use httpnet::http::{read_response, write_request};
use httpnet::{Request, Response, Status};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One adversarial client population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Per-URL scraper swarm ignoring 429s (and their penalties).
    GreedyScraper,
    /// Header tricklers + partial-write sinkholes.
    Slowloris,
    /// Hot-page herd with a cache-invalidating voter.
    Stampede,
    /// Pipelined request floods.
    PipelineFlood,
    /// Shadow-validator replay / cache-poisoning probes.
    ValidatorReplay,
}

impl Profile {
    /// Every profile, in stable order (index == `from_index` argument).
    pub const ALL: [Profile; 5] = [
        Profile::GreedyScraper,
        Profile::Slowloris,
        Profile::Stampede,
        Profile::PipelineFlood,
        Profile::ValidatorReplay,
    ];

    /// Stable name (artifact keys, scenario descriptions).
    pub fn name(&self) -> &'static str {
        match self {
            Profile::GreedyScraper => "greedy_scraper",
            Profile::Slowloris => "slowloris",
            Profile::Stampede => "stampede",
            Profile::PipelineFlood => "pipeline_flood",
            Profile::ValidatorReplay => "validator_replay",
        }
    }

    /// Profile for a scenario knob drawn as `index % ALL.len()`.
    pub fn from_index(index: u8) -> Profile {
        Self::ALL[index as usize % Self::ALL.len()]
    }
}

/// Abuse-load shape. `seed` drives every random choice (target
/// selection, voter cadence) through SplitMix64, so a profile run is
/// reproducible up to thread interleaving.
#[derive(Debug, Clone)]
pub struct AbuseConfig {
    /// Hostile connections (threads) per profile.
    pub conns: usize,
    /// RNG seed.
    pub seed: u64,
    /// Trickle interval for slowloris header drip.
    pub trickle: Duration,
    /// Per-connection give-up budget for tricklers/sinkholes; must
    /// comfortably exceed the server's `header_read_timeout` and
    /// `write_timeout` plus its ~200 ms sweep granularity.
    pub conn_deadline: Duration,
    /// Pipelined requests per flood burst.
    pub flood_batch: usize,
    /// Pipelined requests a sinkhole writes and never reads; sized so
    /// the queued responses overflow both socket buffers and stall the
    /// reactor's write path.
    pub sink_batch: usize,
}

impl Default for AbuseConfig {
    fn default() -> Self {
        Self {
            conns: 4,
            seed: 0xAB05_E5EE_D000_0001,
            trickle: Duration::from_millis(20),
            conn_deadline: Duration::from_secs(3),
            flood_batch: 64,
            sink_batch: 1024,
        }
    }
}

/// Exact books for one abuse segment. Every offered request lands in
/// exactly one outcome bucket, so
/// `offered == served + not_modified + denied + rejected + dropped + errors`
/// always — [`AbuseCounts::reconciles`] is the oracle's first check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AbuseCounts {
    /// Requests the clients attempted (including ones never delivered).
    pub offered: u64,
    /// 2xx responses.
    pub served: u64,
    /// 304 responses.
    pub not_modified: u64,
    /// 429 responses.
    pub denied: u64,
    /// 429s carrying `X-RateLimit-Penalized: 1` (a subset of `denied`).
    pub penalized: u64,
    /// Other non-success statuses (expected rejections: 404s on probe
    /// targets, 400s).
    pub rejected: u64,
    /// Requests lost to a server-closed connection (the defense doing
    /// its job: timeouts, oversize closes, keep-alive caps).
    pub dropped: u64,
    /// Client-side failures before the server was reached (connect
    /// refusals, local I/O errors), plus tricklers that outlived their
    /// give-up budget without being closed.
    pub errors: u64,
    /// Shadow-visibility leaks observed (success or 304 where the
    /// isolation contract demands rejection). Always expected zero.
    pub leaks: u64,
    /// Cache-coherence violations: two responses sharing an ETag with
    /// different body bytes. Always expected zero.
    pub incoherent: u64,
    /// Connections the clients watched the server close mid-request
    /// (each must be accounted by a `conn.*` defense counter).
    pub closed_conns: u64,
}

impl AbuseCounts {
    /// Fold another segment's books into this one.
    pub fn merge(&mut self, other: &AbuseCounts) {
        self.offered += other.offered;
        self.served += other.served;
        self.not_modified += other.not_modified;
        self.denied += other.denied;
        self.penalized += other.penalized;
        self.rejected += other.rejected;
        self.dropped += other.dropped;
        self.errors += other.errors;
        self.leaks += other.leaks;
        self.incoherent += other.incoherent;
        self.closed_conns += other.closed_conns;
    }

    /// Every offered request is accounted by exactly one outcome.
    pub fn reconciles(&self) -> bool {
        self.offered
            == self.served + self.not_modified + self.denied + self.rejected + self.dropped
                + self.errors
    }
}

/// Targets an abuse run drives, discovered from the served world.
#[derive(Debug, Clone)]
pub struct AbuseTargets {
    /// The hot dissenter user page the herd stampedes (`/user/<name>`).
    pub hot_user: String,
    /// Rate-limited per-URL comment pages (`/url/<cuid>`), all valid.
    pub cuids: Vec<String>,
    /// Vote endpoint bumping the cache generation
    /// (`/url/<cuid>/vote?dir=up`), when the world has a URL.
    pub vote: Option<String>,
}

impl AbuseTargets {
    /// Pick targets from a world: the lexicographically first dissenter
    /// user as the hot page and the first few comment URLs as the
    /// rate-limited set. Deterministic for a deterministic world.
    pub fn discover(world: &platform::World, url_count: usize) -> Option<AbuseTargets> {
        let hot = world
            .dissenter_users()
            .map(|i| world.user(i).username.clone())
            .min()?;
        let mut ids: Vec<String> =
            world.dissenter.urls().iter().map(|u| u.id.to_string()).collect();
        ids.sort_unstable();
        ids.truncate(url_count.max(1));
        if ids.is_empty() {
            return None;
        }
        let vote = Some(format!("/url/{}/vote?dir=up", ids[0]));
        Some(AbuseTargets {
            hot_user: format!("/user/{hot}"),
            cuids: ids.into_iter().map(|id| format!("/url/{id}")).collect(),
            vote,
        })
    }
}

/// A shadow-labeled page plus the validator an opted-in session was
/// served for it — the ammunition for [`Profile::ValidatorReplay`].
#[derive(Debug, Clone)]
pub struct ShadowProbe {
    /// The shadow-labeled comment page (`/comment/<cid>`).
    pub target: String,
    /// The ETag the shadow session was served.
    pub tag: String,
}

/// Fetch a shadow-labeled comment page as the opted-in crawler session
/// and capture its validator over the wire. `None` when the world has
/// no shadow-labeled comment (tiny scales) or the fetch fails.
pub fn shadow_probe(addr: SocketAddr, world: &platform::World) -> Option<ShadowProbe> {
    let comment = world.dissenter.comments().iter().find(|c| c.nsfw || c.offensive)?;
    let target = format!("/comment/{}", comment.id);
    let mut conn = connect(addr).ok()?;
    let mut req = request("GET", &target);
    req.headers.add("Cookie", "session=crawler:both");
    let resp = send(&mut conn, &req).ok()?;
    if !resp.status.is_success() {
        return None;
    }
    let tag = resp.etag()?.to_owned();
    Some(ShadowProbe { target, tag })
}

/// SplitMix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn connect(addr: SocketAddr) -> std::io::Result<BufReader<TcpStream>> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(BufReader::with_capacity(16 * 1024, s))
}

fn request(method: &str, target: &str) -> Request {
    let mut req = Request {
        method: method.into(),
        target: target.into(),
        headers: httpnet::http::Headers::new(),
        body: Vec::new(),
    };
    req.headers.add("Host", "sim.local");
    req
}

fn send(conn: &mut BufReader<TcpStream>, req: &Request) -> Result<Response, ()> {
    write_request(req, conn.get_mut()).map_err(|_| ())?;
    read_response(conn).map_err(|_| ())
}

/// FNV-1a over body bytes, for ETag↔body coherence checks.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Bucket one delivered response into the books. `coherence`, when
/// given, is the shared ETag→body-hash map the stampede herd uses to
/// prove byte-identity of cache-served bodies.
fn record(
    counts: &mut AbuseCounts,
    resp: &Response,
    coherence: Option<&Mutex<HashMap<String, u64>>>,
) {
    if resp.status.is_success() {
        counts.served += 1;
        if let (Some(map), Some(tag)) = (coherence, resp.etag()) {
            let hash = fnv64(&resp.body);
            let mut map = map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let prior = *map.entry(tag.to_owned()).or_insert(hash);
            if prior != hash {
                counts.incoherent += 1;
            }
        }
    } else if resp.status == Status::NOT_MODIFIED {
        counts.not_modified += 1;
    } else if resp.status == Status::TOO_MANY {
        counts.denied += 1;
        if resp.headers.get("X-RateLimit-Penalized") == Some("1") {
            counts.penalized += 1;
        }
    } else {
        counts.rejected += 1;
    }
}

/// Greedy scraper: hammer the rate-limited per-URL pages round-robin,
/// ignoring every 429 (each re-request inside a lockout extends it).
fn greedy_scraper(
    addr: SocketAddr,
    cuids: &[String],
    stop: &AtomicBool,
    mut rng: u64,
    counts: &mut AbuseCounts,
) {
    let mut conn: Option<BufReader<TcpStream>> = None;
    while !stop.load(Ordering::Relaxed) {
        counts.offered += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    counts.errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let target = &cuids[(splitmix(&mut rng) % cuids.len() as u64) as usize];
        match send(c, &request("GET", target)) {
            Ok(resp) => record(counts, &resp, None),
            Err(()) => {
                // Keep-alive retirement or a defense close: the request
                // was never answered.
                counts.dropped += 1;
                counts.closed_conns += 1;
                conn = None;
            }
        }
    }
}

/// Header trickler: start a request, then drip one header byte per
/// interval. `read_timeout` is refreshed by every byte, so only the
/// pinned `header_read_timeout` budget can end this — the driver counts
/// a drop when (and only when) the server hangs up.
fn trickler(addr: SocketAddr, cfg: &AbuseConfig, stop: &AtomicBool, counts: &mut AbuseCounts) {
    while !stop.load(Ordering::Relaxed) {
        counts.offered += 1;
        let Ok(reader) = connect(addr) else {
            counts.errors += 1;
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let mut s = reader.into_inner();
        let _ = s.set_read_timeout(Some(Duration::from_millis(5)));
        if s.write_all(b"GET /user/slow HTTP/1.1\r\nHost: sim.local\r\nX-Drip: ").is_err() {
            counts.dropped += 1;
            counts.closed_conns += 1;
            continue;
        }
        let started = Instant::now();
        let mut closed = false;
        while !closed && started.elapsed() < cfg.conn_deadline {
            std::thread::sleep(cfg.trickle);
            if s.write_all(b"a").is_err() {
                closed = true;
                break;
            }
            let mut buf = [0u8; 64];
            match s.read(&mut buf) {
                Ok(0) => closed = true,
                Ok(_) => {} // the server never speaks first; ignore
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => closed = true,
            }
        }
        if closed {
            counts.dropped += 1;
            counts.closed_conns += 1;
        } else {
            // Outlived the give-up budget without a close: the defense
            // failed to fire. Books it as an error so reconciliation
            // still holds and the oracle can see dropped == 0.
            counts.errors += 1;
        }
    }
}

/// Partial-write sinkhole: pipeline a burst big enough that the queued
/// responses overflow both loopback socket buffers, then refuse to read.
/// The reactor's write path stalls until `write_timeout` closes the
/// connection; the driver then drains what was delivered and books the
/// rest as dropped.
fn sinkhole(
    addr: SocketAddr,
    hot: &str,
    cfg: &AbuseConfig,
    stop: &AtomicBool,
    counts: &mut AbuseCounts,
) {
    let one = format!("GET {hot} HTTP/1.1\r\nHost: sim.local\r\n\r\n");
    while !stop.load(Ordering::Relaxed) {
        let Ok(mut conn) = connect(addr) else {
            counts.offered += 1;
            counts.errors += 1;
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let burst: Vec<u8> = one.as_bytes().repeat(cfg.sink_batch);
        if conn.get_mut().write_all(&burst).is_err() {
            counts.offered += 1;
            counts.dropped += 1;
            counts.closed_conns += 1;
            continue;
        }
        counts.offered += cfg.sink_batch as u64;
        // Hold without reading until the write deadline has certainly
        // swept, then drain whatever made it through before the close.
        let hold_until = Instant::now() + cfg.conn_deadline;
        while Instant::now() < hold_until && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
        }
        let _ = conn.get_ref().set_read_timeout(Some(Duration::from_millis(500)));
        let mut got = 0u64;
        let mut saw_close = false;
        while got < cfg.sink_batch as u64 {
            match read_response(&mut conn) {
                Ok(resp) => {
                    record(counts, &resp, None);
                    got += 1;
                }
                Err(_) => {
                    saw_close = true;
                    break;
                }
            }
        }
        counts.dropped += cfg.sink_batch as u64 - got;
        if saw_close {
            counts.closed_conns += 1;
        }
    }
}

/// Stampede herd: hammer the hot user page; every so often a vote bumps
/// the cache generation, purging the entry and forcing the herd through
/// the front cache's single-flight again. Coherence is checked via the
/// shared ETag→body-hash map.
fn stampede(
    addr: SocketAddr,
    targets: &AbuseTargets,
    stop: &AtomicBool,
    mut rng: u64,
    coherence: &Mutex<HashMap<String, u64>>,
    counts: &mut AbuseCounts,
) {
    let mut conn: Option<BufReader<TcpStream>> = None;
    while !stop.load(Ordering::Relaxed) {
        counts.offered += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    counts.errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let vote_turn = targets.vote.is_some() && splitmix(&mut rng).is_multiple_of(13);
        let req = if vote_turn {
            request("POST", targets.vote.as_deref().unwrap())
        } else {
            request("GET", &targets.hot_user)
        };
        match send(c, &req) {
            Ok(resp) => record(counts, &resp, (!vote_turn).then_some(coherence)),
            Err(()) => {
                counts.dropped += 1;
                counts.closed_conns += 1;
                conn = None;
            }
        }
    }
}

/// Pipelined flood: batched bursts down keep-alive connections. Bursts
/// that cross the server's per-connection request cap lose their tail —
/// booked as drops, which the caller reconciles against the server
/// having closed the connection deliberately.
fn pipeline_flood(
    addr: SocketAddr,
    target: &str,
    cfg: &AbuseConfig,
    stop: &AtomicBool,
    counts: &mut AbuseCounts,
) {
    let one = format!("GET {target} HTTP/1.1\r\nHost: sim.local\r\n\r\n");
    let burst: Vec<u8> = one.as_bytes().repeat(cfg.flood_batch);
    'outer: while !stop.load(Ordering::Relaxed) {
        let Ok(mut conn) = connect(addr) else {
            counts.offered += 1;
            counts.errors += 1;
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        while !stop.load(Ordering::Relaxed) {
            if conn.get_mut().write_all(&burst).is_err() {
                counts.offered += 1;
                counts.dropped += 1;
                counts.closed_conns += 1;
                continue 'outer;
            }
            counts.offered += cfg.flood_batch as u64;
            for got in 0..cfg.flood_batch as u64 {
                match read_response(&mut conn) {
                    Ok(resp) => record(counts, &resp, None),
                    Err(_) => {
                        counts.dropped += cfg.flood_batch as u64 - got;
                        counts.closed_conns += 1;
                        continue 'outer;
                    }
                }
            }
        }
    }
}

/// Validator replay / poisoning probes: replay the shadow session's
/// validator anonymously (a 304 or 2xx is a leak), interleaved with
/// plain anonymous fetches (a 2xx is a leak) and occasional legitimate
/// shadow-session fetches that keep the cache entry hot — the poisoning
/// attempt needs something to poison.
fn validator_replay(
    addr: SocketAddr,
    probe: &ShadowProbe,
    stop: &AtomicBool,
    mut rng: u64,
    counts: &mut AbuseCounts,
) {
    let mut conn: Option<BufReader<TcpStream>> = None;
    while !stop.load(Ordering::Relaxed) {
        counts.offered += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    counts.errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let draw = splitmix(&mut rng) % 3;
        let mut req = request("GET", &probe.target);
        match draw {
            // Keep the shadow entry cached so the replay has a live
            // target; never a leak (the session is entitled to it).
            0 => req.headers.add("Cookie", "session=crawler:both"),
            // Anonymous replay of the shadow validator.
            1 => req.headers.add("If-None-Match", &probe.tag),
            // Plain anonymous fetch.
            _ => {}
        }
        match send(c, &req) {
            Ok(resp) => {
                if draw != 0
                    && (resp.status.is_success() || resp.status == Status::NOT_MODIFIED)
                {
                    counts.leaks += 1;
                }
                record(counts, &resp, None);
            }
            Err(()) => {
                counts.dropped += 1;
                counts.closed_conns += 1;
                conn = None;
            }
        }
    }
}

/// Drive one profile with `cfg.conns` concurrent hostile clients until
/// `stop` flips, returning the merged books. `shadow` arms
/// [`Profile::ValidatorReplay`]; without it that profile is a no-op
/// (tiny worlds may have no shadow-labeled comment to probe).
pub fn run_profile(
    addr: SocketAddr,
    profile: Profile,
    targets: &AbuseTargets,
    shadow: Option<&ShadowProbe>,
    cfg: &AbuseConfig,
    stop: &AtomicBool,
) -> AbuseCounts {
    let coherence: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
    let merged: Mutex<AbuseCounts> = Mutex::new(AbuseCounts::default());
    std::thread::scope(|scope| {
        for t in 0..cfg.conns.max(1) {
            let (merged, coherence) = (&merged, &coherence);
            scope.spawn(move || {
                let mut counts = AbuseCounts::default();
                let rng = cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match profile {
                    Profile::GreedyScraper => {
                        greedy_scraper(addr, &targets.cuids, stop, rng, &mut counts)
                    }
                    Profile::Slowloris => {
                        if t % 2 == 0 {
                            trickler(addr, cfg, stop, &mut counts)
                        } else {
                            sinkhole(addr, &targets.hot_user, cfg, stop, &mut counts)
                        }
                    }
                    Profile::Stampede => {
                        stampede(addr, targets, stop, rng, coherence, &mut counts)
                    }
                    Profile::PipelineFlood => {
                        pipeline_flood(addr, &targets.hot_user, cfg, stop, &mut counts)
                    }
                    Profile::ValidatorReplay => {
                        if let Some(probe) = shadow {
                            validator_replay(addr, probe, stop, rng, &mut counts)
                        }
                    }
                }
                merged
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .merge(&counts);
            });
        }
    });
    merged.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One mixed run's outcome: the polite baseline's measurements beside
/// the hostile population's books.
#[derive(Debug, Clone)]
pub struct MixedOutcome {
    /// The well-behaved closed-loop baseline, measured mid-abuse.
    pub polite: LoadSummary,
    /// The hostile population's merged books.
    pub abuse: AbuseCounts,
}

/// Drive `profile` concurrently with a polite loadgen baseline: abuse
/// threads start first (with a short ramp so the measured window is
/// fully contested), the baseline is measured, and the abuse runs at
/// least `hold` from phase start before being stopped (slow defenses —
/// header budgets, write deadlines — need wall time to fire even when
/// the polite baseline finishes quickly).
#[allow(clippy::too_many_arguments)]
pub fn run_mixed(
    addr: SocketAddr,
    profile: Profile,
    targets: &AbuseTargets,
    shadow: Option<&ShadowProbe>,
    cfg: &AbuseConfig,
    polite_targets: &[String],
    polite: &LoadConfig,
    hold: Duration,
) -> MixedOutcome {
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let mut outcome: Option<MixedOutcome> = None;
    std::thread::scope(|scope| {
        let abuse_handle = scope.spawn(|| run_profile(addr, profile, targets, shadow, cfg, &stop));
        std::thread::sleep(Duration::from_millis(100)); // ramp: contention before measurement
        let polite = run(addr, polite_targets, polite, Mode::Cached);
        if let Some(rest) = hold.checked_sub(started.elapsed()) {
            std::thread::sleep(rest);
        }
        stop.store(true, Ordering::Relaxed);
        let abuse = abuse_handle.join().unwrap_or_default();
        outcome = Some(MixedOutcome { polite, abuse });
    });
    outcome.expect("scoped run completed")
}

/// One collector's outcome in the polite-vs-greedy comparison.
#[derive(Debug, Clone, Copy)]
pub struct CollectorOutcome {
    /// The collector's request books.
    pub counts: AbuseCounts,
    /// Pages successfully acquired inside the budget.
    pub acquired: u64,
    /// Times the polite collector slept until `X-RateLimit-Reset`.
    pub sleeps: u64,
}

/// The well-behaved collector: walk the rate-limited pages round-robin,
/// and on a 429 sleep until the advertised `X-RateLimit-Reset` before
/// retrying the same page — the paper crawler's (and 4TCT's) protocol.
pub fn polite_collect(addr: SocketAddr, cuids: &[String], deadline: Instant) -> CollectorOutcome {
    let mut out =
        CollectorOutcome { counts: AbuseCounts::default(), acquired: 0, sleeps: 0 };
    let mut conn: Option<BufReader<TcpStream>> = None;
    let mut i = 0usize;
    while Instant::now() < deadline {
        out.counts.offered += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    out.counts.errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let target = &cuids[i % cuids.len()];
        match send(c, &request("GET", target)) {
            Ok(resp) => {
                let reset = resp
                    .headers
                    .get("X-RateLimit-Reset")
                    .and_then(|s| s.parse::<u64>().ok());
                record(&mut out.counts, &resp, None);
                if resp.status == Status::TOO_MANY {
                    let wait = reset.unwrap_or(0).saturating_sub(platform::Clock::wall().now());
                    let wake = Instant::now()
                        + Duration::from_secs(wait)
                        + Duration::from_millis(100);
                    if wake < deadline {
                        out.sleeps += 1;
                        std::thread::sleep(wake - Instant::now());
                    } else {
                        return out; // budget exhausted mid-backoff
                    }
                } else {
                    if resp.status.is_success() {
                        out.acquired += 1;
                    }
                    i += 1;
                }
            }
            Err(()) => {
                out.counts.dropped += 1;
                out.counts.closed_conns += 1;
                conn = None;
            }
        }
    }
    out
}

/// The greedy collector: same task and budget, but 429s are ignored —
/// it moves on immediately and keeps hammering, so under a
/// penalty-enabled limiter each re-visit inside a lockout extends it
/// and the acquisition rate collapses.
pub fn greedy_collect(addr: SocketAddr, cuids: &[String], deadline: Instant) -> CollectorOutcome {
    let mut out =
        CollectorOutcome { counts: AbuseCounts::default(), acquired: 0, sleeps: 0 };
    let mut conn: Option<BufReader<TcpStream>> = None;
    let mut i = 0usize;
    while Instant::now() < deadline {
        out.counts.offered += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    out.counts.errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let target = &cuids[i % cuids.len()];
        i += 1;
        match send(c, &request("GET", target)) {
            Ok(resp) => {
                record(&mut out.counts, &resp, None);
                if resp.status.is_success() {
                    out.acquired += 1;
                }
            }
            Err(()) => {
                out.counts.dropped += 1;
                out.counts.closed_conns += 1;
                conn = None;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpnet::{Handler, ServerConfig};
    use std::sync::Arc;
    use synth::config::Scale;
    use synth::WorldConfig;

    fn small_world() -> Arc<platform::World> {
        let cfg = WorldConfig {
            seed: 0xBEEF,
            scale: Scale::Custom(0.001),
            ..WorldConfig::small()
        };
        let (world, _) = synth::generate(&cfg);
        Arc::new(world)
    }

    fn hardened(registry: &obs::Registry) -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue: 256,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_millis(400),
            header_read_timeout: Duration::from_millis(300),
            metrics: Some(registry.clone()),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn slowloris_profile_is_closed_counted_and_reconciles() {
        let world = small_world();
        let registry = obs::Registry::new();
        let front = Arc::new(webfront::dissenter::DissenterFront::new(world.clone()));
        let server =
            httpnet::Server::start(front as Arc<dyn Handler>, hardened(&registry)).unwrap();
        let targets = AbuseTargets::discover(&world, 2).expect("targets");
        let cfg = AbuseConfig {
            conns: 2, // one trickler + one sinkhole
            conn_deadline: Duration::from_millis(1500),
            sink_batch: 1024,
            ..AbuseConfig::default()
        };
        let stop = AtomicBool::new(false);
        let counts;
        {
            let stop = &stop;
            counts = std::thread::scope(|scope| {
                let h = scope
                    .spawn(|| run_profile(server.addr(), Profile::Slowloris, &targets, None, &cfg, stop));
                std::thread::sleep(Duration::from_millis(2500));
                stop.store(true, Ordering::Relaxed);
                h.join().unwrap()
            });
        }
        assert!(counts.reconciles(), "{counts:?}");
        assert!(counts.dropped > 0, "the defense never closed a hostile conn: {counts:?}");
        assert_eq!(counts.errors, 0, "a trickler outlived its budget unclosed: {counts:?}");
        let snap = registry.snapshot();
        let timeouts = snap.counter("conn.read_timeouts").unwrap_or(0)
            + snap.counter("conn.write_timeouts").unwrap_or(0)
            + snap.counter("conn.oversize").unwrap_or(0);
        assert!(
            timeouts >= counts.closed_conns,
            "server closed {} hostile conns but only counted {timeouts} defense closes",
            counts.closed_conns
        );
        assert!(
            snap.counter("conn.read_timeouts").unwrap_or(0) > 0,
            "tricklers must be closed by the header budget"
        );
        assert!(
            snap.counter("conn.write_timeouts").unwrap_or(0) > 0,
            "sinkholes must be closed by the write deadline"
        );
    }

    #[test]
    fn greedy_books_reconcile_against_the_limiter_exactly() {
        let world = small_world();
        let stamp = world.content_hash();
        let front = Arc::new(webfront::dissenter::DissenterFront::with_parts(
            world.clone(),
            webfront::cache::FrontCache::new(stamp),
            platform::RateLimiter::new(2, 1).with_penalty(3),
            platform::Clock::wall(),
        ));
        let server = httpnet::Server::start(
            front.clone() as Arc<dyn Handler>,
            ServerConfig::default(),
        )
        .unwrap();
        let targets = AbuseTargets::discover(&world, 2).expect("targets");
        let deadline = Instant::now() + Duration::from_millis(1500);
        let greedy = greedy_collect(server.addr(), &targets.cuids, deadline);
        assert!(greedy.counts.reconciles(), "{greedy:?}");
        assert!(greedy.counts.penalized > 0, "hammering must earn penalized denies: {greedy:?}");
        let stats = front.rate_stats();
        assert_eq!(
            stats.allowed,
            greedy.counts.served + greedy.counts.not_modified + greedy.counts.rejected,
            "limiter allows vs client-observed successes: {stats:?} vs {greedy:?}"
        );
        assert_eq!(stats.denied, greedy.counts.denied, "{stats:?} vs {greedy:?}");
        assert_eq!(stats.penalized, greedy.counts.penalized, "{stats:?} vs {greedy:?}");
    }

    #[test]
    fn polite_collector_outcollects_greedy_under_penalties() {
        let world = small_world();
        let stamp = world.content_hash();
        let front = Arc::new(webfront::dissenter::DissenterFront::with_parts(
            world.clone(),
            webfront::cache::FrontCache::new(stamp),
            platform::RateLimiter::new(2, 1).with_penalty(3),
            platform::Clock::wall(),
        ));
        let server = httpnet::Server::start(
            front as Arc<dyn Handler>,
            ServerConfig::default(),
        )
        .unwrap();
        let targets = AbuseTargets::discover(&world, 2).expect("targets");
        let budget = Duration::from_millis(3200);
        let greedy = greedy_collect(server.addr(), &targets.cuids, Instant::now() + budget);
        // Let every penalty lockout expire so the polite run starts clean.
        std::thread::sleep(Duration::from_millis(3600));
        let polite = polite_collect(server.addr(), &targets.cuids, Instant::now() + budget);
        assert!(polite.sleeps > 0, "polite collector never honored a reset: {polite:?}");
        assert!(
            polite.acquired > greedy.acquired,
            "polite {} must outcollect greedy {} under penalties",
            polite.acquired,
            greedy.acquired
        );
    }
}
