//! Crawl resilience: per-endpoint circuit breakers, per-phase retry
//! budgets, and dead-letter accounting.
//!
//! The paper's §4.3.1 hygiene ("we monitor request timeouts and
//! re-request missed pages") is the *mechanism*; this module adds the
//! *policy* around it so one pathological endpoint cannot stall
//! [`Crawler::full_crawl`](crate::Crawler::full_crawl):
//!
//! * every phase issues its HTTP through [`PhaseRun::fetch`], one call
//!   per **logical fetch** (a page the crawl wants, however many wire
//!   attempts that takes);
//! * retries follow the seeded [`httpnet::RetryPolicy`] schedule, honor
//!   `Retry-After` / `X-RateLimit-Reset`, and draw from a shared
//!   per-phase [retry budget](crate::CrawlConfig::retry_budget) — when
//!   the budget is dry, fetches get a single attempt;
//! * each of the four services has a [`CircuitBreaker`]: enough
//!   *consecutive* exhausted fetches open it, subsequent fetches
//!   fast-fail to the dead-letter list, and after a cooldown a single
//!   half-open probe decides whether to close it again;
//! * every logical fetch ends in **exactly one** of
//!   `succeeded`/`dead_lettered`, so per-phase coverage accounting
//!   (`attempted = succeeded + dead_lettered`) tells every §4 analysis
//!   what fraction of the world the crawl actually saw.

use crate::store::{CrawlStore, DeadLetter};
use crate::Crawler;
use httpnet::{
    classify_status, parse_retry_after_detailed, Client, ClientBuilder, ClientError, Response,
    RetryPolicy, StatusClass,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The crawl phases, in pipeline order. Indexes [`crate::store::CrawlStats::phases`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Gab ID enumeration (§3.1).
    GabEnum,
    /// Dissenter account probing by response size (§3.1).
    Probe,
    /// Home-page and comment spidering (§3.2).
    Spider,
    /// Shadow-label validation (§4.3.1).
    Shadow,
    /// YouTube content crawl (§3.3).
    Youtube,
    /// Gab follower/following crawl (§3.4).
    Social,
    /// Reddit matching and Pushshift pulls (§4.4.1).
    Reddit,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::GabEnum,
        Phase::Probe,
        Phase::Spider,
        Phase::Shadow,
        Phase::Youtube,
        Phase::Social,
        Phase::Reddit,
    ];

    /// Stable index into per-phase stat arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable name (used in dead-letter records and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::GabEnum => "gab_enum",
            Phase::Probe => "probe",
            Phase::Spider => "spider",
            Phase::Shadow => "shadow",
            Phase::Youtube => "youtube",
            Phase::Social => "social",
            Phase::Reddit => "reddit",
        }
    }

    /// The service this phase talks to (breakers are per-endpoint: the
    /// probe, spider, and shadow phases share the Dissenter breaker, and
    /// enumeration shares Gab's with the social crawl).
    pub fn service(self) -> Service {
        match self {
            Phase::GabEnum | Phase::Social => Service::Gab,
            Phase::Probe | Phase::Spider | Phase::Shadow => Service::Dissenter,
            Phase::Youtube => Service::Youtube,
            Phase::Reddit => Service::Reddit,
        }
    }
}

/// The four simulated services (one circuit breaker each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// dissenter.com.
    Dissenter,
    /// gab.com.
    Gab,
    /// reddit.com / Pushshift.
    Reddit,
    /// Rendered YouTube.
    Youtube,
}

impl Service {
    /// Stable name, used as the endpoint class in metric names
    /// (`http.<name>.latency`, `breaker.<name>.to_open`).
    pub fn name(self) -> &'static str {
        match self {
            Service::Dissenter => "dissenter",
            Service::Gab => "gab",
            Service::Reddit => "reddit",
            Service::Youtube => "youtube",
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: counting consecutive exhausted fetches.
    Closed { consecutive_failures: usize },
    /// Tripped: fetches fast-fail until the cooldown instant.
    Open { until: Instant },
    /// Cooldown expired: exactly one probe fetch is in flight.
    HalfOpen,
}

/// A per-endpoint circuit breaker: closed → (N consecutive failures) →
/// open → (cooldown) → half-open probe → closed on success / open on
/// failure.
///
/// "Failure" here is a *logical fetch that exhausted its retries* — a
/// dead-letter-level event, not a single wire error (which the retry
/// loop absorbs) and never a 429 (a throttling peer is alive and
/// cooperating, not down). Thresholds live in
/// [`crate::CrawlConfig`] and are passed per call so one breaker can
/// outlive config tweaks between phases.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    state: Mutex<Option<BreakerState>>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut BreakerState) -> R) -> R {
        let mut guard = self.state.lock();
        let state = guard.get_or_insert(BreakerState::Closed { consecutive_failures: 0 });
        f(state)
    }

    /// May a fetch proceed? While open, returns `false` until the
    /// cooldown expires; the first call after expiry transitions to
    /// half-open and admits that one caller as the probe (subsequent
    /// calls stay rejected until the probe reports back).
    pub fn allow(&self) -> bool {
        self.with_state(|state| match *state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    *state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => false,
        })
    }

    /// A logical fetch succeeded: close (from any state) and reset the
    /// failure count.
    pub fn record_success(&self) {
        self.with_state(|state| *state = BreakerState::Closed { consecutive_failures: 0 });
    }

    /// A logical fetch exhausted its retries. In half-open this re-opens
    /// immediately (the probe failed); when closed, `threshold`
    /// consecutive failures open the breaker for `cooldown`.
    pub fn record_failure(&self, threshold: usize, cooldown: Duration) {
        self.with_state(|state| match *state {
            BreakerState::Closed { consecutive_failures } => {
                let n = consecutive_failures + 1;
                *state = if n >= threshold.max(1) {
                    BreakerState::Open { until: Instant::now() + cooldown }
                } else {
                    BreakerState::Closed { consecutive_failures: n }
                };
            }
            BreakerState::HalfOpen | BreakerState::Open { .. } => {
                *state = BreakerState::Open { until: Instant::now() + cooldown };
            }
        })
    }

    /// Is the breaker closed (healthy)?
    pub fn is_closed(&self) -> bool {
        self.with_state(|state| matches!(state, BreakerState::Closed { .. }))
    }

    /// The state name, for tests and debug output.
    pub fn state_name(&self) -> &'static str {
        self.with_state(|state| match state {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// One circuit breaker per service, shared across all phases of a crawl
/// (the probe and spider phases hammer the same Dissenter endpoint; a
/// breaker that resets between them would forget an outage in progress).
#[derive(Debug, Default)]
pub struct Breakers {
    dissenter: CircuitBreaker,
    gab: CircuitBreaker,
    reddit: CircuitBreaker,
    youtube: CircuitBreaker,
}

impl Breakers {
    /// The breaker guarding `service`.
    pub fn get(&self, service: Service) -> &CircuitBreaker {
        match service {
            Service::Dissenter => &self.dissenter,
            Service::Gab => &self.gab,
            Service::Reddit => &self.reddit,
            Service::Youtube => &self.youtube,
        }
    }
}

/// Extra attempts granted to 429-throttled fetches beyond
/// `CrawlConfig::retries` — throttling is the peer cooperating, not
/// failing, so it gets more patience (mirroring the paper's
/// sleep-until-reset loop) but still a bound, for liveness against a
/// server that 429s forever.
const THROTTLE_GRACE: usize = 8;

/// Shared context for one phase of the crawl: the phase identity, the
/// breaker for its endpoint, and the phase-wide retry budget all worker
/// threads draw from.
#[derive(Debug)]
pub struct PhaseRun<'a> {
    crawler: &'a Crawler,
    phase: Phase,
    budget: AtomicUsize,
    metrics: PhaseCounters,
}

/// Pre-resolved counter handles for one phase (`crawl.<phase>.*` in the
/// crawler's registry). Handles are grabbed once here so the per-fetch
/// hot path never takes the registry lock. These mirror
/// [`crate::store::PhaseStats`] — same events, same invariant
/// (`attempted == succeeded + dead_lettered`) — exported where the rest
/// of the run's observability lives.
#[derive(Debug)]
struct PhaseCounters {
    attempted: obs::Counter,
    succeeded: obs::Counter,
    retried: obs::Counter,
    dead_lettered: obs::Counter,
    throttle_sleeps: obs::Counter,
    retry_after_clamped: obs::Counter,
    /// `crawl.<phase>.client_cpu_s`: CPU seconds of the phase's client
    /// worker threads. A gauge, because it varies run to run.
    client_cpu: obs::Gauge,
}

impl PhaseCounters {
    fn new(registry: &obs::Registry, phase: Phase) -> Self {
        let name = |suffix: &str| format!("crawl.{}.{suffix}", phase.name());
        Self {
            attempted: registry.counter(&name("attempted")),
            succeeded: registry.counter(&name("succeeded")),
            retried: registry.counter(&name("retried")),
            dead_lettered: registry.counter(&name("dead_lettered")),
            throttle_sleeps: registry.counter(&name("throttle_sleeps")),
            retry_after_clamped: registry.counter(&name("retry_after_clamped")),
            client_cpu: registry.gauge(&name("client_cpu_s")),
        }
    }
}

/// Is a named simulation-testing mutation active? `simcheck`'s mutation
/// smoke test sets `SIMCHECK_MUTATE` to deliberately miscount and prove
/// the accounting oracles catch it. Read once: the crawl hot path must
/// not re-query the environment per fetch.
pub(crate) fn mutation(name: &str) -> bool {
    static ACTIVE: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    ACTIVE.get_or_init(|| std::env::var("SIMCHECK_MUTATE").ok()).as_deref() == Some(name)
}

impl<'a> PhaseRun<'a> {
    /// Start a phase (budget charged from
    /// [`retry_budget`](crate::CrawlConfig::retry_budget)).
    pub fn new(crawler: &'a Crawler, phase: Phase) -> Self {
        Self {
            crawler,
            phase,
            budget: AtomicUsize::new(crawler.config.retry_budget),
            metrics: PhaseCounters::new(&crawler.metrics, phase),
        }
    }

    /// Configure a fresh worker client for this phase: the crawl
    /// timeout, request instrumentation under this phase's service name
    /// (`http.<service>.*` in the crawler's registry), and — when
    /// incremental re-crawl is on — the crawl-wide revalidation cache.
    pub fn setup_client(&self, builder: ClientBuilder) -> ClientBuilder {
        let builder = builder
            .timeout(self.crawler.config.timeout)
            .metrics(&self.crawler.metrics, self.phase.service().name());
        match self.crawler.revalidation_cache() {
            Some(reval) => builder.revalidation_cache(reval.clone()),
            None => builder,
        }
    }

    /// The phase this run accounts to.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Worker threads per phase.
    pub(crate) fn workers(&self) -> usize {
        self.crawler.config.workers
    }

    /// The phase's `crawl.<phase>.client_cpu_s` gauge.
    pub(crate) fn client_cpu(&self) -> &obs::Gauge {
        &self.metrics.client_cpu
    }

    /// Retry budget left for this phase.
    pub fn budget_remaining(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Try to spend one retry from the phase budget.
    fn take_retry(&self) -> bool {
        self.budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }

    /// One **logical fetch**: issue `target`, retrying per the
    /// configured policy, honoring throttle advice, consulting the
    /// endpoint's circuit breaker, and recording exactly one of
    /// `succeeded` / `dead_lettered` (plus a [`DeadLetter`] record) for
    /// this phase. Returns the delivered response, or `None` when the
    /// fetch was dead-lettered.
    ///
    /// Non-2xx statuses other than 429/5xx are *delivered*, not
    /// retried — a 404 is a data point to this crawler (§3.1).
    pub fn fetch(&self, client: &Client, store: &CrawlStore, target: &str) -> Option<Response> {
        self.fetch_one(client, store, target, &mut 1)
    }

    /// Logical fetches for `targets`, one answer per target, in order.
    /// While `*depth > 1` and the endpoint's breaker is closed, their
    /// first attempts go out pipelined on one connection
    /// ([`Client::get_pipelined`]); otherwise they go one at a time,
    /// exactly as [`PhaseRun::fetch`]. Every first attempt that is not
    /// delivered continues through the same retry loop as
    /// [`PhaseRun::fetch`], and any 429, 5xx or wire error sets `*depth`
    /// to 1, so a throttled or failing worker keeps one request in
    /// flight from then on.
    pub fn fetch_batch(
        &self,
        client: &Client,
        store: &CrawlStore,
        targets: &[String],
        depth: &mut usize,
    ) -> Vec<Option<Response>> {
        let breaker = self.crawler.breakers.get(self.phase.service());
        if *depth < 2 || targets.len() < 2 || !breaker.is_closed() {
            return targets.iter().map(|t| self.fetch_one(client, store, t, depth)).collect();
        }
        let admitted: Vec<bool> = targets.iter().map(|t| self.admit(store, t)).collect();
        let sent: Vec<&str> =
            targets.iter().zip(&admitted).filter(|(_, ok)| **ok).map(|(t, _)| t.as_str()).collect();
        let mut answers = client.get_pipelined(&sent).into_iter();
        let answered = self.crawler.clock.now();
        targets
            .iter()
            .zip(admitted)
            .map(|(target, ok)| {
                if !ok {
                    return None;
                }
                let first = answers.next()?;
                self.settle(client, store, target, Some((first, answered)), depth)
            })
            .collect()
    }

    /// [`PhaseRun::fetch`], lowering `*depth` to 1 on trouble.
    fn fetch_one(
        &self,
        client: &Client,
        store: &CrawlStore,
        target: &str,
        depth: &mut usize,
    ) -> Option<Response> {
        if !self.admit(store, target) {
            return None;
        }
        self.settle(client, store, target, None, depth)
    }

    /// Start a logical fetch: count it attempted and consult the
    /// endpoint's breaker. A rejected fetch is dead-lettered here.
    fn admit(&self, store: &CrawlStore, target: &str) -> bool {
        let stats = store.stats.phase(self.phase);
        stats.add_attempted();
        self.metrics.attempted.inc();

        let breaker = self.crawler.breakers.get(self.phase.service());
        if self.observe_breaker(breaker, || breaker.allow()) {
            return true;
        }
        stats.add_dead_lettered();
        self.metrics.dead_lettered.inc();
        store.stats.add_failure();
        store.push_dead_letter(DeadLetter {
            phase: self.phase,
            target: target.to_owned(),
            cause: "circuit open".to_owned(),
        });
        false
    }

    /// The retry loop of an admitted logical fetch. `first` is the answer
    /// to a first attempt already sent (pipelined), with the time it was
    /// read; without it the first attempt is sent here.
    fn settle(
        &self,
        client: &Client,
        store: &CrawlStore,
        target: &str,
        mut first: Option<(Result<Response, ClientError>, u64)>,
        depth: &mut usize,
    ) -> Option<Response> {
        let cfg = &self.crawler.config;
        let stats = store.stats.phase(self.phase);
        let breaker = self.crawler.breakers.get(self.phase.service());
        let policy = RetryPolicy {
            max_retries: cfg.retries,
            base_backoff: cfg.backoff,
            ..RetryPolicy::default()
        };
        let mut rng = policy.jitter_rng();
        let started = Instant::now();
        let mut failures = 0usize; // wire errors + retryable statuses
        let mut throttles = 0usize; // 429s
        let clock = &self.crawler.clock;
        loop {
            store.stats.add_requests(1);
            let (answer, answered) = match first.take() {
                Some(first) => first,
                None => (client.get(target), clock.now()),
            };
            let (cause, wait) = match answer {
                Ok(resp) => match classify_status(resp.status) {
                    StatusClass::Deliver => {
                        self.observe_breaker(breaker, || breaker.record_success());
                        stats.add_succeeded();
                        if !mutation("skip_succeeded_counter") {
                            self.metrics.succeeded.inc();
                        }
                        return Some(resp);
                    }
                    StatusClass::Throttled => {
                        *depth = 1;
                        throttles += 1;
                        if throttles > cfg.retries + THROTTLE_GRACE {
                            return self.dead_letter(store, breaker, target, "throttled beyond grace (429)");
                        }
                        store.stats.add_rate_limit_sleep();
                        self.metrics.throttle_sleeps.inc();
                        let (wait, clamped) = throttle_delay(
                            &resp,
                            &policy,
                            throttles - 1,
                            &mut rng,
                            answered,
                            clock.now(),
                        );
                        if clamped {
                            self.metrics.retry_after_clamped.inc();
                        }
                        clock.wait(wait);
                        continue;
                    }
                    StatusClass::Retryable => {
                        let wait = policy.delay_for_response(&resp, failures, &mut rng);
                        (format!("http status {}", resp.status), wait)
                    }
                },
                Err(e) => {
                    let wait = policy.backoff(failures, &mut rng);
                    (e.to_string(), wait)
                }
            };
            *depth = 1;
            failures += 1;
            if failures > cfg.retries || started.elapsed() > policy.max_elapsed {
                return self.dead_letter(store, breaker, target, &cause);
            }
            if !self.take_retry() {
                return self.dead_letter(store, breaker, target, "retry budget exhausted");
            }
            store.stats.add_retry();
            stats.add_retried();
            self.metrics.retried.inc();
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    }

    fn dead_letter(
        &self,
        store: &CrawlStore,
        breaker: &CircuitBreaker,
        target: &str,
        cause: &str,
    ) -> Option<Response> {
        let cfg = &self.crawler.config;
        self.observe_breaker(breaker, || {
            breaker.record_failure(cfg.breaker_threshold, cfg.breaker_cooldown)
        });
        store.stats.phase(self.phase).add_dead_lettered();
        self.metrics.dead_lettered.inc();
        store.stats.add_failure();
        store.push_dead_letter(DeadLetter {
            phase: self.phase,
            target: target.to_owned(),
            cause: cause.to_owned(),
        });
        None
    }

    /// Run a breaker operation and, when it changed the breaker's state,
    /// export the transition: a `breaker.<service>.to_<state>` counter
    /// bump plus a structured `breaker` event in the trace log.
    fn observe_breaker<R>(&self, breaker: &CircuitBreaker, op: impl FnOnce() -> R) -> R {
        let before = breaker.state_name();
        let out = op();
        let after = breaker.state_name();
        if before != after {
            let service = self.phase.service().name();
            self.crawler
                .metrics
                .inc(&format!("breaker.{service}.to_{}", after.replace('-', "_")));
            self.crawler.metrics.event(
                "breaker",
                &[("service", service), ("from", before), ("to", after)],
            );
        }
        out
    }
}

/// Ceiling on one sleep-until-reset wait. A peer advertising a reset
/// further out than this is treated as absurd advice and clamped
/// (surfaced via `retry_after_clamped`), so a hostile server cannot
/// park a worker indefinitely.
const MAX_RESET_WAIT: Duration = Duration::from_secs(120);

/// How long to wait out a 429, plus whether the peer's advice was
/// absurd enough to be clamped (surfaced as the phase's
/// `retry_after_clamped` counter). Preference order: the `Retry-After`
/// header (delta-seconds or HTTP-date, capped by the policy's
/// `max_backoff`), then `X-RateLimit-Reset` (absolute seconds on the
/// caller's clock, the Gab/Dissenter convention — waited out **in
/// full**, exactly like the paper's sleep-until-reset loop), then the
/// computed backoff. `answered` (when the 429 was read) and `now` are
/// readings of the crawler's [`platform::Clock`], the one the server's
/// reset refers to. The reset wait runs from `answered`, so a 429
/// that sat in a pipelined batch while an earlier item waited out its
/// own reset has already served that part of its wait.
///
/// Waiting to the advertised reset, rather than probing in short
/// slices, is what keeps a fetch's *outcome* independent of where in
/// the peer's rate window it starts: a crawl resumed right after a
/// crash inherits a window its dead predecessor already spent, and a
/// sliced wait would burn through the throttle grace before the
/// window turns over, dead-lettering fetches an uninterrupted crawl
/// delivers.
fn throttle_delay(
    resp: &Response,
    policy: &RetryPolicy,
    throttle_no: usize,
    rng: &mut rand::rngs::StdRng,
    answered: u64,
    now: u64,
) -> (Duration, bool) {
    if let Some(ra) = parse_retry_after_detailed(resp) {
        return (ra.delay.min(policy.max_backoff), ra.clamped);
    }
    if let Some(reset) = resp.headers.get("x-ratelimit-reset").and_then(|v| v.parse::<u64>().ok()) {
        // +1 covers sub-second truncation on both clocks: waiting to
        // the reset's second boundary can still land inside the old
        // window.
        let wait = Duration::from_secs(reset.saturating_sub(answered).max(1) + 1);
        let waited = Duration::from_secs(now.saturating_sub(answered));
        return (wait.min(MAX_RESET_WAIT).saturating_sub(waited), wait > MAX_RESET_WAIT);
    }
    (policy.backoff(throttle_no, rng), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOL: Duration = Duration::from_millis(30);

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let b = CircuitBreaker::new();
        assert_eq!(b.state_name(), "closed");
        // Two failures at threshold 3 keep it closed.
        b.record_failure(3, COOL);
        b.record_failure(3, COOL);
        assert_eq!(b.state_name(), "closed");
        assert!(b.allow());
        // Third consecutive failure opens it: fetches fast-fail.
        b.record_failure(3, COOL);
        assert_eq!(b.state_name(), "open");
        assert!(!b.allow());
        // Cooldown expires: exactly one half-open probe is admitted.
        std::thread::sleep(COOL + Duration::from_millis(10));
        assert!(b.allow());
        assert_eq!(b.state_name(), "half-open");
        assert!(!b.allow(), "only one probe until it reports back");
        // The probe succeeds: closed again, failure count reset.
        b.record_success();
        assert_eq!(b.state_name(), "closed");
        b.record_failure(3, COOL);
        b.record_failure(3, COOL);
        assert_eq!(b.state_name(), "closed", "count restarted after close");
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new();
        b.record_failure(1, COOL);
        assert_eq!(b.state_name(), "open");
        std::thread::sleep(COOL + Duration::from_millis(10));
        assert!(b.allow());
        b.record_failure(1, COOL);
        assert_eq!(b.state_name(), "open");
        assert!(!b.allow(), "a failed probe restarts the cooldown");
    }

    #[test]
    fn success_resets_consecutive_count() {
        let b = CircuitBreaker::new();
        for _ in 0..50 {
            b.record_failure(3, COOL);
            b.record_failure(3, COOL);
            b.record_success();
        }
        assert_eq!(b.state_name(), "closed", "non-consecutive failures never open");
    }

    #[test]
    fn a_reset_wait_runs_from_when_the_429_was_read() {
        let mut resp = Response::status(httpnet::Status::TOO_MANY);
        resp.headers.add("X-RateLimit-Reset", "100");
        let policy = RetryPolicy::default();
        let mut rng = policy.jitter_rng();
        let mut wait = |answered, now| throttle_delay(&resp, &policy, 0, &mut rng, answered, now).0;
        assert_eq!(wait(95, 95), Duration::from_secs(6), "fresh: to the reset, plus one");
        assert_eq!(wait(95, 98), Duration::from_secs(3), "read before a 3 s wait elsewhere");
        assert_eq!(wait(99, 99), Duration::from_secs(2));
        assert_eq!(wait(99, 102), Duration::ZERO, "the window turned over while it sat");
    }

    #[test]
    fn phase_service_mapping_is_total() {
        for p in Phase::ALL {
            // Just exercise the mapping and names — a new phase that
            // forgets either will fail to compile or panic here.
            let _ = p.service();
            assert!(!p.name().is_empty());
            assert_eq!(Phase::ALL[p.index()], p);
        }
    }
}
