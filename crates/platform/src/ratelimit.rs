//! Rate limiting as the measured services exposed it.
//!
//! * Dissenter: HTTP headers advertise a 10-requests-per-minute limit —
//!   but the counter is **per-URL**, so a crawler that never re-requests a
//!   URL is unimpeded (§3.2). We reproduce that quirk exactly.
//! * Gab: exposes `X-RateLimit-Remaining` and a reset time; the paper's
//!   crawler throttles to 1 req/s and sleeps until reset when exhausted
//!   (§3.4).
//!
//! The limiter is keyed (per-URL or per-client) and driven by an explicit
//! clock value, keeping simulations deterministic.
//!
//! ## Hostile-burst accounting contract
//!
//! Production fronts share one limiter behind a mutex across many
//! connections, and hostile clients hammer it with clock samples taken
//! *before* the lock is acquired — so `now` values arrive out of order.
//! The limiter guarantees, for any interleaving:
//!
//! * every `check` lands in **exactly one** bucket — `allowed + denied ==
//!   checks` (a denied request decrements nothing, and nothing twice);
//! * a deny never consumes window budget (`used` is untouched);
//! * at most `limit` requests are admitted per fixed window per key;
//! * in penalty mode, each deny extends the key's lockout **once**, from
//!   that deny's own clock sample — re-checking while locked out cannot
//!   compound a single request into multiple extensions.
//!
//! [`RateStats`] exposes the totals so oracles can reconcile them against
//! client-observed responses.

use std::collections::HashMap;

/// Outcome of asking the limiter for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateDecision {
    /// Request admitted; `remaining` slots left in the window.
    Allow {
        /// Requests left in the current window after this one.
        remaining: u32,
        /// When the window resets (absolute seconds).
        reset_at: u64,
    },
    /// Request rejected until `reset_at`.
    Deny {
        /// When the window resets (absolute seconds).
        reset_at: u64,
        /// True when this deny extended a greedy-client penalty lockout
        /// (the limiter was constructed [`RateLimiter::with_penalty`] and
        /// the key was re-requested while already denied).
        penalized: bool,
    },
}

impl RateDecision {
    /// Was the request admitted?
    pub fn allowed(&self) -> bool {
        matches!(self, RateDecision::Allow { .. })
    }
}

/// Running totals of every decision a limiter has made. `allowed +
/// denied` equals the number of `check` calls; `penalized` counts the
/// subset of denies that extended a penalty lockout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateStats {
    /// Requests admitted.
    pub allowed: u64,
    /// Requests rejected (includes the penalized subset).
    pub denied: u64,
    /// Denies that extended a greedy-client penalty lockout.
    pub penalized: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    window_start: u64,
    used: u32,
    /// Absolute second until which every request is denied outright.
    penalty_until: u64,
}

/// A fixed-window, keyed rate limiter with optional greedy-client
/// penalties.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    limit: u32,
    window_secs: u64,
    /// 0 disables penalties (legacy behavior). When positive, a request
    /// that is denied while the key is already denied pushes the key's
    /// lockout to `now + penalty_secs` — a scraper that ignores
    /// Retry-After keeps its own window shut while polite clients (who
    /// sleep until `reset_at`) sail through.
    penalty_secs: u64,
    state: HashMap<String, Entry>,
    stats: RateStats,
}

/// Test-only mutation failpoint (see `SIMCHECK_MUTATE` in simcheck): read
/// once per process so the hot path never re-queries the environment.
fn mutation(name: &str) -> bool {
    static ACTIVE: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    ACTIVE.get_or_init(|| std::env::var("SIMCHECK_MUTATE").ok()).as_deref() == Some(name)
}

impl RateLimiter {
    /// `limit` requests per `window_secs` per key.
    pub fn new(limit: u32, window_secs: u64) -> Self {
        assert!(limit > 0 && window_secs > 0, "limit and window must be positive");
        Self { limit, window_secs, penalty_secs: 0, state: HashMap::new(), stats: RateStats::default() }
    }

    /// Enable greedy-client penalties: a key denied while already denied
    /// has its lockout extended to `now + penalty_secs`.
    pub fn with_penalty(mut self, penalty_secs: u64) -> Self {
        self.penalty_secs = penalty_secs;
        self
    }

    /// Dissenter's advertised per-URL limit: 10 requests per minute.
    pub fn dissenter_per_url() -> Self {
        Self::new(10, 60)
    }

    /// Admit or reject a request for `key` at time `now`.
    pub fn check(&mut self, key: &str, now: u64) -> RateDecision {
        let penalty_secs = self.penalty_secs;
        let entry = self
            .state
            .entry(key.to_owned())
            .or_insert(Entry { window_start: now, used: 0, penalty_until: 0 });

        // An active penalty lockout denies outright — and the offending
        // request itself extends it. The extension is monotone (`max`) so
        // a stale clock sample never *shortens* an existing lockout.
        if entry.penalty_until > now {
            if penalty_secs > 0 {
                entry.penalty_until = entry.penalty_until.max(now + penalty_secs);
                self.stats.denied += 1;
                if !mutation("skip_penalty_counter") {
                    self.stats.penalized += 1;
                }
                return RateDecision::Deny { reset_at: entry.penalty_until, penalized: true };
            }
            self.stats.denied += 1;
            return RateDecision::Deny { reset_at: entry.penalty_until, penalized: false };
        }

        // Window rollover. `window_start` only moves forward: a stale
        // `now` (sampled before the lock under a concurrent burst) can
        // never re-open a window someone else already rolled.
        if now >= entry.window_start + self.window_secs {
            entry.window_start = now;
            entry.used = 0;
        }
        let reset_at = entry.window_start + self.window_secs;
        if entry.used >= self.limit {
            // Exhausted: deny without touching `used`. In penalty mode
            // this first deny *starts* the lockout; it is not counted as
            // penalized (the client had no Retry-After to ignore yet).
            if penalty_secs > 0 {
                entry.penalty_until = entry.penalty_until.max(now + penalty_secs);
                self.stats.denied += 1;
                return RateDecision::Deny {
                    reset_at: reset_at.max(entry.penalty_until),
                    penalized: false,
                };
            }
            self.stats.denied += 1;
            RateDecision::Deny { reset_at, penalized: false }
        } else {
            entry.used += 1;
            self.stats.allowed += 1;
            RateDecision::Allow { remaining: self.limit - entry.used, reset_at }
        }
    }

    /// The configured per-window limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// The configured window length in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Number of keys currently tracked.
    pub fn tracked_keys(&self) -> usize {
        self.state.len()
    }

    /// Running decision totals (`allowed + denied == checks`).
    pub fn stats(&self) -> RateStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allows_up_to_limit_then_denies() {
        let mut rl = RateLimiter::new(3, 60);
        assert!(rl.check("k", 0).allowed());
        assert!(rl.check("k", 1).allowed());
        assert!(rl.check("k", 2).allowed());
        let d = rl.check("k", 3);
        assert!(!d.allowed());
        assert_eq!(d, RateDecision::Deny { reset_at: 60, penalized: false });
    }

    #[test]
    fn remaining_counts_down() {
        let mut rl = RateLimiter::new(2, 60);
        assert_eq!(rl.check("k", 0), RateDecision::Allow { remaining: 1, reset_at: 60 });
        assert_eq!(rl.check("k", 0), RateDecision::Allow { remaining: 0, reset_at: 60 });
    }

    #[test]
    fn window_resets() {
        let mut rl = RateLimiter::new(1, 60);
        assert!(rl.check("k", 0).allowed());
        assert!(!rl.check("k", 30).allowed());
        assert!(rl.check("k", 60).allowed(), "new window admits again");
    }

    #[test]
    fn keys_are_independent_like_dissenters_per_url_counter() {
        // The §3.2 quirk: exhausting one URL's budget leaves others open.
        let mut rl = RateLimiter::dissenter_per_url();
        for i in 0..10 {
            assert!(rl.check("https://a.example/x", i).allowed());
        }
        assert!(!rl.check("https://a.example/x", 11).allowed());
        assert!(rl.check("https://a.example/y", 11).allowed());
        assert_eq!(rl.tracked_keys(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_panics() {
        RateLimiter::new(0, 60);
    }

    #[test]
    fn stats_reconcile_exactly() {
        let mut rl = RateLimiter::new(2, 60);
        for t in 0..10u64 {
            rl.check("k", t);
        }
        let s = rl.stats();
        assert_eq!(s.allowed + s.denied, 10, "every check lands in exactly one bucket");
        assert_eq!(s.allowed, 2);
        assert_eq!(s.denied, 8);
        assert_eq!(s.penalized, 0, "no penalty mode, no penalized denies");
    }

    #[test]
    fn penalty_extends_once_per_offense_and_never_shortens() {
        let mut rl = RateLimiter::new(1, 10).with_penalty(30);
        assert!(rl.check("k", 0).allowed());
        // Exhausted → deny that starts the lockout (not penalized).
        let d1 = rl.check("k", 1);
        assert_eq!(d1, RateDecision::Deny { reset_at: 31, penalized: false });
        // Hammering while locked out: each check is one penalized deny
        // extending from its own clock sample.
        let d2 = rl.check("k", 2);
        assert_eq!(d2, RateDecision::Deny { reset_at: 32, penalized: true });
        // A stale sample (now=1 < 2) must not shorten the lockout.
        let d3 = rl.check("k", 1);
        assert_eq!(d3, RateDecision::Deny { reset_at: 32, penalized: true });
        let s = rl.stats();
        assert_eq!((s.allowed, s.denied, s.penalized), (1, 3, 2));
        // Window would have rolled at 10 — but the lockout holds past it
        // (and this probe, being itself an offense, extends it to 45).
        assert!(!rl.check("k", 15).allowed(), "rollover must not wipe an active lockout");
        // Once the lockout expires the key gets a fresh window.
        assert!(rl.check("k", 50).allowed());
    }

    #[test]
    fn stale_now_cannot_reopen_a_rolled_window() {
        let mut rl = RateLimiter::new(2, 60);
        assert!(rl.check("k", 0).allowed());
        assert!(rl.check("k", 0).allowed());
        // Roll the window at t=60, spend the fresh budget.
        assert!(rl.check("k", 60).allowed());
        assert!(rl.check("k", 60).allowed());
        // A racing check whose clock was sampled before the roll must be
        // denied against the *new* window, not re-roll to an old one.
        let d = rl.check("k", 59);
        assert!(!d.allowed());
        let s = rl.stats();
        assert_eq!(s.allowed + s.denied, 5);
    }

    /// Satellite-2 counter-reconciliation test: hostile concurrent bursts
    /// with out-of-order clock samples through a shared mutex. For every
    /// interleaving: `allowed + denied == checks`, per-window admissions
    /// never exceed the limit, and penalized is a subset of denied.
    #[test]
    fn concurrent_burst_accounting_reconciles() {
        use std::sync::{Arc, Mutex};
        let rl = Arc::new(Mutex::new(RateLimiter::new(5, 2).with_penalty(3)));
        let threads = 8;
        let per_thread = 200;
        let mut joins = Vec::new();
        for tid in 0..threads {
            let rl = Arc::clone(&rl);
            joins.push(std::thread::spawn(move || {
                let mut observed = RateStats::default();
                for i in 0..per_thread {
                    // Jittered, non-monotone clock: threads race between
                    // sampling and locking.
                    let now = (i / 20) as u64 + (tid % 3) as u64;
                    let key = format!("k{}", i % 4);
                    match rl.lock().unwrap().check(&key, now) {
                        RateDecision::Allow { .. } => observed.allowed += 1,
                        RateDecision::Deny { penalized, .. } => {
                            observed.denied += 1;
                            if penalized {
                                observed.penalized += 1;
                            }
                        }
                    }
                }
                observed
            }));
        }
        let mut client_side = RateStats::default();
        for j in joins {
            let o = j.join().unwrap();
            client_side.allowed += o.allowed;
            client_side.denied += o.denied;
            client_side.penalized += o.penalized;
        }
        let server_side = rl.lock().unwrap().stats();
        let total = (threads * per_thread) as u64;
        assert_eq!(server_side.allowed + server_side.denied, total, "{server_side:?}");
        assert_eq!(server_side, client_side, "server books must equal client-observed responses");
        assert!(server_side.penalized <= server_side.denied);
    }
}
