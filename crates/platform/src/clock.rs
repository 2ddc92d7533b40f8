//! Protocol time: the one clock rate limits and throttle waits read.
//!
//! Everything time-dependent in the simulated protocol — rate-limit
//! windows, penalty lockouts, `X-RateLimit-Reset` headers on the
//! serving side, and the crawler's sleep-until-reset on the other —
//! keys off a [`Clock`]. A clock is either a **simulated** instant
//! shared by every clone, or the **wall**; only this module knows
//! which. On a simulated clock a wait *advances* the instant instead of
//! sleeping, so a crawl that honors dozens of 60 s resets finishes in
//! wall-clock seconds, and a sweep — or a killed-and-resumed sweep —
//! replays identically no matter when or how fast it actually runs.
//!
//! The simulated instant is a monotone atomic: it only moves forward
//! ([`Clock::advance_to`] is a `fetch_max`), which keeps concurrent
//! advancement races harmless — the furthest-ahead waiter wins and
//! everyone re-reads a consistent "now".
//!
//! The wall clock is the [`Default`], for the two users whose time must
//! be real or agree without being shared explicitly: the abuse harness
//! (whose polite-vs-greedy race measures real waits) and pieces built
//! apart by default constructors, which then still agree on time.
//! Transport deadlines (timeouts, retry backoff, breaker cooldowns)
//! are not protocol time and stay on `std::time::Instant`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Seconds since the Unix epoch, simulated or wall (see the module
/// docs). Cheap to clone; all clones of a simulated clock observe and
/// advance the same instant.
#[derive(Debug, Clone, Default)]
pub struct Clock(Option<Arc<AtomicU64>>);

impl Clock {
    /// The wall clock.
    pub fn wall() -> Self {
        Self(None)
    }

    /// A simulated clock starting at `now` (seconds).
    pub fn simulated(now: u64) -> Self {
        Self(Some(Arc::new(AtomicU64::new(now))))
    }

    /// The current time in seconds.
    pub fn now(&self) -> u64 {
        match &self.0 {
            Some(sim) => sim.load(Ordering::Acquire),
            None => SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs()),
        }
    }

    /// Move a simulated clock forward to `t`. A no-op if the clock is
    /// already at or past `t` — time never runs backwards, so concurrent
    /// advances resolve to the furthest instant — and on the wall, which
    /// only time moves.
    pub fn advance_to(&self, t: u64) {
        if let Some(sim) = &self.0 {
            sim.fetch_max(t, Ordering::AcqRel);
        }
    }

    /// Wait out `d`: a simulated clock advances by its whole seconds,
    /// at least one (so every wait moves time and a retried request
    /// cannot land in the instant that refused it); the wall sleeps.
    pub fn wait(&self, d: Duration) {
        match &self.0 {
            Some(sim) => {
                sim.fetch_add(d.as_secs().max(1), Ordering::AcqRel);
            }
            None => std::thread::sleep(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_instant() {
        let a = Clock::simulated(100);
        let b = a.clone();
        b.advance_to(250);
        assert_eq!(a.now(), 250);
        a.wait(Duration::from_secs(10));
        assert_eq!(b.now(), 260);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = Clock::simulated(500);
        c.advance_to(400);
        assert_eq!(c.now(), 500, "time never runs backwards");
        c.advance_to(501);
        assert_eq!(c.now(), 501);
    }

    #[test]
    fn a_simulated_wait_advances_whole_seconds_at_least_one() {
        let c = Clock::simulated(1_000);
        c.wait(Duration::from_millis(300));
        assert_eq!(c.now(), 1_001);
        c.wait(Duration::from_millis(2_900));
        assert_eq!(c.now(), 1_003);
    }

    #[test]
    fn the_wall_sleeps_and_cannot_be_moved() {
        let wall = Clock::default();
        let before = wall.now();
        wall.advance_to(before + 3_600);
        assert!(wall.now() < before + 3_600, "advance_to must not move the wall");
        let started = std::time::Instant::now();
        wall.wait(Duration::from_millis(20));
        assert!(started.elapsed() >= Duration::from_millis(20), "a wall wait sleeps");
    }
}
