//! Retry policy for resilient fetches: exponential backoff with seeded
//! jitter, a total-elapsed cap, status-aware classification of what is
//! worth retrying, and `Retry-After` honoring.
//!
//! This replaces the fixed sleep-and-loop the crawler's §4.3.1
//! re-request path originally used. Jitter is drawn from a per-call
//! seeded generator, so the sleep schedule — like the fault injector on
//! the other side of the wire — is a pure function of configuration.

use crate::http::{Response, Status};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// What a response status means for the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusClass {
    /// Delivered: hand the response to the caller (2xx, 3xx, and 4xx
    /// other than 429 — a 404 is data to this crawler, not a failure).
    Deliver,
    /// Transient server-side trouble (5xx): retry with backoff.
    Retryable,
    /// Throttled (429): retry after the advertised or computed delay.
    Throttled,
}

/// Classify a status for the retry loop.
pub fn classify_status(status: Status) -> StatusClass {
    match status.0 {
        429 => StatusClass::Throttled,
        s if s >= 500 => StatusClass::Retryable,
        _ => StatusClass::Deliver,
    }
}

/// Upper bound on any honored `Retry-After` delay. RFC 9110 allows both
/// delta-seconds and an absolute HTTP-date, and a hostile or misconfigured
/// peer can advertise either arbitrarily far in the future; anything past
/// this cap is clamped (and flagged, so callers can count it).
pub const MAX_RETRY_AFTER: Duration = Duration::from_secs(3600);

/// A parsed `Retry-After` header: the delay to honor plus whether the
/// advertised value was absurd enough to hit [`MAX_RETRY_AFTER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryAfter {
    /// The delay to honor (already clamped).
    pub delay: Duration,
    /// The advertised value exceeded [`MAX_RETRY_AFTER`] and was clamped.
    pub clamped: bool,
}

/// Parse a `Retry-After` header value. Accepts both RFC 9110 forms:
/// delta-seconds (fractional values accepted — the simulated servers use
/// them to keep tests fast) and an IMF-fixdate HTTP-date, resolved
/// against `now`, the caller's clock reading in epoch seconds (dates in
/// the past mean "now"). Negative, non-finite, and unparseable values
/// yield `None`; absurd durations are clamped to [`MAX_RETRY_AFTER`]
/// with `clamped` set.
pub fn parse_retry_after_detailed(resp: &Response, now: u64) -> Option<RetryAfter> {
    let raw = resp.headers.get("retry-after")?.trim();
    let secs = match raw.parse::<f64>() {
        Ok(s) if s.is_finite() && s >= 0.0 => s,
        Ok(_) => return None,
        Err(_) => {
            let now = i64::try_from(now).unwrap_or(i64::MAX);
            http_date_epoch(raw)?.saturating_sub(now).max(0) as f64
        }
    };
    if secs > MAX_RETRY_AFTER.as_secs_f64() {
        Some(RetryAfter { delay: MAX_RETRY_AFTER, clamped: true })
    } else {
        Some(RetryAfter { delay: Duration::from_secs_f64(secs), clamped: false })
    }
}

/// [`parse_retry_after_detailed`] without the clamp flag.
fn parse_retry_after(resp: &Response, now: u64) -> Option<Duration> {
    parse_retry_after_detailed(resp, now).map(|r| r.delay)
}

/// Parse an IMF-fixdate HTTP-date (`Sun, 06 Nov 1994 08:49:37 GMT`) to
/// epoch seconds. The weekday prefix is optional and unchecked (it is
/// redundant); only GMT/UTC zones are accepted.
fn http_date_epoch(s: &str) -> Option<i64> {
    let rest = match s.find(',') {
        Some(i) => s[i + 1..].trim_start(),
        None => s,
    };
    let mut parts = rest.split_ascii_whitespace();
    let day: u32 = parts.next()?.parse().ok()?;
    let month = month_number(parts.next()?)?;
    let year: i64 = parts.next()?.parse().ok()?;
    let mut hms = parts.next()?.split(':');
    let h: i64 = hms.next()?.parse().ok()?;
    let m: i64 = hms.next()?.parse().ok()?;
    let sec: i64 = hms.next()?.parse().ok()?;
    if hms.next().is_some() || !matches!(parts.next(), Some("GMT" | "UTC")) {
        return None;
    }
    if !(1..=31).contains(&day) || h > 23 || m > 59 || sec > 60 {
        return None;
    }
    Some(days_from_civil(year, month, day) * 86_400 + h * 3600 + m * 60 + sec)
}

fn month_number(name: &str) -> Option<u32> {
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    MONTHS.iter().position(|m| m.eq_ignore_ascii_case(name)).map(|i| i as u32 + 1)
}

/// Days since 1970-01-01 for a proleptic-Gregorian civil date (Howard
/// Hinnant's `days_from_civil`).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) as i64 + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Exponential-backoff retry policy.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra attempts after the first (total attempts = `max_retries + 1`).
    pub max_retries: usize,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Growth factor per retry.
    pub multiplier: f64,
    /// Cap on any single backoff sleep (also bounds honored
    /// `Retry-After` values).
    pub max_backoff: Duration,
    /// Total time budget: once exceeded, no further retries are made.
    pub max_elapsed: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_millis(20),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            max_elapsed: Duration::from_secs(30),
            jitter: 0.2,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Start the jitter stream for one logical fetch.
    pub fn jitter_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// The backoff before retry number `retry` (0-based), jittered and
    /// capped. `rng` must be the stream from [`Self::jitter_rng`],
    /// advanced once per sleep, so schedules replay exactly per seed.
    pub fn backoff(&self, retry: usize, rng: &mut StdRng) -> Duration {
        let exp = self.base_backoff.as_secs_f64() * self.multiplier.powi(retry as i32);
        let capped = exp.min(self.max_backoff.as_secs_f64());
        let factor = if self.jitter > 0.0 {
            1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0)
        } else {
            1.0
        };
        Duration::from_secs_f64((capped * factor).max(0.0))
    }

    /// The full sleep schedule for a fetch that exhausts every retry —
    /// handy for tests and capacity planning.
    pub fn schedule(&self) -> Vec<Duration> {
        let mut rng = self.jitter_rng();
        (0..self.max_retries).map(|i| self.backoff(i, &mut rng)).collect()
    }

    /// The delay before a retry prompted by `resp`: an advertised
    /// `Retry-After` (capped by `max_backoff`; an HTTP-date is resolved
    /// against `now`, epoch seconds) wins over computed backoff.
    pub fn delay_for_response(
        &self,
        resp: &Response,
        retry: usize,
        rng: &mut StdRng,
        now: u64,
    ) -> Duration {
        match parse_retry_after(resp, now) {
            Some(ra) => ra.min(self.max_backoff),
            None => self.backoff(retry, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Headers;

    fn resp_with_retry_after(value: &str) -> Response {
        let mut r = Response::status(Status::TOO_MANY);
        r.headers.add("Retry-After", value);
        r
    }

    #[test]
    fn classification_matches_crawl_semantics() {
        assert_eq!(classify_status(Status::OK), StatusClass::Deliver);
        assert_eq!(classify_status(Status(302)), StatusClass::Deliver);
        // 404 is a *data point* for the §3.1 probe, never retried.
        assert_eq!(classify_status(Status::NOT_FOUND), StatusClass::Deliver);
        assert_eq!(classify_status(Status(403)), StatusClass::Deliver);
        assert_eq!(classify_status(Status::TOO_MANY), StatusClass::Throttled);
        assert_eq!(classify_status(Status::INTERNAL), StatusClass::Retryable);
        assert_eq!(classify_status(Status(503)), StatusClass::Retryable);
        assert_eq!(classify_status(Status(599)), StatusClass::Retryable);
    }

    #[test]
    fn unjittered_schedule_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_retries: 6,
            base_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(100),
            jitter: 0.0,
            ..Default::default()
        };
        let ms: Vec<u128> = p.schedule().iter().map(|d| d.as_millis()).collect();
        assert_eq!(ms, vec![10, 20, 40, 80, 100, 100]);
    }

    #[test]
    fn jitter_stays_within_fraction() {
        let p = RetryPolicy {
            max_retries: 200,
            base_backoff: Duration::from_millis(100),
            multiplier: 1.0,
            max_backoff: Duration::from_secs(10),
            jitter: 0.25,
            seed: 11,
            ..Default::default()
        };
        let sched = p.schedule();
        let (lo, hi) = (Duration::from_millis(75), Duration::from_millis(125));
        assert!(sched.iter().all(|d| (lo..=hi).contains(d)));
        // Jitter actually varies the sleeps.
        assert!(sched.iter().any(|d| *d != sched[0]));
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = RetryPolicy { jitter: 0.5, seed: 7, max_retries: 50, ..Default::default() };
        assert_eq!(p.schedule(), p.schedule());
        let q = RetryPolicy { seed: 8, ..p };
        assert_ne!(p.schedule(), q.schedule());
    }

    #[test]
    fn retry_after_parses_integer_and_fractional_seconds() {
        assert_eq!(parse_retry_after(&resp_with_retry_after("2"), 0), Some(Duration::from_secs(2)));
        assert_eq!(
            parse_retry_after(&resp_with_retry_after("0.25"), 0),
            Some(Duration::from_millis(250))
        );
        assert_eq!(
            parse_retry_after(&resp_with_retry_after(" 1.5 "), 0),
            Some(Duration::from_millis(1500))
        );
    }

    #[test]
    fn retry_after_rejects_garbage() {
        for bad in ["soon", "-1", "inf", "NaN", ""] {
            assert_eq!(parse_retry_after(&resp_with_retry_after(bad), 0), None, "{bad:?}");
        }
        let bare = Response { status: Status::TOO_MANY, headers: Headers::new(), body: Vec::new() };
        assert_eq!(parse_retry_after(&bare, 0), None);
    }

    /// Inverse of `days_from_civil` (Hinnant's `civil_from_days`), used to
    /// format an HTTP-date at a given epoch second.
    fn civil_from_days(z: i64) -> (i64, u32, u32) {
        let z = z + 719_468;
        let era = z.div_euclid(146_097);
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        (if m <= 2 { y + 1 } else { y }, m, d)
    }

    fn http_date_at(epoch: i64) -> String {
        const MONTHS: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        let (days, rem) = (epoch.div_euclid(86_400), epoch.rem_euclid(86_400));
        let (y, m, d) = civil_from_days(days);
        format!(
            "Thu, {d:02} {} {y} {:02}:{:02}:{:02} GMT",
            MONTHS[m as usize - 1],
            rem / 3600,
            rem % 3600 / 60,
            rem % 60
        )
    }

    #[test]
    fn http_date_round_trips_known_epochs() {
        // RFC 9110's example date, and a couple of edge days.
        assert_eq!(http_date_epoch("Sun, 06 Nov 1994 08:49:37 GMT"), Some(784_111_777));
        assert_eq!(http_date_epoch("Thu, 01 Jan 1970 00:00:00 GMT"), Some(0));
        assert_eq!(http_date_epoch("29 Feb 2024 12:00:00 UTC"), Some(1_709_208_000));
        for bad in [
            "Sun, 06 Nov 1994 08:49:37 PST", // non-GMT zone
            "Sun, 32 Nov 1994 08:49:37 GMT", // day out of range
            "Sun, 06 Zzz 1994 08:49:37 GMT", // bogus month
            "Sun, 06 Nov 1994 08:49 GMT",    // missing seconds
        ] {
            assert_eq!(http_date_epoch(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn retry_after_http_date_in_the_past_means_now() {
        let r = parse_retry_after_detailed(
            &resp_with_retry_after("Sun, 06 Nov 1994 08:49:37 GMT"),
            1_709_208_000,
        )
        .expect("valid HTTP-date");
        assert_eq!(r.delay, Duration::ZERO);
        assert!(!r.clamped);
    }

    #[test]
    fn retry_after_http_date_in_the_near_future_parses() {
        let now = 1_709_208_000; // 29 Feb 2024 12:00:00 UTC
        let value = http_date_at(now as i64 + 120);
        let r = parse_retry_after_detailed(&resp_with_retry_after(&value), now)
            .unwrap_or_else(|| panic!("{value:?} should parse"));
        assert_eq!(r, RetryAfter { delay: Duration::from_secs(120), clamped: false });
    }

    #[test]
    fn absurd_retry_after_values_are_clamped_and_flagged() {
        for absurd in ["999999999", "1e12", &http_date_at(32_503_680_000)] {
            let r = parse_retry_after_detailed(&resp_with_retry_after(absurd), 1_709_208_000)
                .unwrap_or_else(|| panic!("{absurd:?} should parse"));
            assert_eq!(r.delay, MAX_RETRY_AFTER, "{absurd:?}");
            assert!(r.clamped, "{absurd:?}");
        }
        // At or under the cap: honored verbatim, not flagged.
        let r = parse_retry_after_detailed(&resp_with_retry_after("3600"), 0).unwrap();
        assert_eq!(r, RetryAfter { delay: MAX_RETRY_AFTER, clamped: false });
    }

    #[test]
    fn advertised_retry_after_beats_backoff_but_is_capped() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(400),
            jitter: 0.0,
            ..Default::default()
        };
        let mut rng = p.jitter_rng();
        assert_eq!(
            p.delay_for_response(&resp_with_retry_after("0.05"), 0, &mut rng, 0),
            Duration::from_millis(50)
        );
        // A hostile/huge Retry-After cannot stall the crawl beyond the cap.
        assert_eq!(
            p.delay_for_response(&resp_with_retry_after("3600"), 0, &mut rng, 0),
            Duration::from_millis(400)
        );
        // Without the header, fall back to computed backoff.
        let plain = Response::status(Status::INTERNAL);
        assert_eq!(p.delay_for_response(&plain, 0, &mut rng, 0), Duration::from_millis(10));
    }
}
