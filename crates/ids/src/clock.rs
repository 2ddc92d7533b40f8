//! Timestamps and calendar helpers for deterministic world generation.
//!
//! All data generation runs on simulated time spanning the paper's
//! 14-month measurement window: Dissenter's launch in February 2019 through
//! the end of April 2020. Real wall-clock time never feeds the generators,
//! so a `(seed, scale)` pair always produces an identical world. The
//! advanceable clock the fronts and crawler share is `platform::Clock`.

/// Seconds since the Unix epoch. Dissenter encodes this (truncated to 32
/// bits, big-endian) into the first four bytes of each object ID.
pub type Timestamp = u64;

/// 2019-02-26T00:00:00Z — public launch of the Dissenter extension.
pub const DISSENTER_LAUNCH: Timestamp = 1_551_139_200;

/// 2020-04-30T23:59:59Z — end of the paper's measurement window.
pub const STUDY_END: Timestamp = 1_588_291_199;

/// 2016-08-15T00:00:00Z — approximate Gab launch, used for Gab account ages.
pub const GAB_LAUNCH: Timestamp = 1_471_219_200;

const SECS_PER_DAY: u64 = 86_400;

/// Render a timestamp as `YYYY-MM-DD` (proleptic Gregorian, UTC).
///
/// Implemented from first principles (civil-from-days algorithm) so the
/// crate needs no external time dependency.
pub fn format_date(ts: Timestamp) -> String {
    let (y, m, d) = civil_from_days((ts / SECS_PER_DAY) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Render a timestamp as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn format_datetime(ts: Timestamp) -> String {
    let (y, m, d) = civil_from_days((ts / SECS_PER_DAY) as i64);
    let rem = ts % SECS_PER_DAY;
    let (h, mi, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    format!("{y:04}-{m:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z")
}

/// Timestamp for midnight UTC of the given civil date.
pub fn from_ymd(year: i64, month: u32, day: u32) -> Timestamp {
    let days = days_from_civil(year, month, day);
    assert!(days >= 0, "date before the Unix epoch is unsupported");
    days as u64 * SECS_PER_DAY
}

/// `(year, month)` of a timestamp; handy for monthly growth histograms.
pub fn year_month(ts: Timestamp) -> (i64, u32) {
    let (y, m, _) = civil_from_days((ts / SECS_PER_DAY) as i64);
    (y, m)
}

// Howard Hinnant's `civil_from_days` / `days_from_civil` algorithms.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_date_is_feb_2019() {
        assert_eq!(format_date(DISSENTER_LAUNCH), "2019-02-26");
    }

    #[test]
    fn study_end_is_apr_2020() {
        assert_eq!(format_date(STUDY_END), "2020-04-30");
    }

    #[test]
    fn paper_example_timestamp() {
        // §2.2: an account created 2019-02-28T16:23:53Z begins `5c780b19`.
        let ts: Timestamp = 0x5c78_0b19;
        assert_eq!(format_datetime(ts), "2019-02-28T16:23:53Z");
    }

    #[test]
    fn from_ymd_round_trip() {
        for &(y, m, d) in &[(1970, 1, 1), (2000, 2, 29), (2019, 2, 26), (2020, 12, 31)] {
            let ts = from_ymd(y, m, d);
            assert_eq!(format_date(ts), format!("{y:04}-{m:02}-{d:02}"));
        }
    }

    #[test]
    fn year_month_extraction() {
        assert_eq!(year_month(DISSENTER_LAUNCH), (2019, 2));
        assert_eq!(year_month(from_ymd(2019, 3, 31)), (2019, 3));
    }
}

#[cfg(test)]
mod boundary_tests {
    use super::*;

    #[test]
    fn leap_day_round_trips() {
        let ts = from_ymd(2020, 2, 29);
        assert_eq!(format_date(ts), "2020-02-29");
        assert_eq!(format_date(ts + 86_400), "2020-03-01");
    }

    #[test]
    fn year_boundary() {
        let ts = from_ymd(2019, 12, 31) + 86_399;
        assert_eq!(format_datetime(ts), "2019-12-31T23:59:59Z");
        assert_eq!(format_date(ts + 1), "2020-01-01");
    }

    #[test]
    fn non_leap_century_rules_hold() {
        // 2100 is not a leap year (divisible by 100, not 400).
        let ts = from_ymd(2100, 2, 28) + 86_400;
        assert_eq!(format_date(ts), "2100-03-01");
    }
}
