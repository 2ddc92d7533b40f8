//! A log-linear latency histogram.
//!
//! Values below 2^SUB_BITS are counted exactly; above that, each power of
//! two is split into 2^SUB_BITS equal-width buckets, so a bucket is never
//! wider than 1/128 of its lower bound. Quantiles interpolate linearly
//! inside the bucket that holds the requested rank, which keeps the
//! relative error of any quantile under 1% (the `obs` histograms use one
//! bucket per power of two and cannot resolve a 10% change).
//!
//! Recording is a single relaxed atomic add, so one histogram can be
//! shared by every reactor thread of a server.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Buckets covering every `u64`: the exact range, then `SUB` per octave.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Concurrent log-linear histogram of `u64` values (nanoseconds here).
pub struct LogHistogram {
    counts: Vec<AtomicU64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let shift = top - SUB_BITS;
    let mantissa = (v >> shift) as usize; // in [SUB, 2 * SUB)
    (shift as usize + 1) * SUB + (mantissa - SUB)
}

/// `[low, high)` value range of bucket `i`.
fn range(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, i as f64 + 1.0);
    }
    let shift = (i / SUB - 1) as i32;
    let mantissa = (i % SUB + SUB) as f64;
    let width = 2f64.powi(shift);
    (mantissa * width, (mantissa + 1.0) * width)
}

impl LogHistogram {
    /// Count one value.
    pub fn record(&self, v: u64) {
        self.counts[index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (q * total as f64).ceil().clamp(1.0, total as f64);
        let mut below = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, hi) = range(i);
                if i < SUB {
                    return Some(lo);
                }
                // Spread the bucket's values evenly over its width.
                return Some(lo + (hi - lo) * (rank - below as f64 - 0.5) / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} lies within the {total} recorded values")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile by the same rank rule (`ceil(q * n)`, 1-based).
    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_value_range() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 123_456_789, 1 << 62] {
            let (lo, hi) = range(index(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} not in [{lo}, {hi})");
            assert!(
                hi - lo <= (lo / 128.0).max(1.0),
                "bucket of {v} too wide: [{lo}, {hi})"
            );
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_stay_within_one_percent() {
        // Heavy-tailed, handler-latency-like values from a fixed LCG.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut values = Vec::new();
        let h = LogHistogram::default();
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let v = (2_000.0 * (1.0 / (1.0 - u)).powf(0.8)) as u64;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), values.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let (want, got) = (exact(&values, q), h.quantile(q).expect("non-empty"));
            let err = (got - want).abs() / want;
            assert!(
                err <= 0.01,
                "q={q}: exact {want}, histogram {got}, error {err}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_empty_has_no_quantile() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        for v in [3u64, 5, 7, 9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(9.0));
    }
}
