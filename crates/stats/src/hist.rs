//! Histograms, including the logarithmic binning used for degree and
//! vote-score plots (Figs. 5, 9b, 9c group observations by magnitude).

/// A fixed-bin histogram over `[lo, hi)` with uniform bin width.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Observations below `lo`.
    pub underflow: u64,
    /// Observations at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// Create a histogram with `bins` uniform bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "hi must exceed lo");
        assert!(bins > 0, "need at least one bin");
        Self { lo, hi, counts: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Record an observation. Panics on NaN (like the other samplers in
    /// this crate): a NaN would otherwise compare false against both
    /// bounds and land silently in the first bin.
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation in histogram");
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Group values into logarithmic bins: value `v > 0` lands in bin
/// `floor(log_base(v))`; zero values land in a dedicated bin `None`.
/// Returns `(bin_exponent_or_none, values)` groups in ascending order —
/// this is how Figures 9b/9c bucket follower counts (10^0, 10^1, …).
pub fn log_bins(values: &[(u64, f64)], base: f64) -> Vec<(Option<u32>, Vec<f64>)> {
    use std::collections::BTreeMap;
    assert!(base > 1.0, "log base must exceed 1");
    let mut groups: BTreeMap<Option<u32>, Vec<f64>> = BTreeMap::new();
    for &(k, v) in values {
        let bin = if k == 0 {
            None
        } else {
            Some((k as f64).log(base).floor() as u32)
        };
        groups.entry(bin).or_default().push(v);
    }
    groups.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.0, 0.5, 5.0, 9.99, 10.0, -1.0] {
            h.add(x);
        }
        assert_eq!(h.total(), 4);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn log_bins_group_by_magnitude() {
        let vals = vec![(0u64, 1.0), (1, 2.0), (5, 3.0), (10, 4.0), (99, 5.0), (100, 6.0)];
        let g = log_bins(&vals, 10.0);
        let keys: Vec<Option<u32>> = g.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![None, Some(0), Some(1), Some(2)]);
        // Bin 0 holds degrees 1..9, bin 1 holds 10..99.
        assert_eq!(g[1].1, vec![2.0, 3.0]);
        assert_eq!(g[2].1, vec![4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "hi must exceed lo")]
    fn bad_range_panics() {
        Histogram::new(1.0, 1.0, 4);
    }
}
