//! Peak-RSS accounting and the study memory budget.
//!
//! The paper-scale path promises `run_study` completes under a fixed
//! peak-RSS ceiling (the `scale` bench suite's 4 GiB gate).
//! [`MemoryBudget`] makes that promise enforceable in-process: the
//! pipeline calls [`MemoryBudget::check`] at stage boundaries (and inside
//! the synth stream), which reads the kernel's high-water mark and aborts
//! the run with a diagnostic the moment the ceiling is crossed — a budget
//! violation fails loudly at the stage that caused it instead of
//! surfacing as an OOM kill or a silently fat bench artifact.
//!
//! Measurement is `VmHWM` from `/proc/self/status`: the process-wide
//! peak resident set, maintained by the kernel with no sampling race.
//! On platforms without procfs the probe returns `None` and budgets
//! degrade to no-ops (recorded as 0, never a false failure).

/// Peak resident-set size of this process in bytes (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// An optional ceiling on the study's peak resident set.
///
/// `unlimited()` never fails a check; `bytes`/`gib` ceilings panic at
/// the first [`check`](Self::check) whose measured peak exceeds them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryBudget {
    ceiling: Option<u64>,
}

impl MemoryBudget {
    /// No ceiling: checks only report the running peak.
    pub const fn unlimited() -> Self {
        Self { ceiling: None }
    }

    /// A hard ceiling in bytes.
    pub const fn bytes(n: u64) -> Self {
        Self { ceiling: Some(n) }
    }

    /// A hard ceiling in GiB.
    pub fn gib(g: f64) -> Self {
        assert!(g.is_finite() && g > 0.0, "memory budget must be positive, got {g}");
        Self { ceiling: Some((g * (1u64 << 30) as f64) as u64) }
    }

    /// The configured ceiling, if any.
    pub fn ceiling_bytes(&self) -> Option<u64> {
        self.ceiling
    }

    /// Read the current peak RSS and enforce the ceiling.
    ///
    /// Returns the measured peak in bytes (0 where unmeasurable).
    /// Panics — naming `stage` — if a ceiling is set and exceeded.
    pub fn check(&self, stage: &str) -> u64 {
        let peak = peak_rss_bytes().unwrap_or(0);
        if let Some(ceiling) = self.ceiling {
            assert!(
                peak <= ceiling,
                "memory budget exceeded at stage `{stage}`: peak RSS {peak} bytes \
                 ({:.2} GiB) > ceiling {ceiling} bytes ({:.2} GiB)",
                peak as f64 / (1u64 << 30) as f64,
                ceiling as f64 / (1u64 << 30) as f64,
            );
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_measurable_here() {
        // The study pipeline runs on Linux runners; the probe must work
        // there or the bench's ceiling is vacuous.
        let peak = peak_rss_bytes().expect("VmHWM readable on Linux");
        assert!(peak > 1024 * 1024, "running process uses more than 1 MiB: {peak}");
    }

    #[test]
    fn unlimited_budget_reports_without_failing() {
        let peak = MemoryBudget::unlimited().check("test");
        assert!(peak > 0);
    }

    #[test]
    fn generous_ceiling_passes() {
        let b = MemoryBudget::gib(1024.0);
        assert!(b.check("test") > 0);
        assert_eq!(b.ceiling_bytes(), Some(1024 * (1u64 << 30)));
    }

    #[test]
    #[should_panic(expected = "memory budget exceeded at stage `tiny`")]
    fn tiny_ceiling_fails() {
        MemoryBudget::bytes(4096).check("tiny");
    }
}
