//! Benchmark support: shared fixtures for the Criterion benches, the
//! `repro` harness binary that regenerates every table and figure, the
//! one [`report`] type and flag parser behind every `bench` suite, the
//! [`loadgen`] closed-loop load generator behind the `transport` suite,
//! and the [`abusegen`] hostile-load generator behind the `abuse` suite.

pub mod abusegen;
pub mod loadgen;
pub mod report;

use dissenter_core::{run_study, Study};
use std::sync::OnceLock;
use synth::config::Scale;

/// A small cached study shared by benches (world generation and the crawl
/// dominate setup time; benches measure the analysis stages on top).
pub fn bench_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        let cfg = Study::builder()
            .scale(Scale::Custom(0.004))
            .svm_corpus(1_000)
            .build()
            .expect("bench fixture config is valid");
        run_study(&cfg)
    })
}

/// Parse a `--scale` argument value into a [`Scale`].
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        "paper" => Ok(Scale::Paper),
        other => other
            .parse::<f64>()
            .map(Scale::Custom)
            .map_err(|_| format!("invalid scale {other:?} (use small|medium|paper|<float>)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("paper").unwrap().factor(), 1.0);
        assert!(matches!(parse_scale("0.01"), Ok(Scale::Custom(_))));
        assert!(parse_scale("bogus").is_err());
    }
}
