//! The repository benchmark of the Dissenter study pipeline.
//!
//! Two workloads (see [`workload`]) run untraced for the end-to-end
//! metrics and traced (see [`traced`]) for the per-layer ones;
//! [`summary`] turns repetitions into the result `BENCHMARK.json`
//! describes. The `perfbench` binary drives them.

pub mod front;
pub mod hist;
pub mod procfs;
pub mod stats;
pub mod summary;
pub mod trace;
pub mod traced;
pub mod workload;
