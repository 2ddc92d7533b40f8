#!/usr/bin/env bash
# Chaos suite: run the full §3 crawl through every injected fault class
# (alone and combined) and check the recovered mirror is byte-identical
# to a fault-free crawl, then exercise the degraded-coverage paths
# (tiny retry budget, open circuit breakers, replay determinism).
#
# Usage: scripts/chaos.sh [extra cargo-test args]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== resilience unit tests (fault injector, retry policy, breaker) =="
# `cargo test` takes one test-name filter per run.
cargo test --release -p httpnet fault:: "$@"
cargo test --release -p httpnet retry:: "$@"
cargo test --release -p crawler --lib resilience:: "$@"

echo "== cross-crate chaos suite (full crawl x fault matrix) =="
cargo test --release -p crawler --test chaos "$@"
