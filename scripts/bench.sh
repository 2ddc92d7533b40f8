#!/usr/bin/env bash
# Run one bench suite and write its report to bench-results/<suite>.json.
# The report lists every gate the suite checked (passed, failed, or
# refused with a reason); the exit code is 1 if any gate failed and 2 on
# bad usage. README.md's "Benchmarks" section describes each suite.
#
# Usage: scripts/bench.sh <study|transport|recovery|abuse|sweep|scale> [flags]
#        (e.g. scripts/bench.sh scale --scale 0.1)
set -euo pipefail

case "${1:-}" in
    study | transport | recovery | abuse | sweep | scale) suite=$1 ;;
    *)
        echo "usage: scripts/bench.sh <study|transport|recovery|abuse|sweep|scale> [flags]" >&2
        exit 2
        ;;
esac
shift
cd "$(dirname "$0")/.."

# The transport soak holds 10k sockets in the server process and another
# 10k in a re-exec'd client subprocess.
if [ "$suite" = transport ]; then
    soft_limit="$(ulimit -n)"
    if [ "$soft_limit" != "unlimited" ] && [ "$soft_limit" -lt 16384 ]; then
        ulimit -n 16384 2>/dev/null || {
            echo "bench.sh: ulimit -n is $soft_limit; transport needs >=16384" >&2
            exit 1
        }
    fi
fi

exec cargo run --release -p bench --bin bench -- "$suite" "$@"
