#!/usr/bin/env bash
# Paired benchmark runs: the exact BENCHMARK.json command on a parent
# commit and on the working tree, one pair per seed, alternating which
# side runs first. Prints every pair's end-to-end metrics, each side's
# median and quartiles, and how many pairs the change won per metric.
#
# Usage: scripts/bench_pairs.sh <parent-rev> <workload> <seed>...
#        (e.g. scripts/bench_pairs.sh HEAD~1 oneshot 9401 9402 9403)
#
# The parent is checked out as a detached `git worktree` under
# target/bench-pairs/ and built there; set PARENT_DIR to use an existing
# checkout of the parent instead. Each side builds and runs perfbench
# from its own checkout. The script reads BENCHMARK.json and perfbench/
# and changes neither. Raw per-run output goes to
# target/bench-pairs/<workload>-<seed>-<side>.log. A pair whose run
# fails or reports "correct": false stops the script with exit 1; bad
# usage exits 2.
set -euo pipefail

usage() {
    echo "usage: scripts/bench_pairs.sh <parent-rev> <workload> <seed>..." >&2
    exit 2
}

[ $# -ge 3 ] || usage
parent_rev=$1
workload=$2
shift 2
for seed in "$@"; do
    [[ "$seed" =~ ^[0-9]+$ ]] || usage
done
cd "$(dirname "$0")/.."
change_dir=$PWD
workloads=$(awk '
    /"workloads"/ { on = 1 }
    /"end_to_end"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); print $2 }
' BENCHMARK.json)
grep -qx "$workload" <<<"$workloads" || usage
# Resolved once, here: inside the parent worktree HEAD~1 would mean
# something else.
parent_rev=$(git rev-parse --verify --quiet "$parent_rev^{commit}") || usage

# BENCHMARK.json: run length and the end-to-end metrics with their
# directions, as "name better" lines.
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' BENCHMARK.json)

out=target/bench-pairs
mkdir -p "$out"
parent_dir=${PARENT_DIR:-$out/parent}
if [ -z "${PARENT_DIR:-}" ]; then
    if [ -d "$parent_dir" ]; then
        # Only reuse a directory that is itself a checkout; otherwise git
        # would find the enclosing repository and detach its HEAD.
        top=$(git -C "$parent_dir" rev-parse --show-toplevel 2>/dev/null || true)
        if [ "$top" != "$(cd "$parent_dir" && pwd -P)" ]; then
            echo "bench_pairs.sh: $parent_dir is not a git worktree; remove it" >&2
            exit 1
        fi
        git -C "$parent_dir" checkout --quiet --detach "$parent_rev"
    else
        git worktree add --quiet --detach "$parent_dir" "$parent_rev"
    fi
fi
parent_dir=$(cd "$parent_dir" && pwd)
echo "parent: $(git -C "$parent_dir" rev-parse HEAD) in $parent_dir"

# Each checkout builds into its own perfbench/target.
unset CARGO_TARGET_DIR
for dir in "$parent_dir" "$change_dir"; do
    (cd "$dir" && cargo build --release --quiet --manifest-path perfbench/Cargo.toml)
done

# run <side> <dir> <seed>: one BENCHMARK.json command; prints its
# result line (the last line of its output).
run() {
    local log="$out/$workload-$3-$1.log"
    (cd "$2" && cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$3" --seconds "$seconds") >"$log" 2>&1 || {
        echo "bench_pairs.sh: $1 run failed for seed $3 (see $log)" >&2
        exit 1
    }
    local result
    result=$(tail -n 1 "$log")
    case "$result" in
        *'"correct":true'*) echo "$result" ;;
        *)
            echo "bench_pairs.sh: $1 run for seed $3 is not correct (see $log)" >&2
            exit 1
            ;;
    esac
}

# value <result-line> <metric>
value() {
    sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p" <<<"$1"
}

rows=""
pair=0
for seed in "$@"; do
    if [ $((pair % 2)) -eq 0 ]; then
        p=$(run parent "$parent_dir" "$seed")
        c=$(run change "$change_dir" "$seed")
        first=parent
    else
        c=$(run change "$change_dir" "$seed")
        p=$(run parent "$parent_dir" "$seed")
        first=change
    fi
    pair=$((pair + 1))
    echo "pair $pair: seed $seed, $first ran first"
    while read -r name better; do
        pv=$(value "$p" "$name")
        cv=$(value "$c" "$name")
        printf '  %-16s parent %14s  change %14s\n' "$name" "$pv" "$cv"
        rows+="$name $better $pv $cv"$'\n'
    done <<<"$metrics"
done

# Per metric: medians and quartiles (Python's statistics.quantiles with
# n=4, the perfbench convention), the change's wins, and whether the
# change's median is better than the parent's by more than the parent's
# interquartile range.
echo
printf '%-16s %-36s %-36s %6s  %s\n' metric "parent median [q1, q3]" \
    "change median [q1, q3]" wins "gap > parent IQR"
while read -r name better; do
    awk -v name="$name" -v better="$better" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function median(a, n) {
            return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        }
        # statistics.quantiles(a, n=4)[i - 1], exclusive method.
        function quartile(a, n, i,    m, j, d) {
            if (n < 2) return a[1]
            m = n + 1
            j = int(i * m / 4)
            if (j < 1) j = 1
            if (j > n - 1) j = n - 1
            d = i * m - j * 4
            return (a[j] * (4 - d) + a[j + 1] * d) / 4
        }
        $1 == name {
            n++
            p[n] = $3
            c[n] = $4
            if ((better == "lower" && $4 < $3) || (better == "higher" && $4 > $3)) wins++
        }
        END {
            sort(p, n)
            sort(c, n)
            pm = median(p, n)
            cm = median(c, n)
            iqr = quartile(p, n, 3) - quartile(p, n, 1)
            gap = better == "lower" ? pm - cm : cm - pm
            printf "%-16s %-36s %-36s %3d/%-2d  %s\n", name,
                sprintf("%.6g [%.6g, %.6g]", pm, quartile(p, n, 1), quartile(p, n, 3)),
                sprintf("%.6g [%.6g, %.6g]", cm, quartile(c, n, 1), quartile(c, n, 3)),
                wins, n, (gap > iqr ? "yes" : "no")
        }
    ' <<<"$rows"
done <<<"$metrics"
