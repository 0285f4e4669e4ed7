#!/usr/bin/env sh
# Self-check of the exact modelled-cycle gate (scripts/bench_diff.sh):
# a report diffed against itself must pass, and a copy with the first
# record's shield cycles moved by +1 or -1 must fail with exit 1.
#
#   scripts/bench_diff_selfcheck.sh [BASELINE.json]
set -eu

base=${1:-bench/baseline.json}
dir=$(dirname "$0")
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

"$dir/bench_diff.sh" "$base" "$base" > /dev/null

for delta in 1 -1; do
    awk -v d="$delta" '
        !done && /"shield_cycles"/ {
            match($0, /"shield_cycles": *[0-9]+/)
            old = substr($0, RSTART, RLENGTH)
            n = old
            sub(/.*: */, "", n)
            $0 = substr($0, 1, RSTART - 1) "\"shield_cycles\": " (n + d) substr($0, RSTART + RLENGTH)
            done = 1
        }
        { print }
    ' "$base" > "$tmp"
    status=0
    "$dir/bench_diff.sh" "$base" "$tmp" > /dev/null || status=$?
    if [ "$status" -ne 1 ]; then
        echo "bench_diff self-check FAILED: a ${delta}-cycle change exited $status, not 1" >&2
        exit 1
    fi
done
echo "bench_diff self-check passed"
