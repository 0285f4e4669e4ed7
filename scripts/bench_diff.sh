#!/usr/bin/env sh
# Exact gate over two BENCH_*.json reports (see `lane_scaling --json` /
# shef_bench::write_bench_json). The reports are line-oriented on
# purpose: one record per line, so plain awk can join them and CI needs
# no JSON tooling.
#
#   scripts/bench_diff.sh BASELINE.json CURRENT.json
#
# Prints a side-by-side table and exits 1 if any workload's modelled
# shield cycles differ from the baseline in either direction, if a
# baseline workload is missing from the current report, or if the
# current report has a workload the baseline lacks. The numbers are
# deterministic cost-model output, so any delta is a real model change:
# land it with a regenerated bench/baseline.json.
set -eu

usage() {
    echo "usage: $0 BASELINE.json CURRENT.json" >&2
    exit 2
}

[ $# -eq 2 ] || usage
base=$1
cur=$2

for f in "$base" "$cur"; do
    [ -f "$f" ] || { echo "bench_diff: $f does not exist" >&2; exit 2; }
    [ -r "$f" ] || { echo "bench_diff: cannot read $f" >&2; exit 2; }
    [ -s "$f" ] || { echo "bench_diff: $f is empty" >&2; exit 2; }
    # Every record line must be a complete one-line JSON object carrying
    # the fields the join below keys on; a truncated upload or a schema
    # drift must fail the gate loudly, not silently diff zero records.
    awk '
        /"workload"/ {
            records++
            # One complete object per line; a trailing comma is fine
            # (the report wraps the records in a JSON array).
            if ($0 !~ /^[[:space:]]*\{.*\},?[[:space:]]*$/ \
                || $0 !~ /"profile"/ || $0 !~ /"lanes"/ \
                || $0 !~ /"shield_cycles"/) {
                printf "bench_diff: malformed record line %d in %s: %s\n", NR, FILENAME, $0 > "/dev/stderr"
                bad = 1
            }
        }
        END {
            if (records == 0) {
                printf "bench_diff: no bench records in %s (not a lane_scaling --json report?)\n", FILENAME > "/dev/stderr"
                exit 2
            }
            exit bad ? 2 : 0
        }
    ' "$f" || exit 2
done

awk -v basefile="$base" '
function field(line, name,    rest) {
    rest = line
    sub(".*\"" name "\": *", "", rest)
    sub("[,}].*", "", rest)
    gsub("\"", "", rest)
    return rest
}
FNR == 1 { filenum++ }
/"workload"/ {
    key = field($0, "workload") "/" field($0, "profile") "/l" field($0, "lanes")
    if (filenum == 1) {
        if (!(key in base_cyc)) order[++n] = key
        base_cyc[key] = field($0, "shield_cycles")
    } else {
        if (!(key in cur_cyc)) cur_order[++m] = key
        cur_cyc[key] = field($0, "shield_cycles")
    }
}
END {
    printf "%-38s %14s %14s %10s\n", "workload/profile/lanes", "baseline", "current", "delta"
    fail = 0
    for (i = 1; i <= n; i++) {
        key = order[i]
        b = base_cyc[key] + 0
        if (!(key in cur_cyc)) {
            printf "%-38s %14d %14s %10s\n", key, b, "MISSING", "FAIL"
            fail = 1
            continue
        }
        c = cur_cyc[key] + 0
        mark = ""
        if (c != b) { mark = "  << CHANGED"; fail = 1 }
        printf "%-38s %14d %14d %+10d%s\n", key, b, c, c - b, mark
    }
    for (j = 1; j <= m; j++) {
        key = cur_order[j]
        if (!(key in base_cyc)) {
            printf "%-38s %14s %14d %10s\n", key, "(new)", cur_cyc[key] + 0, "FAIL"
            fail = 1
        }
    }
    if (fail) {
        printf "\nbench gate FAILED: modelled shield cycles differ from %s\n", basefile
        printf "(if the model change is intended, regenerate the baseline:\n"
        printf "  cargo run --release -p shef-bench --bin lane_scaling -- --lanes 1,2,4,8 --json BENCH_lanes.json\n"
        printf "  cargo run --release -p shef-bench --bin tenant_scaling -- --tenants 1,2,4 --json BENCH_service.json\n"
        printf "  cat BENCH_lanes.json BENCH_service.json > bench/baseline.json)\n"
        exit 1
    }
}
' "$base" "$cur"
