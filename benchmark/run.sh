#!/usr/bin/env bash
# Build the benchmark offline and run it.
#
#   run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--bless]
#
# Without --workload all four run, one process each. The last line of each
# process's output is its result as one JSON object; out/results.json collects
# them. --repeat N runs the whole set N times and compares the first two sets
# (README.md, "Self-check"). --bless rewrites expected/*.seed42.txt.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

workloads="pr-twitter traverse-wrn matrix-small ingest"
seed=42 seconds=20 trace=0 repeat=1 bless=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        --bless) bless=(--bless); shift ;;
        --trace) trace="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p "$here/out"
if ! bin="$("$here/build.sh" 2> "$here/out/build.log")"; then
    cat "$here/out/build.log" >&2
    exit 2
fi

results=()
for set in $(seq 1 "$repeat"); do
    : > "$here/out/set$set.txt"
    for w in $workloads; do
        "$bin" --dir "$here" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            "${bless[@]}" | tee "$here/out/last.txt"
        grep -v '^[#{]' "$here/out/last.txt" >> "$here/out/set$set.txt"
        results+=("$(tail -n 1 "$here/out/last.txt")")
    done
done

{
    echo "["
    for i in "${!results[@]}"; do
        [ "$i" -eq 0 ] || echo ","
        printf '  %s' "${results[$i]}"
    done
    printf '\n]\n'
} > "$here/out/results.json"

if [ "$repeat" -ge 2 ]; then
    "$bin" --compare "$here/../BENCHMARK.json" "$here/out/set1.txt" "$here/out/set2.txt"
fi
