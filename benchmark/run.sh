#!/usr/bin/env bash
# The front door of the GraphZ benchmark (README.md has the design).
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--reps N]
#                    [--trace 0|1 | --traced]
#
# Builds the benchmark package (offline, release), then runs each workload in
# a process of its own: the one named by --workload, or all six. Every run
# checks its outputs against an oracle, prints each metric by name with unit,
# value, min .. max and sample count, and ends with the one-line JSON result
# BENCHMARK.json describes. Result, trace and scratch files go to
# target/benchmark/ under the checkout. Exit code: 0 all correct, 1 an output
# disagreed with its oracle, 2 the benchmark could not run (build failure,
# wrong regime, bad arguments).
#
# Scale rule for a time cap. One untraced run costs 3 set-ups + --seconds of
# operations + the oracle, about 11-21 s per workload with the default
# --seconds 10. If a driver's cap is tighter, lower --seconds first: the
# operation still repeats at least 3 times (MIN_OPS in src/main.rs), never
# fewer. Only then shrink a graph (MAIN_GRAPH / PIPELINE_GRAPH in
# src/workloads.rs) by lowering its edge count, not its scale: scale 19 is
# what keeps pagerank-ooc at 8 partitions under --budget-mib 1, and a run
# with fewer refuses to report (exit 2).
set -euo pipefail

cd "$(dirname "$0")/.."

workload=""
passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload)
            [ $# -ge 2 ] || { echo "run.sh: --workload expects a name" >&2; exit 2; }
            workload="$2"
            shift 2
            ;;
        *)
            passthrough+=("$1")
            shift
            ;;
    esac
done

# Regime guard: the scratch files (text, image, spill, checkpoints) must land
# on a disk with room, or the run measures ENOSPC handling instead.
mkdir -p target/benchmark
free_kib=$(df -Pk target/benchmark | awk 'NR == 2 { print $4 }')
if [ "${free_kib:-0}" -lt $((2 * 1024 * 1024)) ]; then
    echo "run.sh: target/benchmark has ${free_kib:-0} KiB free, need 2 GiB" >&2
    exit 2
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2 || exit 2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/graphz-benchmark"

# Recorded in every result file; a driver's checkout is not a git repository.
GRAPHZ_BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
GRAPHZ_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
export GRAPHZ_BENCH_COMMIT GRAPHZ_BENCH_RUSTC

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" ${passthrough[@]+"${passthrough[@]}"}
fi

status=0
for w in ingest-text pagerank-ooc pagerank-fit traversal-ooc serve-mixed pipeline-cold; do
    "$bin" --workload "$w" ${passthrough[@]+"${passthrough[@]}"} || {
        code=$?
        [ "$code" -gt "$status" ] && status=$code
    }
    echo
done
exit "$status"
