#!/usr/bin/env bash
# Repeatability check: run the full set twice on the same tree and compare.
#
#   benchmark/check_repeat.sh [run.sh arguments, e.g. --seed 7 --seconds 8]
#
# Prints, per workload and end-to-end metric, both values, their ratio and the
# metric's bound from BENCHMARK.json; exits 1 if any pair disagrees by more
# than its bound (either way), or if a run failed. A metric that cannot pass
# this on a quiet machine does not get a wider bound: it moves to the
# per-layer list (README.md, "Bounds").
set -euo pipefail

cd "$(dirname "$0")/.."

for round in 1 2; do
    echo "check_repeat: round $round" >&2
    benchmark/run.sh "$@" >/dev/null
    rm -rf "target/benchmark/repeat-$round"
    mkdir -p "target/benchmark/repeat-$round"
    cp target/benchmark/result-*.json "target/benchmark/repeat-$round/"
done

python3 - <<'EOF'
import json, sys

bench = json.load(open("BENCHMARK.json"))
worst = 0
print(f"{'workload':<15} {'metric':<22} {'first':>14} {'second':>14} {'ratio':>8} {'bound':>6}")
for workload in bench["workloads"]:
    name = workload["name"]
    first, second = (
        json.load(open(f"target/benchmark/repeat-{r}/result-{name}.json")) for r in (1, 2)
    )
    for run in (first, second):
        if not run["correct"]:
            print(f"{name}: {run['failed']} of {run['attempted']} checks failed")
            worst = 1
    for metric in bench["end_to_end"]:
        a = first["metrics"][metric["name"]]["value"]
        b = second["metrics"][metric["name"]]["value"]
        ratio = b / a
        over = abs(ratio - 1) > metric["bound"]
        worst |= over
        print(
            f"{name:<15} {metric['name']:<22} {a:>14.6f} {b:>14.6f} {ratio:>8.4f} "
            f"{metric['bound'] * 100:>5.0f}%{'  DISAGREE' if over else ''}"
        )
sys.exit(worst)
EOF
