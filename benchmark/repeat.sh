#!/usr/bin/env bash
# wirebench: how far do repeated runs of the same code agree?
#
#   benchmark/repeat.sh N [--seconds s] [--traces "0 1"]
#
# Runs every workload N times, run i with seed i, and prints per workload x
# metric the median, the quartiles (Python's statistics.quantiles(n=4)) and
# the relative spread (Q3 - Q1) / median. The bounds in BENCHMARK.json come
# from this table: at least three times the spread, never below 5 %.
# Result lines are kept under benchmark/out/repeat/.
set -euo pipefail

n=${1:?usage: benchmark/repeat.sh N [--seconds s] [--traces \"0 1\"]}
shift
seconds=()
traces="0 1"
while [[ $# -gt 0 ]]; do
    case $1 in
        --seconds) seconds=(--seconds "$2"); shift 2 ;;
        --traces) traces=$2; shift 2 ;;
        *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

out=benchmark/out/repeat
mkdir -p "$out"
rm -f "$out"/*.jsonl
for seed in $(seq 1 "$n"); do
    for workload in ingest_scan small_slide_groupby join_window wide_result_egress; do
        for trace in $traces; do
            echo "repeat.sh: seed $seed $workload trace $trace" >&2
            bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace "$trace" "${seconds[@]}" \
                | tail -n 1 >>"$out/$workload.$trace.jsonl"
        done
    done
done

python3 - "$out" <<'PY'
import json, pathlib, statistics, sys

print(f"{'workload':<20} {'metric':<28} {'n':>3} {'median':>16} {'q1':>16} {'q3':>16} {'spread':>8}  unit")
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.jsonl")):
    runs = [json.loads(line) for line in path.read_text().splitlines()]
    workload = path.name.split(".")[0]
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    if bad:
        print(f"{workload}: {len(bad)} of {len(runs)} runs incorrect or with failed windows")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{workload:<20} {name:<28} {len(values):>3} {median:>16.6f} {q1:>16.6f} {q3:>16.6f} {spread:>8.4f}  {unit}")
PY
