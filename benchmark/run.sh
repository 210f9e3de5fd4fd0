#!/usr/bin/env bash
# wirebench: build the benchmark package and run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one fresh process; the last line of standard output is
#       the result object the driver reads
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke]
#       every workload, untraced then traced, one fresh process each; exits
#       non-zero as soon as one of them fails or is invalid
#
# Run from the root of the checkout. Cargo's own output goes to standard error.
set -euo pipefail

manifest=benchmark/Cargo.toml
if [[ ! -f $manifest ]]; then
    echo "run.sh: run from the root of the checkout (no $manifest here)" >&2
    exit 2
fi

run() { cargo run --release --quiet --manifest-path "$manifest" -- "$@"; }

for arg in "$@"; do
    if [[ $arg == --workload ]]; then
        run "$@"
        exit
    fi
done

for workload in ingest_scan small_slide_groupby join_window wide_result_egress; do
    for trace in 0 1; do
        run --workload "$workload" --trace "$trace" "$@"
    done
done
