#!/bin/sh
# Performance regression gate: re-run the fig2 sample-sort sweep
# benchmark on both sync paths and fail if the epoch path's events/sec
# has dropped more than 20% below the committed baseline
# (benchmarks/BENCH_perf.json), or if the paths disagree on simulated
# timings.
#
# Usage: benchmarks/run_perf.sh [extra bench_perf.py args]
# (invoked by `make bench`)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

out=$(mktemp "${TMPDIR:-/tmp}/bench_perf.XXXXXX.json")
trap 'rm -f "$out"' EXIT

PYTHONPATH=src python benchmarks/bench_perf.py \
    --output "$out" \
    --check benchmarks/BENCH_perf.json \
    --tolerance 0.2 \
    "$@"
