#!/usr/bin/env bash
# Builds the RelWithDebInfo preset, runs bench/bench_hotpath (the forest
# kernel and per-sink observability microbenchmarks, on google-benchmark) and
# gates the result with tools/bench_diff against the committed
# BENCH_hotpath.json: a regression beyond $BENCH_DIFF_THRESHOLD percent
# (default 10) and beyond the two runs' MAD spread, a sink over its budget
# (kBudgets in tools/bench_diff.cc), a failed benchmark or a benchmark
# missing from the baseline fails the script. With no committed baseline, bench_diff says how to record one
# and passes. End-to-end serving and simulator numbers come from perfbench
# (python3 perfbench/run.py), not from here.
#
#   tools/bench_runner.sh [--write-baseline] [output.json] [--benchmark_* ...]
#
#   output.json       Where the run's JSON goes (default build/bench_hotpath.json).
#   --write-baseline  Records BENCH_hotpath.json (or output.json) and skips the
#                     diff, so the fresh numbers can be committed as they are.
#   --benchmark_*     Passed on to bench_hotpath after the defaults below, so
#                     they override them; e.g. --benchmark_filter=Forest runs
#                     only the forest kernels and skips profile training.
#
# Defaults: 10 repetitions, randomly interleaved across benchmarks, so a
# slow spell on a shared box lands on every configuration alike; bench_diff
# reads their median and MAD of thread CPU time. The console shows only the
# aggregates; the JSON keeps every repetition.
set -euo pipefail
cd "$(dirname "$0")/.."

write_baseline=0
out=""
bench_args=()
for arg in "$@"; do
  case "${arg}" in
    --write-baseline) write_baseline=1 ;;
    --benchmark_*)    bench_args+=("${arg}") ;;
    -*) echo "usage: $0 [--write-baseline] [output.json] [--benchmark_* ...]" >&2
        exit 2 ;;
    *)  out="${arg}" ;;
  esac
done
if [[ -z "${out}" ]]; then
  out="$PWD/build/bench_hotpath.json"
  [[ "${write_baseline}" == 1 ]] && out="$PWD/BENCH_hotpath.json"
fi

cmake --preset relwithdebinfo
cmake --build --preset relwithdebinfo --target bench_hotpath bench_diff -j "$(nproc)"

./build/bench/bench_hotpath --benchmark_repetitions=10 \
  --benchmark_enable_random_interleaving=true --benchmark_display_aggregates_only=true \
  --benchmark_out="${out}" --benchmark_out_format=json ${bench_args[@]+"${bench_args[@]}"}

if [[ "${write_baseline}" == 1 ]]; then
  echo
  echo "bench_runner: baseline written to ${out} (diff skipped); commit it to"
  echo "make it the reference for future runs."
  exit 0
fi

echo
echo "bench_diff vs committed baseline (threshold ${BENCH_DIFF_THRESHOLD:-10}%):"
./build/tools/bench_diff --threshold "${BENCH_DIFF_THRESHOLD:-10}" BENCH_hotpath.json "${out}"
