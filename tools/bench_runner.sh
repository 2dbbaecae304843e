#!/usr/bin/env bash
# Builds the RelWithDebInfo preset and runs the hot-path benchmark, writing
# BENCH_hotpath.json at the repo root (or to the positional output if given).
# BENCH_hotpath.json also carries a "forest" section: ns/row of
# pointer-tree forest descent vs the compiled SoA engine over a batch-size
# sweep, and an "observability" section with the span-log / series-ring
# overhead.
#
# After the run, bench_diff compares the fresh numbers against the committed
# BENCH_hotpath.json (saved before the bench overwrites it) and fails the
# script on any throughput regression beyond $BENCH_DIFF_THRESHOLD percent
# (default 30 — the reference numbers come from noisy shared machines). When
# no baseline is committed, bench_diff says how to record one and passes.
#
#   tools/bench_runner.sh [--forest-only|--serve-only] [--write-baseline] [output.json]
#
#   --forest-only     Run only the forest inference section (minutes faster:
#                     skips scoring/tick reference runs) and write it to
#                     BENCH_hotpath_forest.json; the diff still runs, against
#                     the forest section of the committed baseline.
#   --serve-only      Run only the open-loop placement-service section (skips
#                     the scoring/tick/forest sections; still trains profiles)
#                     and write it to BENCH_hotpath_serve.json; the diff runs
#                     against the serve section of the committed baseline.
#   --write-baseline  Full run that records BENCH_hotpath.json as the new
#                     baseline: skips the regression diff so the fresh
#                     numbers can be committed as-is.
set -euo pipefail
cd "$(dirname "$0")/.."

forest_only=0
serve_only=0
write_baseline=0
out_arg=""
for arg in "$@"; do
  case "${arg}" in
    --forest-only)    forest_only=1 ;;
    --serve-only)     serve_only=1 ;;
    --write-baseline) write_baseline=1 ;;
    -*) echo "usage: $0 [--forest-only|--serve-only] [--write-baseline] [output.json]" >&2
        exit 2 ;;
    *)  out_arg="${arg}" ;;
  esac
done

# Snapshot the committed baseline before the bench overwrites it in place.
reference=""
if [[ -f BENCH_hotpath.json ]]; then
  reference="$(mktemp /tmp/bench_ref.XXXXXX.json)"
  cp BENCH_hotpath.json "${reference}"
fi

cmake --preset relwithdebinfo
cmake --build --preset relwithdebinfo --target bench_hotpath bench_diff -j "$(nproc)"

if [[ "${forest_only}" == 1 ]]; then
  out="${out_arg:-$PWD/BENCH_hotpath_forest.json}"
  ./build/bench/bench_hotpath --forest-only "${out}"
elif [[ "${serve_only}" == 1 ]]; then
  out="${out_arg:-$PWD/BENCH_hotpath_serve.json}"
  ./build/bench/bench_hotpath --serve-only "${out}"
else
  out="${out_arg:-$PWD/BENCH_hotpath.json}"
  ./build/bench/bench_hotpath "${out}"
fi

if [[ "${write_baseline}" == 1 ]]; then
  rm -f "${reference}"
  echo
  echo "bench_runner: baseline written to ${out} (diff skipped); commit it to"
  echo "make it the reference for future runs."
  exit 0
fi

echo
echo "bench_diff vs committed baseline (threshold ${BENCH_DIFF_THRESHOLD:-30}%):"
# With no committed baseline the snapshot path never existed; hand bench_diff
# a clearly-named missing path so it prints its record-a-baseline hint
# (exit 0) instead of silently diffing the fresh file against itself.
./build/tools/bench_diff --threshold "${BENCH_DIFF_THRESHOLD:-30}" \
  "${reference:-BENCH_hotpath.json.committed-baseline}" "${out}"
rm -f "${reference}"
