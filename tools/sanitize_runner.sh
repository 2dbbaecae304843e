#!/usr/bin/env bash
# Builds the sanitizer presets and runs the `concurrency`- and
# `observability`-labeled ctest subsets under each — the shard-crew barrier
# and open ParallelFor rounds, simulator lane invariance, concurrent-scheduler
# invariance, interference-table fill, host-baseline stress, and metrics-registry
# tests that guard the coordinator's shard lanes, the simulator tick's crew
# and the lane-sharded metric shards.
#
#   tools/sanitize_runner.sh [tsan|asan-ubsan|all]   (default: all)
#
# Only the test targets carrying the `concurrency` label (plus their library
# deps) are built, which keeps a sanitizer pass to a few minutes. See
# DESIGN.md §8 for what each sanitizer is expected to catch.
set -euo pipefail
cd "$(dirname "$0")/.."

CONCURRENCY_TARGETS=(concurrency_test cache_property_test interference_table_test
                     sample_hosts_test perf_equivalence_test sim_property_test obs_test
                     span_timeseries_test compiled_forest_test
                     serve_test serve_pipeline_test
                     latency_percentile_test pressure_slo_test profiler_test
                     shard_crew_test)

# Guard: every test registered in tests/CMakeLists.txt with a concurrency or
# observability label must be in CONCURRENCY_TARGETS, or the sanitizer pass
# would silently skip building (and therefore running) it. Fail loudly with
# the missing names instead.
check_label_coverage() {
  local missing=()
  local labeled
  labeled="$(sed -n \
    's/^optum_add_test(\([a-z0-9_]*\) LABELS \(concurrency\|observability\)).*/\1/p' \
    tests/CMakeLists.txt)"
  for test in ${labeled}; do
    local found=0
    for target in "${CONCURRENCY_TARGETS[@]}"; do
      [[ "${test}" == "${target}" ]] && found=1 && break
    done
    [[ "${found}" == 0 ]] && missing+=("${test}")
  done
  if [[ "${#missing[@]}" -gt 0 ]]; then
    echo "sanitize_runner: tests labeled concurrency/observability but missing" >&2
    echo "from CONCURRENCY_TARGETS (they would never run under sanitizers):" >&2
    printf '  %s\n' "${missing[@]}" >&2
    exit 1
  fi
}
check_label_coverage

run_preset() {
  local preset="$1"
  echo "=== [${preset}] configure + build concurrency test targets ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)" \
    $(printf -- '--target %s ' "${CONCURRENCY_TARGETS[@]}")
  echo "=== [${preset}] ctest -L 'concurrency|observability' ==="
  ctest --preset "${preset}" -j "$(nproc)"
}

mode="${1:-all}"
case "${mode}" in
  tsan)       run_preset tsan ;;
  asan-ubsan) run_preset asan-ubsan ;;
  all)        run_preset tsan; run_preset asan-ubsan ;;
  *) echo "usage: $0 [tsan|asan-ubsan|all]" >&2; exit 2 ;;
esac
echo "sanitize_runner: all requested sanitizer passes clean"
