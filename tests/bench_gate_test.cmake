# Runs tools/bench_diff on OLD and NEW and fails unless it exits EXPECT and,
# when MATCH is set, prints something matching that regex.
#
# With BENCH_HOTPATH set, first runs bench/bench_hotpath at one repetition and
# minimal time into NEW: the tier-1 smoke of the perf surface (a forest
# checksum mismatch is an error_occurred entry, which bench_diff fails).
#
#   cmake -DBENCH_DIFF=... -DOLD=... -DNEW=... -DEXPECT=0 [-DMATCH=regex]
#         [-DBENCH_HOTPATH=...] -P bench_gate_test.cmake
if(DEFINED BENCH_HOTPATH)
  execute_process(
    COMMAND ${BENCH_HOTPATH} --benchmark_repetitions=1 --benchmark_min_time=0.001
            --benchmark_out=${NEW} --benchmark_out_format=json
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_hotpath exited ${status}:\n${out}${err}")
  endif()
endif()
execute_process(COMMAND ${BENCH_DIFF} ${OLD} ${NEW}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status EQUAL EXPECT)
  message(FATAL_ERROR "bench_diff exited ${status}, expected ${EXPECT}")
endif()
if(DEFINED MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "bench_diff output does not match \"${MATCH}\"")
endif()
