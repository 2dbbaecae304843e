// Shared pieces of the simulator lane-invariance tests: a workload that
// drives the simulator into OOM kills and LSR preemptions, and exact,
// field-by-field equality of two SimResults — every TraceBundle table
// (nodes, pods, node_usage, pod_usage, lifecycles), the wait samples, the
// utilization series and the counters. Doubles compare with ==, so any
// drift in summation order or in a per-pod draw shows up as a mismatch.
// RowsEqual and HashRows take any sized, indexable table, so the same
// comparison covers the std::vector tables and pod_usage's ChunkedRows.
// SimResultDigest folds the same fields into one FNV-1a hash, so a golden
// recorded from one implementation of the tick pins every later one.
#ifndef OPTUM_TESTS_SIM_TEST_UTIL_H_
#define OPTUM_TESTS_SIM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"
#include "tests/golden_digest.h"

namespace optum::testing_sim {

// 64 hosts for two hours of memory-heavy apps (requests scaled 1.6x) under
// a BE load of twice the cluster's CPU. A scheduler that over-commits
// memory (e.g. AlibabaBaseline with mem_guard 1.4, or Optum with
// mem_util_limit 1.01) then OOM-kills and preempts on the serial path
// between the tick's crew rounds.
inline Workload OvercommitWorkload() {
  WorkloadConfig config;
  config.num_hosts = 64;
  config.horizon = 2 * kTicksPerHour;
  config.be_target_request_load = 2.0;
  config.mem_request_scale = 1.6;
  config.seed = 17;
  return WorkloadGenerator(config).Generate();
}

inline auto Fields(const NodeMeta& r) { return std::tie(r.machine_id, r.capacity); }
inline auto Fields(const PodMeta& r) {
  return std::tie(r.pod_id, r.app_id, r.slo, r.request, r.limit, r.submit_tick,
                  r.original_machine_id);
}
inline auto Fields(const NodeUsageRecord& r) {
  return std::tie(r.machine_id, r.collect_tick, r.cpu_usage, r.mem_usage, r.disk_usage,
                  r.net_usage);
}
inline auto Fields(const PodUsageRecord& r) {
  return std::tie(r.pod_id, r.host, r.collect_tick, r.cpu_usage, r.mem_usage,
                  r.disk_usage, r.cpu_psi_10, r.cpu_psi_60, r.cpu_psi_300,
                  r.mem_psi_some_60, r.mem_psi_full_60, r.qps, r.response_time);
}
inline auto Fields(const PodLifecycleRecord& r) {
  return std::tie(r.pod_id, r.app_id, r.slo, r.submit_tick, r.schedule_tick,
                  r.finish_tick, r.host, r.waiting_seconds, r.ideal_completion_ticks,
                  r.actual_completion_ticks, r.max_cpu_psi);
}
inline auto Fields(const WaitSample& r) {
  return std::tie(r.pod, r.slo, r.request, r.reason, r.waited_seconds);
}
inline auto Fields(const UtilSample& r) {
  return std::tie(r.tick, r.avg_cpu_nonidle, r.avg_mem_nonidle, r.max_cpu,
                  r.frac_hosts_nonidle);
}

// Keeps the first ClusterState::CheckInvariants() failure of a run in
// `*first`, prefixed with its tick; call it from SimConfig::on_tick_end.
inline void KeepFirstInvariantError(const ClusterState& cluster, Tick now,
                                    std::string* first) {
  if (!first->empty()) {
    return;
  }
  const std::string error = cluster.CheckInvariants();
  if (!error.empty()) {
    *first = "tick " + std::to_string(now) + ": " + error;
  }
}

// A table of rows: a std::vector, or the ChunkedRows that holds pod_usage.
template <typename Rows>
concept SizedIndexable = requires(const Rows& rows, size_t i) {
  { rows.size() } -> std::convertible_to<size_t>;
  rows[i];
};

// Reports the first differing row (or the size mismatch) of one table.
template <SizedIndexable Rows>
::testing::AssertionResult RowsEqual(const char* table, const Rows& a, const Rows& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << table << ": " << a.size() << " rows vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (Fields(a[i]) != Fields(b[i])) {
      return ::testing::AssertionFailure() << table << ": row " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

inline void ExpectIdenticalSimResults(const SimResult& a, const SimResult& b) {
  EXPECT_TRUE(RowsEqual("trace.nodes", a.trace.nodes, b.trace.nodes));
  EXPECT_TRUE(RowsEqual("trace.pods", a.trace.pods, b.trace.pods));
  EXPECT_TRUE(RowsEqual("trace.node_usage", a.trace.node_usage, b.trace.node_usage));
  EXPECT_TRUE(RowsEqual("trace.pod_usage", a.trace.pod_usage, b.trace.pod_usage));
  EXPECT_TRUE(RowsEqual("trace.lifecycles", a.trace.lifecycles, b.trace.lifecycles));
  EXPECT_TRUE(RowsEqual("waits", a.waits, b.waits));
  EXPECT_TRUE(RowsEqual("util_series", a.util_series, b.util_series));
  EXPECT_EQ(a.oom_kills, b.oom_kills);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.scheduled_pods, b.scheduled_pods);
  EXPECT_EQ(a.never_scheduled_pods, b.never_scheduled_pods);
  EXPECT_EQ(a.violation_host_ticks, b.violation_host_ticks);
  EXPECT_EQ(a.nonidle_host_ticks, b.nonidle_host_ticks);
}

inline void HashField(uint64_t& h, double v) { testing_golden::HashDouble(h, v); }
inline void HashField(uint64_t& h, const Resources& r) {
  testing_golden::HashDouble(h, r.cpu);
  testing_golden::HashDouble(h, r.mem);
}
template <typename T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
void HashField(uint64_t& h, T v) {
  testing_golden::HashWord(h, static_cast<uint64_t>(static_cast<int64_t>(v)));
}

// Folds the row count, then every Fields() member of every row, in order.
template <SizedIndexable Rows>
void HashRows(uint64_t& h, const Rows& rows) {
  testing_golden::HashWord(h, rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::apply([&h](const auto&... field) { (HashField(h, field), ...); }, Fields(rows[i]));
  }
}

// Every field ExpectIdenticalSimResults compares, in the same order.
inline uint64_t SimResultDigest(const SimResult& r) {
  uint64_t h = testing_golden::kFnvOffset;
  HashRows(h, r.trace.nodes);
  HashRows(h, r.trace.pods);
  HashRows(h, r.trace.node_usage);
  HashRows(h, r.trace.pod_usage);
  HashRows(h, r.trace.lifecycles);
  HashRows(h, r.waits);
  HashRows(h, r.util_series);
  for (const int64_t counter : {r.oom_kills, r.preemptions, r.scheduled_pods,
                                r.never_scheduled_pods, r.violation_host_ticks,
                                r.nonidle_host_ticks}) {
    HashField(h, counter);
  }
  return h;
}

}  // namespace optum::testing_sim

#endif  // OPTUM_TESTS_SIM_TEST_UTIL_H_
