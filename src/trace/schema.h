// Trace record schema mirroring the information content of the Alibaba
// unified-scheduling trace (paper Fig. 2a): node basic/running information
// and pod basic/running information, including PSI columns. The simulator
// emits these records and the profilers/benches consume them, so loading a
// real trace CSV is a drop-in replacement for the synthetic generator.
#ifndef OPTUM_SRC_TRACE_SCHEMA_H_
#define OPTUM_SRC_TRACE_SCHEMA_H_

#include <vector>

#include "src/common/types.h"
#include "src/trace/chunked_rows.h"

namespace optum {

// -- Node basic information ------------------------------------------------
struct NodeMeta {
  HostId machine_id = kInvalidHostId;
  Resources capacity = kUnitResources;  // normalized CPU/mem capacity
  bool operator==(const NodeMeta&) const = default;
};

// -- Node running information (sampled every 30 s) ---------------------------
struct NodeUsageRecord {
  HostId machine_id = kInvalidHostId;
  Tick collect_tick = 0;
  double cpu_usage = 0.0;  // fraction of capacity
  double mem_usage = 0.0;
  double disk_usage = 0.0;
  double net_usage = 0.0;
  bool operator==(const NodeUsageRecord&) const = default;
};

// -- Pod basic information ---------------------------------------------------
struct PodMeta {
  PodId pod_id = kInvalidPodId;
  AppId app_id = kInvalidAppId;  // in [0, kAppIdLimit) once read
  SloClass slo = SloClass::kUnknown;
  Resources request;            // resources the pod asks to run
  Resources limit;              // maximum the pod may use
  Tick submit_tick = 0;
  HostId original_machine_id = kInvalidHostId;  // host at first scheduling
  bool operator==(const PodMeta&) const = default;
};

// -- Pod running information (30 s OS-level, 1 min app-level) ----------------
struct PodUsageRecord {
  PodId pod_id = kInvalidPodId;
  HostId host = kInvalidHostId;  // host running the pod at collection time
  Tick collect_tick = 0;
  double cpu_usage = 0.0;  // fraction of host capacity
  double mem_usage = 0.0;
  double disk_usage = 0.0;
  // PSI ("some" pressure) over the three kernel windows (10/60/300 s).
  double cpu_psi_10 = 0.0;
  double cpu_psi_60 = 0.0;
  double cpu_psi_300 = 0.0;
  double mem_psi_some_60 = 0.0;
  double mem_psi_full_60 = 0.0;
  // Application-level metrics (LS pods only; zero otherwise).
  double qps = 0.0;
  double response_time = 0.0;
  bool operator==(const PodUsageRecord&) const = default;
};

// -- Pod lifecycle outcome ----------------------------------------------------
struct PodLifecycleRecord {
  PodId pod_id = kInvalidPodId;
  AppId app_id = kInvalidAppId;  // in [0, kAppIdLimit) once read
  SloClass slo = SloClass::kUnknown;
  Tick submit_tick = 0;
  Tick schedule_tick = -1;   // -1 when never scheduled within the horizon
  Tick finish_tick = -1;     // -1 when still running at the horizon
  HostId host = kInvalidHostId;
  double waiting_seconds = 0.0;
  // For BE pods: the contention-free (ideal) and observed completion times.
  double ideal_completion_ticks = 0.0;
  double actual_completion_ticks = 0.0;
  // For LS pods: worst CPU PSI observed during execution.
  double max_cpu_psi = 0.0;
  bool operator==(const PodLifecycleRecord&) const = default;
};

// A complete trace bundle as produced by one simulation run.
struct TraceBundle {
  std::vector<NodeMeta> nodes;
  std::vector<PodMeta> pods;
  std::vector<NodeUsageRecord> node_usage;
  // The bulk of a trace's rows. Tick-major (ticks never decrease from one
  // row to the next) with host ids >= 0; within a tick rows may come in any
  // host order. OfflineProfiler::BuildEroTable relies on both.
  ChunkedRows<PodUsageRecord> pod_usage;
  std::vector<PodLifecycleRecord> lifecycles;
};

}  // namespace optum

#endif  // OPTUM_SRC_TRACE_SCHEMA_H_
