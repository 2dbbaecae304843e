// Cluster state: hosts, running pods, and the read view schedulers consume.
#ifndef OPTUM_SRC_SIM_CLUSTER_H_
#define OPTUM_SRC_SIM_CLUSTER_H_

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/stats/descriptive.h"
#include "src/stats/rng.h"
#include "src/trace/app_model.h"

namespace optum {

class ShardCrew;

// Runtime state of one scheduled pod. Owned by ClusterState; schedulers see
// const pointers only.
struct PodRuntime {
  PodSpec spec;
  const AppProfile* app = nullptr;

  HostId host = kInvalidHostId;
  Tick scheduled_at = -1;
  bool finished = false;

  // Instantaneous state (updated every tick by the simulator).
  double cpu_usage = 0.0;   // actual, after host capacity scaling
  double cpu_demand = 0.0;  // raw demand before scaling
  double mem_usage = 0.0;
  double qps = 0.0;
  double psi60 = 0.0;
  double psi300 = 0.0;

  // Aggregates over the pod lifetime.
  double max_psi = 0.0;
  double max_cpu_usage = 0.0;
  double max_mem_usage = 0.0;
  double progress = 0.0;  // BE work completed, in idle-host ticks

  // Bounded reservoir of CPU usage samples for percentile queries
  // (Resource Central's p99 predictor).
  std::vector<double> cpu_samples;
  OnlineStats cpu_stats;

  // Per-pod deterministic noise stream.
  Rng noise{1};
  // Separate stream for reservoir slot selection, so RecordCpuSample is
  // independent of host/pod iteration order (parallel-tick determinism)
  // and never perturbs the demand-noise stream.
  Rng reservoir_rng{1};

  // Position in the simulator's running-pod list; maintained by the
  // simulator for O(1) swap-removal.
  size_t running_index = static_cast<size_t>(-1);

  // Percentile of observed CPU usage; falls back to current usage when no
  // samples have been collected yet. Cached per (q, sample count): the
  // reservoir is queried by schedulers far more often than it changes.
  double CpuUsagePercentile(double q) const;

  mutable double percentile_cache_ = 0.0;
  mutable double percentile_cache_q_ = -1.0;
  mutable int64_t percentile_cache_count_ = -1;

  void RecordCpuSample(double value, Rng& slot_rng);
};

// Pod count for one application on one host, with the SLO class all of
// them share (what interference weighting needs).
struct HostAppCount {
  AppId app = kInvalidAppId;
  SloClass slo = SloClass::kUnknown;
  int count = 0;
};

// One physical host.
struct Host {
  HostId id = kInvalidHostId;
  Resources capacity = kUnitResources;

  // Pods in scheduling order (Optum's pairwise predictor consumes this
  // order, paper §4.3.2).
  std::vector<PodRuntime*> pods;

  // Monotone counter bumped on every pod placement/removal. Consumers that
  // cache per-host derived state (e.g. the incremental host-scoring cache)
  // validate against it instead of rescanning `pods`.
  uint64_t change_epoch = 0;

  // Per-application pod counts, kept sorted by AppId and maintained
  // incrementally on place/remove. Interference prediction iterates this
  // instead of rebuilding a flat map per candidate. An app's pods on one
  // host share one SLO class (ClusterState::Place checks it): every pod
  // source copies the app's slo into its PodSpec.
  std::vector<HostAppCount> app_counts;

  // Resident pod counts by SLO class, maintained incrementally alongside
  // app_counts. The pressure sweep reads this for every host every sampled
  // tick, so it must be a plain load, not a histogram walk.
  int32_t slo_pods[kNumSloClasses] = {};

  // Evictable best-effort mass: sum of CPU requests and count of BE pods,
  // maintained incrementally so LSR preemption never scans pod lists.
  double be_request_cpu = 0.0;
  int be_pod_count = 0;

  // Cached aggregates, maintained incrementally on place/remove and refreshed
  // each tick for usage.
  Resources request_sum;
  Resources limit_sum;
  Resources demand;  // raw demand this tick (can exceed capacity)
  Resources usage;   // actual usage (CPU capped at capacity)

  // Rolling window of host CPU usage (fraction of capacity) for N-sigma,
  // with incremental sums so HistoryStats is O(1).
  std::vector<double> cpu_history;
  size_t history_next = 0;
  size_t history_count = 0;
  double history_sum = 0.0;
  double history_sum_sq = 0.0;

  void PushHistory(double cpu_util, size_t window);
  // Mean and population stddev over the recorded window.
  void HistoryStats(double* mean, double* stddev) const;

  double CpuDemandRatio() const { return capacity.cpu > 0 ? demand.cpu / capacity.cpu : 0.0; }
  double MemRatio() const { return capacity.mem > 0 ? demand.mem / capacity.mem : 0.0; }
  bool IsIdle() const { return pods.empty(); }

  // True when the host runs at least one pod with an explicit SLO
  // (BE/LS/LSR). Hosts carrying only system daemons count as idle for the
  // utilization metric (the paper's characterization focuses on pods with
  // explicit SLO requirements, §2.2). O(1): reads slo_pods.
  bool HasSloWorkload() const {
    return slo_pods[static_cast<size_t>(SloClass::kBe)] +
               slo_pods[static_cast<size_t>(SloClass::kLs)] +
               slo_pods[static_cast<size_t>(SloClass::kLsr)] >
           0;
  }
};

// Anti-affinity check: true when placing `pod` on `host` would not exceed
// the pod's same-application per-host limit. Every scheduler (and the
// simulator's preemption path) honors this — affinity requirements are part
// of the unified request (paper §2.1).
bool AffinityAllows(const PodSpec& pod, const Host& host);

// Mutable cluster state; the simulator owns it, schedulers receive a const
// reference.
class ClusterState {
 public:
  ClusterState(int num_hosts, Resources capacity, size_t history_window);

  size_t num_hosts() const { return hosts_.size(); }
  const Host& host(HostId h) const { return hosts_[static_cast<size_t>(h)]; }
  Host& mutable_host(HostId h) { return hosts_[static_cast<size_t>(h)]; }
  std::span<const Host> hosts() const { return hosts_; }

  Tick now() const { return now_; }
  void set_now(Tick t) { now_ = t; }

  // Places a pod; the caller guarantees `host` is valid. Returns the new
  // runtime record. Aborts when a pod of the same app with another slo
  // already runs on `host` (see Host::app_counts).
  PodRuntime* Place(const PodSpec& spec, const AppProfile* app, HostId host, Tick at);

  // Removes a pod from its host (on completion, preemption, or OOM kill).
  void Remove(PodRuntime* pod);

  size_t num_running_pods() const { return num_running_; }
  size_t history_window() const { return history_window_; }

  // Hosts currently running at least one BE pod (arbitrary order); LSR
  // preemption scans only these.
  std::span<const HostId> hosts_with_be() const { return hosts_with_be_; }

  // Rebuilds every derived field from the hosts' pod lists and compares it
  // with the incrementally maintained copy (DESIGN.md §8 lists the fields
  // and tolerances). Returns "" when consistent, otherwise a message naming
  // the first bad field and its host. O(pods); tests call it, the
  // scheduling paths do not.
  std::string CheckInvariants() const;

  // The owner's crew, lent to readers of this cluster that split a pass
  // over its hosts (OptumScheduler::ObserveColocation); nullptr when none
  // was lent, and such readers then run the same pass inline. Contract: one
  // caller at a time, and only between the owner's own crew rounds (the
  // Simulator lends its crew, so SimConfig::on_tick_end may use it); a copy
  // of the cluster does not carry it.
  ShardCrew* crew() const { return crew_.crew; }
  void lend_crew(ShardCrew* crew) { crew_.crew = crew; }

 private:
  // Copies start with no crew; assignment keeps the target's own.
  struct LentCrew {
    ShardCrew* crew = nullptr;
    LentCrew() = default;
    LentCrew(const LentCrew&) {}
    LentCrew& operator=(const LentCrew&) { return *this; }
  };

  std::vector<Host> hosts_;
  // Deque keeps PodRuntime addresses stable across growth.
  std::deque<PodRuntime> pods_;
  std::vector<PodRuntime*> free_list_;
  // Dense index of hosts with be_pod_count > 0, plus each host's position in
  // it (-1 when absent) for O(1) swap-removal.
  std::vector<HostId> hosts_with_be_;
  std::vector<int32_t> be_index_pos_;
  size_t num_running_ = 0;
  size_t history_window_;
  Tick now_ = 0;
  LentCrew crew_;
};

}  // namespace optum

#endif  // OPTUM_SRC_SIM_CLUSTER_H_
