// Tick-driven cluster simulator. Plays a Workload against a PlacementPolicy
// and produces a TraceBundle plus scheduling/performance aggregates. This is
// the trace-driven testbed of paper §5.1, with ground-truth interference
// supplied by PsiModel.
#ifndef OPTUM_SRC_SIM_SIMULATOR_H_
#define OPTUM_SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/shard_crew.h"
#include "src/obs/metrics.h"
#include "src/obs/pressure.h"
#include "src/obs/sinks.h"
#include "src/obs/span_log.h"
#include "src/obs/timeseries.h"
#include "src/sim/cluster.h"
#include "src/sim/placement_policy.h"
#include "src/sim/psi_model.h"
#include "src/trace/schema.h"
#include "src/trace/workload_generator.h"

namespace optum {

struct SimConfig {
  Resources host_capacity = kUnitResources;

  // Record cadence (in ticks) for node/pod running records; 0 disables.
  Tick node_usage_period = 2;
  Tick pod_usage_period = 10;

  // LSR pods may preempt BE pods when no host fits (paper §3.1.3).
  bool enable_lsr_preemption = true;

  // N-sigma window: host usage history length (paper: last 24 hours).
  size_t nsigma_history_window = static_cast<size_t>(kTicksPerDay);

  // Upper bound on placement attempts per tick, to bound per-tick work when
  // the pending queue is deep.
  size_t max_attempts_per_tick = 4000;

  // Lanes for the per-tick host and pod passes, counting the calling thread
  // (lane 0); the simulator keeps num_lanes - 1 crew threads for its
  // lifetime, and 1 runs every pass serially with no extra thread. Results
  // are bit-identical for every lane count: all stochastic draws come from
  // per-pod streams and cross-host aggregation is reduced in host order.
  size_t num_lanes = std::max(1u, std::thread::hardware_concurrency());

  // Stop draining a priority queue after this many consecutive rejections
  // in one tick (head-of-line batching; bounds per-tick work when the
  // cluster is saturated).
  size_t max_consecutive_failures = 64;

  PsiModelParams psi;
  uint64_t seed = 7;

  // Optional observer invoked at the end of every tick, after usage and
  // performance updates. Benches use it to snapshot predictor inputs. It
  // runs between the simulator's crew rounds, so it may use the crew the
  // simulator lends to the cluster (ClusterState::crew()).
  std::function<void(const ClusterState&, Tick)> on_tick_end;

  // Observability sinks (obs::Sinks contract), all optional:
  //   * sinks.metrics — every tick updates the sim.* gauges (cluster
  //     CPU/mem utilization, pending-queue depth, running pods, cumulative
  //     violations/OOM kills/preemptions) and records the tick's wall time
  //     into the sim.tick_seconds histogram (DESIGN.md §9). Metrics never
  //     feed back into scheduling, so results are identical with or
  //     without.
  //   * sinks.span_log — pod-lifecycle spans (DESIGN.md §11): the simulator
  //     emits submitted/queued/placed/finished/evicted transitions from its
  //     serial phases; sampled/scored come from the placement policy (pass
  //     the same Sinks to PlacementPolicy::AttachSinks). Span output
  //     carries only tick timestamps, so the file is bit-identical for
  //     every num_lanes.
  //   * sinks.series — streaming gauge time series, sampled once per tick
  //     after the sim.* gauges update. Requires sinks.metrics (the recorder
  //     snapshots that registry's gauges); the constructor enforces this.
  // sinks.decision_log / sinks.hotspot_log are ignored here — attach them
  // to the scheduler and the pressure monitor respectively.
  obs::Sinks sinks;

  // Optional host-pressure monitor (DESIGN.md §13). When set, every tick
  // feeds each host's demand-based utilization, the optional
  // predicted-interference term below, and its resident class counts
  // through the monitor on the serial tick path (hosts in id order), then
  // force-closes open hotspot episodes at the horizon. The caller owns the
  // monitor and its sinks; attach sim.pressure.*/sim.slo.* gauges via the
  // monitor's AttachSinks before the run.
  obs::HostPressureMonitor* pressure = nullptr;

  // Optional interference term for the pressure signal: total predicted RI
  // of the pods resident on `host` at the given utilization (e.g.
  // InterferencePredictor::ResidentInterference from the policy's
  // predictor). Called per host per tick on the serial path; the monitor
  // normalizes by the LS/LSR pod count. Unset ⇒ pressure is capacity-only.
  std::function<double(const Host&, double cpu_util, double mem_util)>
      pressure_interference;
};

// A pod that experienced scheduling delay, with the (final) blocking reason.
struct WaitSample {
  PodId pod = kInvalidPodId;
  SloClass slo = SloClass::kUnknown;
  Resources request;
  WaitReason reason = WaitReason::kNone;
  double waited_seconds = 0.0;
};

// Cluster-wide utilization snapshot.
struct UtilSample {
  Tick tick = 0;
  double avg_cpu_nonidle = 0.0;  // mean CPU util over hosts with >=1 pod
  double avg_mem_nonidle = 0.0;
  double max_cpu = 0.0;  // max host CPU util this tick
  double frac_hosts_nonidle = 0.0;
};

struct SimResult {
  TraceBundle trace;

  std::vector<WaitSample> waits;       // pods that waited at least one tick
  std::vector<UtilSample> util_series;

  int64_t oom_kills = 0;
  int64_t preemptions = 0;
  int64_t scheduled_pods = 0;
  int64_t never_scheduled_pods = 0;
  // Host-ticks where raw CPU demand exceeded capacity (usage violation,
  // Fig. 19b), over all non-idle host-ticks.
  int64_t violation_host_ticks = 0;
  int64_t nonidle_host_ticks = 0;

  double violation_rate() const {
    return nonidle_host_ticks > 0
               ? static_cast<double>(violation_host_ticks) /
                     static_cast<double>(nonidle_host_ticks)
               : 0.0;
  }
  // Time-averaged CPU utilization over non-idle hosts.
  double MeanCpuUtilNonIdle() const;
  double MeanMemUtilNonIdle() const;
};

class Simulator {
 public:
  // The workload must outlive the simulator.
  Simulator(const Workload& workload, SimConfig config, PlacementPolicy& policy);

  // Runs the whole horizon and returns the result. Call once.
  SimResult Run();

  const ClusterState& cluster() const { return cluster_; }

 private:
  struct PendingPod {
    const PodSpec* spec = nullptr;
    Tick enqueued_at = 0;
  };

  // Per-host per-tick scratch, written by the host's lane in the crew pass
  // (or by the serial OOM pass) and read serially afterwards.
  struct TickScratch {
    Resources demand;        // raw demand; OOM kills subtract their victims'
    bool had_pods = false;   // host was non-idle at the start of the tick
    bool violation = false;  // raw CPU demand exceeded capacity
    std::vector<PodRuntime*> done;  // BE pods whose work finished this tick
  };

  void EnqueueArrivals();
  void SchedulePending();
  bool TryPreemptForLsr(const PodSpec& pod, const AppProfile& app);
  void CommitPlacement(const PodSpec& spec, const AppProfile& app, HostId host);
  void UpdateUsageAndPerformance();
  // Capacity scaling, per-pod usage and CPU reservoir, PSI, BE progress
  // (flagging finished pods in scratch.done) and the history window of
  // one host whose demand is in scratch.demand. Reads and writes only that
  // host, its pods and its scratch.
  void SettleHost(Host& host, TickScratch& scratch);
  void HandleCompletions();
  void RecordRunningState();
  void FinalizeAtHorizon();
  void NoteWaitReason(const PodSpec& pod, WaitReason reason);
  void FinishPod(PodRuntime* pod, Tick finish_tick);
  // Kills a running pod and requeues it (progress lost, waiting restarts
  // now): the policy hears it finish, the span log records kEvicted with
  // `reason` (OOM | Preempt), and the pod leaves running_ and the cluster.
  // Callers count the eviction and pick the victim.
  void Evict(PodRuntime* victim, const char* reason);

  // Updates the sim.* gauges; called once per tick, serially, when
  // config_.metrics is set (the streaming series recorder, if any, samples
  // them right after).
  void SampleMetrics();

  // Feeds the host-pressure monitor; called once per tick, serially, when
  // config_.pressure is set.
  void SamplePressure();

  // O(1) membership maintenance for running_ via PodRuntime::running_index.
  void AddRunning(PodRuntime* pod);
  void RemoveFromRunning(PodRuntime* pod);

  const Workload& workload_;
  SimConfig config_;
  PlacementPolicy& policy_;
  PsiModel psi_model_;
  ClusterState cluster_;
  Rng rng_;

  Tick now_ = 0;
  size_t next_arrival_ = 0;
  // Pending queues by scheduling priority (index = priority, 3 highest).
  std::deque<PendingPod> pending_[4];
  std::vector<PodRuntime*> running_;  // all currently running pods
  std::vector<TickScratch> tick_scratch_;
  // qps_pattern.At(now_) per AppId, filled once per tick for every draw.
  std::vector<double> qps_fraction_;
  std::vector<PodRuntime*> done_;  // HandleCompletions scratch

  // Final wait reason per pod id (kNone if the pod never waited).
  std::vector<WaitSample> wait_by_pod_;
  SimResult result_;
  bool ran_ = false;

  // Cached observability sinks, resolved once from config_.metrics (all
  // null when metrics are off — each use is a single branch).
  struct SimMetrics {
    obs::Histogram* tick_timer = nullptr;
    obs::Gauge* cpu_util = nullptr;
    obs::Gauge* mem_util = nullptr;
    obs::Gauge* frac_nonidle = nullptr;
    obs::Gauge* pending = nullptr;
    obs::Gauge* running = nullptr;
    obs::Gauge* scheduled = nullptr;
    obs::Gauge* oom_kills = nullptr;
    obs::Gauge* preemptions = nullptr;
    obs::Gauge* violations = nullptr;
  };
  SimMetrics sim_metrics_;

  // Last: destroyed first, so no crew thread outlives the state it touches.
  ShardCrew crew_;
};

}  // namespace optum

#endif  // OPTUM_SRC_SIM_SIMULATOR_H_
