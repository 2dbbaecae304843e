// Optum's Online Scheduler + Node Selector (paper §4.3.1/§4.3.4).
//
// For a newly submitted pod it samples a subset of hosts (POP-style
// partitioning [42], default fraction 0.05), predicts each candidate's
// post-placement utilization (Eq. 7-8) and total interference (Eq. 9-10),
// scores candidates with Eq. 11,
//     Score_h = (POC/CapC) * (POM/CapM) - w_o * sum RI_LS - w_b * sum RI_BE,
// and greedily picks the highest-scoring feasible host. Memory utilization
// per host is capped (default 0.8, §5.1) to avoid OOM cascades.
#ifndef OPTUM_SRC_CORE_OPTUM_SCHEDULER_H_
#define OPTUM_SRC_CORE_OPTUM_SCHEDULER_H_

#include <memory>
#include <vector>

#include "src/core/interference_predictor.h"
#include "src/core/profiles.h"
#include "src/core/resource_usage_predictor.h"
#include "src/obs/decision_log.h"
#include "src/obs/metrics.h"
#include "src/obs/span_log.h"
#include "src/sim/placement_policy.h"
#include "src/stats/rng.h"

namespace optum::core {

// How Node Selector aggregates interference into the Eq. 11 score.
enum class ScoreMode {
  // Literal Eq. 11: absolute sum of RI over all pods on the candidate.
  kPaperAbsolute,
  // Greedy-exact form for the Eq. 6 objective: marginal RI increase for
  // existing pods plus the incoming pod's absolute RI (default).
  kMarginal,
};

struct OptumConfig {
  ScoreMode score_mode = ScoreMode::kMarginal;

  // Triple-wise usage prediction (§4.2.2 extension); requires profiles
  // built with OfflineProfilerConfig::enable_triple_ero for real triple
  // data (otherwise the predictor uses its pairwise fallback bound).
  bool use_triple_ero = false;

  // Objective weights for LS and BE interference (paper §5.1: 0.7 / 0.3).
  double omega_o = 0.7;
  double omega_b = 0.3;

  // Host sampling fraction for scalability (paper §4.3.4: 0.05).
  double sample_fraction = 0.05;
  size_t min_candidates = 32;

  // Incremental hot-path structures: the per-host baseline cache for usage
  // prediction (bit-identical to the uncached rescan; see
  // ResourceUsagePredictor) and the incrementally maintained Host::app_counts
  // histogram for interference prediction. Disable only for equivalence
  // testing and benchmark baselines (false = rescan/rebuild per candidate,
  // the pre-incremental behaviour).
  bool use_incremental_cache = true;

  // Per-host memory utilization cap (paper §5.1: 0.8).
  double mem_util_limit = 0.8;

  // Ticks between online ERO refreshes in ObserveColocation; 0 disables.
  Tick observe_period = 10;

  uint64_t seed = 97;
};

class OptumScheduler : public PlacementPolicy {
 public:
  // Takes ownership of the profiles produced by OfflineProfiler.
  OptumScheduler(OptumProfiles profiles, OptumConfig config = {});
  ~OptumScheduler() override;

  PlacementDecision Place(const PodSpec& pod, const AppProfile& app,
                          const ClusterState& cluster) override;
  std::string name() const override { return "Optum"; }

  // As Place(), but also returns the Eq. 11 score of the chosen host —
  // the Deployment Module uses it to resolve conflicts between parallel
  // schedulers (§4.4).
  PlacementDecision PlaceScored(const PodSpec& pod, const ClusterState& cluster,
                                double* best_score);

  // Online resource-usage profiling: records co-location observations from
  // the current cluster state into the ERO table (paper §4.2.2 keeps ERO
  // updated whenever observed peaks change; triples too when the scheduler
  // runs in triple-wise mode). Call from the simulator's on_tick_end hook.
  void ObserveColocation(const ClusterState& cluster, Tick now);

  // Full evaluation of one candidate host against one pod: the predicted
  // post-placement resources are computed once and reused for feasibility,
  // shortfall classification, and the Eq. 11 score.
  struct HostEvaluation {
    bool feasible = false;
    // Set for infeasible hosts: which resource dimension blocked placement
    // (both false when only anti-affinity blocked it).
    bool cpu_blocked = false;
    bool mem_blocked = false;
    double score = 0.0;  // valid only when feasible
    // Eq. 11 term breakdown, kept for the decision log (the values are
    // already in registers when the score is formed, so storing them costs
    // nothing measurable): score = cpu_util * mem_util - interference.
    // Every evaluation keeps it, speculative ones included.
    double cpu_util = 0.0;
    double mem_util = 0.0;
    double interference = 0.0;
  };
  HostEvaluation EvaluateHost(const PodSpec& pod, const Host& host) const;

  // --- Speculative scoring (pipelined §4.4 rounds, DESIGN.md §12) ---
  //
  // The pipelined DistributedCoordinator scores a future conflict round's
  // head pod *before* the current round's winners commit. That is sound
  // because the two halves of PlaceScored have different dependencies:
  // candidate sampling depends only on (num_hosts, this scheduler's serial
  // sampling stream) — never on host contents — and each candidate's
  // evaluation is a pure function of (pod spec, host contents), with host
  // contents versioned by Host::change_epoch. BeginSpeculative therefore
  // draws the sample in exactly the order PlaceScored would have and stamps
  // every candidate with its change_epoch — an epoch-snapshotted view of
  // the host subset this decision reads. FinalizeSpeculative later
  // re-scores only the candidates whose epoch moved (hosts the intervening
  // commits touched), runs the standard serial reduction, and emits the
  // same spans and decision records PlaceScored would emit — so the
  // returned decision is bit-identical to calling PlaceScored at finalize
  // time, decision log attached or not.
  struct SpeculativeScore {
    PodId pod = kInvalidPodId;
    std::vector<HostId> candidates;
    std::vector<uint64_t> epochs;  // change_epoch at speculation time
    std::vector<HostEvaluation> evals;

    void Clear() {
      pod = kInvalidPodId;
      candidates.clear();
      epochs.clear();
      evals.clear();
    }
  };

  // Samples and scores `pod` against the current cluster state into *out
  // (reusing its buffers). Advances the sampling stream exactly once, like
  // PlaceScored; emits no spans or decision records.
  void BeginSpeculative(const PodSpec& pod, const ClusterState& cluster,
                        SpeculativeScore* out);

  // Validates *spec against the current cluster state (re-scoring epoch-
  // moved candidates), reduces, emits spans and the decision record, and
  // returns the decision — bit-identical to PlaceScored(pod, cluster,
  // best_score) called now. `pod` must be the spec's pod.
  PlacementDecision FinalizeSpeculative(const PodSpec& pod,
                                        const ClusterState& cluster,
                                        SpeculativeScore* spec,
                                        double* best_score);

  // Evaluation counters, under the names the benchmark reads. Hits are
  // speculative evaluations FinalizeSpeculative kept because the host's
  // change_epoch did not move (0 without speculation); misses are
  // evaluations computed, on every path.
  uint64_t eval_memo_hits() const { return evals_kept_; }
  uint64_t eval_memo_misses() const { return evals_computed_; }

  // Scores a single candidate host (Eq. 11); exposed for tests/benches.
  // Returns false when the host is infeasible for the pod.
  bool ScoreHost(const PodSpec& pod, const Host& host, double* score) const;

  const OptumProfiles& profiles() const { return *profiles_; }

  // Swaps in freshly trained profiles (background re-profiling, Fig. 17).
  // The interference predictor re-reads the new tables, the usage predictor
  // its memory profiles, and every cached host baseline is retired;
  // in-flight pointers stay valid because the profiles object itself is
  // reused. Apart from ObserveColocation's ERO observations, this is the
  // only way the profiles change.
  void ReplaceProfiles(OptumProfiles profiles);

  // Unified sink attach (obs::Sinks contract): wires sinks.metrics,
  // sinks.span_log, and sinks.decision_log in one call; fields left nullptr
  // detach. The overload without lane/prefix attaches at lane_base 0 under
  // "optum".
  //
  //   * sinks.metrics — creates the scheduler's metrics under `prefix`:
  //       <prefix>.sample_seconds / .score_seconds   phase histograms
  //       <prefix>.placements / .rejections          counters
  //       <prefix>.pred_cache_* / .slope_cache_* / .forest_evals
  //           gauges refreshed by a registered collector from the
  //           predictor's table-read CacheStats at every sample/export
  //     `lane_base` is the registry shard this scheduler's updates use;
  //     schedulers running concurrently (distributed shards) must use
  //     distinct bases.
  //   * sinks.span_log — PlaceScored (and FinalizeSpeculative) emits a
  //     sampled span (count = candidates drawn) and a scored span (count =
  //     feasible candidates, score = best Eq. 11 score when any) per pod,
  //     both on the reduction path. Distinct schedulers must use distinct
  //     logs.
  //   * sinks.decision_log — per-placement Eq. 11 JSONL records, written on
  //     the reduction path of PlaceScored and FinalizeSpeculative. Distinct
  //     schedulers must use distinct logs.
  // Placements are unaffected: sinks never feed back into scoring.
  void AttachSinks(const obs::Sinks& sinks) override {
    AttachSinks(sinks, /*lane_base=*/0, /*prefix=*/"optum");
  }
  void AttachSinks(const obs::Sinks& sinks, size_t lane_base,
                   const std::string& prefix);

  const InterferencePredictor& interference_predictor() const {
    return interference_predictor_;
  }

  // Read-only view of the Eq. 6 usage model; PredictHost(host, nullptr)
  // gives the predicted-usage basis the feasibility gate evaluates, which
  // is also the utilization measure the pressure monitor samples.
  const ResourceUsagePredictor& usage_predictor() const {
    return usage_predictor_;
  }

 private:
  // Builds and appends the JSONL record for one placement outcome from the
  // scored candidates; runs on the serial path after the reduction.
  void LogDecision(const PodSpec& pod, const ClusterState& cluster,
                   const std::vector<HostId>& candidates,
                   const std::vector<HostEvaluation>& evals,
                   const PlacementDecision& decision);

  // The one scoring loop behind PlaceScored, BeginSpeculative and
  // FinalizeSpeculative: evaluates candidates[i] into (*evals)[i] and
  // stamps the host's change_epoch into (*epochs)[i]. With `revalidate`,
  // *epochs and *evals hold an earlier pass over the same candidates, and
  // a candidate whose epoch still matches keeps its evaluation (only
  // commits mutate hosts during a batch, so it is still exact).
  void ScoreCandidates(const PodSpec& pod, const ClusterState& cluster,
                       const std::vector<HostId>& candidates, bool revalidate,
                       std::vector<uint64_t>* epochs,
                       std::vector<HostEvaluation>* evals);

  // Reduction, span and decision-record emission shared by PlaceScored and
  // FinalizeSpeculative.
  PlacementDecision ReduceAndLog(const PodSpec& pod, const ClusterState& cluster,
                                 const std::vector<HostId>& candidates,
                                 const std::vector<HostEvaluation>& evals,
                                 double* best_score);

  std::unique_ptr<OptumProfiles> profiles_;
  OptumConfig config_;
  ResourceUsagePredictor usage_predictor_;
  InterferencePredictor interference_predictor_;
  Rng rng_;
  Tick last_observe_ = -1;

  // Per-scheduler scratch reused across PlaceScored calls (candidate
  // sampling working set, sampled candidates, their epochs and
  // evaluations) so the steady-state hot path allocates nothing.
  std::vector<HostId> sample_scratch_;
  std::vector<HostId> candidates_;
  std::vector<uint64_t> epochs_;
  std::vector<HostEvaluation> scored_;

  // See eval_memo_hits() / eval_memo_misses().
  uint64_t evals_kept_ = 0;
  uint64_t evals_computed_ = 0;

  // Observability sinks — all nullable; disabled instrumentation costs one
  // branch per site (DESIGN.md §9).
  obs::MetricRegistry* metrics_ = nullptr;
  size_t metrics_lane_base_ = 0;
  obs::Histogram* sample_timer_ = nullptr;
  obs::Histogram* score_timer_ = nullptr;
  obs::Counter* placements_counter_ = nullptr;
  obs::Counter* rejections_counter_ = nullptr;
  obs::DecisionLog* decision_log_ = nullptr;
  obs::SpanLog* span_log_ = nullptr;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_OPTUM_SCHEDULER_H_
