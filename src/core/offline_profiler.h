// Offline Profiler (paper §4.2, components 2-3 of Fig. 17): builds the
// pairwise ERO table (Resource Usage Profiler) and per-application
// interference models (Interference Profiler) from trace data.
#ifndef OPTUM_SRC_CORE_OFFLINE_PROFILER_H_
#define OPTUM_SRC_CORE_OFFLINE_PROFILER_H_

#include <unordered_map>
#include <vector>

#include "src/common/shard_crew.h"
#include "src/core/profiles.h"
#include "src/ml/dataset.h"
#include "src/trace/schema.h"

namespace optum::core {

struct OfflineProfilerConfig {
  // Model family and hyperparameters for interference profiles; the paper
  // selects Random Forest after comparing LR/Ridge/SVR/MLP (Fig. 18). The
  // spec's seed is ignored — training seeds derive from `seed` below so
  // every model gets an independent stream.
  ml::RegressorSpec model;

  // Discretization buckets for PSI and completion time (paper §5.2: 25).
  size_t num_buckets = 25;

  // Minimum training samples before an application gets a model.
  size_t min_samples = 40;

  // Memory stability gate: apps whose per-pod mean memory utilization has
  // CoV <= this use max utilization as their memory profile; others get a
  // fully conservative profile of 1.0 (paper §4.2.2: 0.01).
  double mem_cov_gate = 0.01;

  // Holdout fraction used to measure per-app MAPE (Fig. 18 / §5.2).
  double holdout_fraction = 0.25;
  bool evaluate_holdout = true;

  // BE accuracy gate (§5.2): Optum only optimizes BE applications whose
  // completion time predicts with MAPE below this; others keep their stats
  // but get no interference model.
  double be_mape_gate = 0.2;

  // Upper bound on per-application training set size; larger datasets are
  // uniformly subsampled (keeps Random Forest training time bounded).
  size_t max_train_samples = 3000;

  // Triple-wise ERO profiling (§4.2.2 extension). Off by default — the
  // paper's deployed configuration is pairwise because triple profiling
  // "can incur large profiling overhead". Triples are collected over the
  // top `triple_top_k` apps (by representative usage) per host sample.
  bool enable_triple_ero = false;
  size_t triple_top_k = 8;

  uint64_t seed = 1234;
};

// Per-application supervised datasets extracted from a trace. Exposed so
// the fig18 bench can train several model families on identical data.
struct AppDatasets {
  // LS/LSR apps: features per kLsFeatureCount, target = CPU PSI (60 s).
  std::unordered_map<AppId, ml::Dataset> ls;
  // BE apps: features per kBeFeatureCount, target = normalized CT.
  std::unordered_map<AppId, ml::Dataset> be;
  // Stats gathered during extraction (max utils, max QPS, max CT, ...).
  std::unordered_map<AppId, AppStats> stats;
};

class OfflineProfiler {
 public:
  explicit OfflineProfiler(OfflineProfilerConfig config = {});

  // Extracts per-application datasets and summary stats from the trace.
  AppDatasets ExtractDatasets(const TraceBundle& trace) const;

  // Builds the ERO table from co-location observations in the trace.
  EroTable BuildEroTable(const TraceBundle& trace) const;

  // Full profiling pass: datasets + models + ERO + memory profiles. Every
  // holdout and final model fits on `crew` (a forest spreads its trees over
  // the lanes); the apps themselves are trained in order, because each gate
  // outcome decides what the next app draws from the shared seed stream.
  // The profiles are bit-identical for every crew size. The one-argument
  // overload creates a crew with one lane per hardware thread for the call.
  OptumProfiles BuildProfiles(const TraceBundle& trace) const;
  OptumProfiles BuildProfiles(const TraceBundle& trace, ShardCrew& crew) const;

  const OfflineProfilerConfig& config() const { return config_; }

 private:
  OfflineProfilerConfig config_;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_OFFLINE_PROFILER_H_
