// Profile data produced by the Offline Profiler and consumed by the Online
// Scheduler (paper Fig. 17, components 2-5).
#ifndef OPTUM_SRC_CORE_PROFILES_H_
#define OPTUM_SRC_CORE_PROFILES_H_

#include <array>
#include <memory>
#include <unordered_map>

#include "src/common/types.h"
#include "src/core/ero_table.h"
#include "src/ml/discretizer.h"
#include "src/ml/regressor.h"

namespace optum::core {

// Summary statistics of one application's pods, used as prediction-time
// features (Eq. 9 uses the app's max pod CPU/mem utilization and max QPS).
struct AppStats {
  SloClass slo = SloClass::kUnknown;
  double max_pod_cpu_util = 0.0;  // max over pods of cpu_usage / cpu_request
  double max_pod_mem_util = 0.0;
  double max_qps = 0.0;
  double max_completion_ticks = 0.0;  // BE: normalization base for CT
  // Memory profile: predicted fraction of the memory request a pod uses.
  // 1.0 for applications with unstable memory (CoV gate, §4.2.2).
  double mem_profile = 1.0;
  size_t sample_count = 0;
};

// One application's interference model evaluated everywhere the scheduler
// reads it (DESIGN.md §8). `predict` holds the discretized Eq. 9/10
// prediction at the canonical point of every (host CPU, host memory)
// utilization bucket, `slope` the Eq. 11 marginal slope of every (CPU
// midpoint, memory) bucket, both row-major on a kBuckets-wide grid over
// [0, 2]. Filled once when the profiles are built and never written again,
// so every copy of the profiles shares one instance.
struct InterferenceTable {
  static constexpr size_t kBuckets = 64;
  std::array<double, kBuckets * kBuckets> predict;
  std::array<double, kBuckets * kBuckets> slope;
};

// A trained per-application interference model (PSI for LS, normalized
// completion time for BE), plus the discretizer applied to its outputs.
// The regressor is immutable after training and shared, which makes
// AppModel (and OptumProfiles) cheaply copyable — distributed shards
// (§4.4) each hold a copy of the profiles and share the trained models.
struct AppModel {
  AppStats stats;
  std::shared_ptr<const ml::Regressor> model;  // null when too few samples
  ml::Discretizer discretizer{0.0, 1.0, 25};
  double holdout_mape = -1.0;  // filled by profiling evaluation; <0 unknown
  // Set for every usable model by OfflineProfiler::BuildProfiles.
  std::shared_ptr<const InterferenceTable> table;

  bool usable() const { return model != nullptr; }
};

// Everything the Online Scheduler needs.
struct OptumProfiles {
  EroTable ero;
  std::unordered_map<AppId, AppModel> apps;

  const AppModel* Find(AppId id) const {
    const auto it = apps.find(id);
    return it == apps.end() ? nullptr : &it->second;
  }
};

// Feature layout shared by trainer and predictors.
// LS model inputs (Eq. 1): pod CPU util, pod mem util, host CPU util,
// host mem util, normalized QPS.
inline constexpr size_t kLsFeatureCount = 5;
// BE model inputs (Eq. 2): max pod CPU util, max pod mem util, max host CPU
// util, max host mem util.
inline constexpr size_t kBeFeatureCount = 4;

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_PROFILES_H_
