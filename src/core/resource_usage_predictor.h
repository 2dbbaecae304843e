// Optum's Resource Usage Predictor (paper §4.3.2, Eq. 7-8).
//
// CPU: pods on a host are paired in scheduling order; each pair's usage is
// estimated as ERO(A_{2i-1}, A_{2i}) * (Cr_{2i-1} + Cr_{2i}), the odd pod
// out contributing its full request:
//     POC_h = sum_i EC(p_{2i-1}, p_{2i}) + ((n+1) mod 2) * Cr_{n+1}.
// Memory: the sum over pods of mem_profile(A_i) * Mr_i (conservative).
//
// Scoring a candidate host evaluates PredictHost(host, &pod) for every
// sampled candidate, so the predictor keeps a per-host baseline: the
// full-group CPU sum, the trailing incomplete group (the only part an
// appended pod can change), and the memory sum. A prediction is the baseline
// plus an O(1) final-group delta, summed in Eq. 8's left-to-right order.
// Entries are validated against Host::change_epoch (pod placement / removal)
// and EroTable::version() (online ERO observations); a host outside any
// cluster (id < 0) gets a stack baseline through the same code. Memory
// profiles are read from a flat per-AppId copy of AppStats::mem_profile;
// profile swaps must call InvalidateAll(), which also rebuilds that copy.
// tests/scoring_oracle.h holds the from-scratch Eq. 8 reference.
#ifndef OPTUM_SRC_CORE_RESOURCE_USAGE_PREDICTOR_H_
#define OPTUM_SRC_CORE_RESOURCE_USAGE_PREDICTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/profiles.h"
#include "src/predict/usage_predictor.h"
#include "src/sim/cluster.h"

namespace optum::core {

class ResourceUsagePredictor {
 public:
  // Grouping arity for the CPU estimate: pairs (the paper's deployed
  // configuration) or triples (the §4.2.2 extension; falls back to the
  // pairwise bound for unobserved triples).
  enum class Grouping { kPairwise, kTripleWise };

  // `profiles` must outlive the predictor.
  explicit ResourceUsagePredictor(const OptumProfiles* profiles,
                                  Grouping grouping = Grouping::kPairwise);

  // Predicted (CPU, mem) usage of `host` if `incoming` (optional) were
  // appended to its pod list. Pass nullptr to predict the host as-is.
  // Amortized O(1) per call; callers that score candidates in parallel must
  // ReserveHosts() first so no slot allocation happens inside worker
  // threads. Concurrent calls on *distinct* hosts are safe; the same host
  // must not be predicted from two threads at once unless its cache entry is
  // already warm.
  Resources PredictHost(const Host& host, const PodSpec* incoming) const;

  // Pre-sizes the per-host cache so PredictHost never reallocates; call
  // before scoring candidates from multiple threads.
  void ReserveHosts(size_t num_hosts) const;

  // Drops every cached baseline and re-reads the memory profiles (profile
  // swap: ERO table and memory profiles may both have changed wholesale).
  void InvalidateAll();

  // Prefetches the cached baseline of host `id` (a hint for scoring loops
  // that know their next candidates); no effect when the cache is not yet
  // sized for `id`.
  void PrefetchBaseline(HostId id) const {
    if (id >= 0 && static_cast<size_t>(id) < cache_.size()) {
      __builtin_prefetch(&cache_[static_cast<size_t>(id)]);
    }
  }

  Grouping grouping() const { return grouping_; }

 private:
  // Cached baseline for one host: POC split into the full-group sum plus
  // the trailing incomplete group (at most grouping-arity - 1 pods), POM as
  // a running sum. An appended pod can only extend the trailing group, so
  // the incremental prediction reuses everything else untouched.
  struct HostBaseline {
    static constexpr uint64_t kNeverComputed = ~0ULL;
    uint64_t host_epoch = kNeverComputed;
    uint64_t ero_version = 0;
    uint64_t generation = 0;
    double poc_groups = 0.0;  // CPU estimate over full groups, in order
    double pom = 0.0;         // memory estimate over all pods
    double tail_poc = 0.0;    // baseline CPU contribution of the tail pods
    int tail_count = 0;       // pods in the trailing incomplete group (0..2)
    AppId tail_app[2] = {kInvalidAppId, kInvalidAppId};
    double tail_cpu[2] = {0.0, 0.0};
  };

  // mem_profile(app) * Mr from the flat table; apps without a profile
  // count at their full request.
  double MemEstimate(AppId app, const Resources& request) const {
    const double profile =
        app >= 0 && static_cast<size_t>(app) < mem_profile_.size()
            ? mem_profile_[static_cast<size_t>(app)]
            : 1.0;
    return profile * request.mem;
  }
  // Rebuilds mem_profile_ from profiles_->apps.
  void LoadMemProfiles();
  // Tightest estimate for three pods: the observed triple ERO when
  // available, otherwise min over pairings of ERO(x,y)*(rx+ry) + rz.
  double TripleCpuEstimate(AppId a, double ra, AppId b, double rb, AppId c,
                           double rc) const;

  void RecomputeBaseline(const Host& host, HostBaseline* slot) const;
  // The prediction from an up-to-date baseline: as-is, or with `incoming`
  // appended as the last pod.
  Resources PredictFrom(const HostBaseline& slot, const PodSpec* incoming) const;

  const OptumProfiles* profiles_;
  Grouping grouping_;
  uint64_t generation_ = 0;
  // AppStats::mem_profile indexed by AppId; 1.0 for ids without a model.
  std::vector<double> mem_profile_;
  mutable std::vector<HostBaseline> cache_;
};

// Adapter so the fig11 bench can score Optum's predictor alongside the
// industry baselines through the common UsagePredictor interface.
class OptumUsagePredictorAdapter : public UsagePredictor {
 public:
  explicit OptumUsagePredictorAdapter(const OptumProfiles* profiles)
      : impl_(profiles) {}

  double PredictHostCpu(const Host& host) const override {
    return impl_.PredictHost(host, nullptr).cpu;
  }
  double PredictHostMem(const Host& host) const override {
    return impl_.PredictHost(host, nullptr).mem;
  }
  std::string name() const override { return "Optum"; }

 private:
  ResourceUsagePredictor impl_;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_RESOURCE_USAGE_PREDICTOR_H_
