// The from-scratch Eq. 8 reference (paper §4.3.2) the tests compare
// ResourceUsagePredictor::PredictHost against. It keeps no state: every call
// pairs the host's pods in `pods` order (incoming pod last), computes its own
// triple-wise fallback from EroTable::Get/GetTriple, and reads each pod's
// memory profile through OptumProfiles::Find, so a flat memory-profile array
// the predictor failed to rebuild after a profile swap shows up as a
// mismatch. The interference paths read only Host::app_counts, whose oracle
// is ClusterState::CheckInvariants().
#ifndef OPTUM_TESTS_SCORING_ORACLE_H_
#define OPTUM_TESTS_SCORING_ORACLE_H_

#include <algorithm>
#include <cstddef>

#include "src/core/profiles.h"
#include "src/core/resource_usage_predictor.h"
#include "src/sim/cluster.h"

namespace optum::testing_oracle {

// Predicted (CPU, mem) usage of `host` with `incoming` (optional) appended,
// summed left to right in Eq. 8's grouping order.
inline Resources PredictHost(const core::OptumProfiles& profiles,
                             core::ResourceUsagePredictor::Grouping grouping,
                             const Host& host, const PodSpec* incoming) {
  const size_t n = host.pods.size() + (incoming != nullptr ? 1 : 0);
  const auto spec_of = [&](size_t i) -> const PodSpec& {
    return i < host.pods.size() ? host.pods[i]->spec : *incoming;
  };
  const auto pair_cpu = [&](size_t i, size_t j) {
    return profiles.ero.Get(spec_of(i).app, spec_of(j).app) *
           (spec_of(i).request.cpu + spec_of(j).request.cpu);
  };
  // Three pods: the observed triple ERO when present, otherwise the tightest
  // pairing with the leftover pod at its full request.
  const auto triple_cpu = [&](size_t i) {
    const double ri = spec_of(i).request.cpu;
    const double rj = spec_of(i + 1).request.cpu;
    const double rk = spec_of(i + 2).request.cpu;
    const double observed =
        profiles.ero.GetTriple(spec_of(i).app, spec_of(i + 1).app, spec_of(i + 2).app);
    if (observed >= 0.0) {
      return observed * (ri + rj + rk);
    }
    return std::min({pair_cpu(i, i + 1) + rk, pair_cpu(i + 1, i + 2) + ri,
                     pair_cpu(i, i + 2) + rj, ri + rj + rk});
  };

  double poc = 0.0;
  size_t i = 0;
  if (grouping == core::ResourceUsagePredictor::Grouping::kTripleWise) {
    for (; i + 2 < n; i += 3) {
      poc += triple_cpu(i);
    }
  }
  for (; i + 1 < n; i += 2) {
    poc += pair_cpu(i, i + 1);
  }
  if (i < n) {
    poc += spec_of(i).request.cpu;  // Odd pod out: full CPU request.
  }
  double pom = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const core::AppModel* model = profiles.Find(spec_of(k).app);
    pom += (model != nullptr ? model->stats.mem_profile : 1.0) * spec_of(k).request.mem;
  }
  return Resources{poc, pom};
}

}  // namespace optum::testing_oracle

#endif  // OPTUM_TESTS_SCORING_ORACLE_H_
