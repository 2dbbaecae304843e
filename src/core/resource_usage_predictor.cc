#include "src/core/resource_usage_predictor.h"

#include <algorithm>

#include "src/common/check.h"

namespace optum::core {

ResourceUsagePredictor::ResourceUsagePredictor(const OptumProfiles* profiles,
                                               Grouping grouping)
    : profiles_(profiles), grouping_(grouping) {
  OPTUM_CHECK(profiles != nullptr);
  LoadMemProfiles();
}

void ResourceUsagePredictor::LoadMemProfiles() {
  mem_profile_.clear();
  for (const auto& [app, model] : profiles_->apps) {
    if (app < 0) {
      continue;  // never looked up: MemEstimate treats negative ids as 1.0
    }
    if (static_cast<size_t>(app) >= mem_profile_.size()) {
      mem_profile_.resize(static_cast<size_t>(app) + 1, 1.0);
    }
    mem_profile_[static_cast<size_t>(app)] = model.stats.mem_profile;
  }
}

double ResourceUsagePredictor::TripleCpuEstimate(AppId a, double ra, AppId b, double rb,
                                                 AppId c, double rc) const {
  const double sum = ra + rb + rc;
  const double observed = profiles_->ero.GetTriple(a, b, c);
  if (observed >= 0.0) {
    return observed * sum;
  }
  // Pairwise fallback: group the tightest pair, leftover at full request.
  const double ab = profiles_->ero.Get(a, b) * (ra + rb) + rc;
  const double bc = profiles_->ero.Get(b, c) * (rb + rc) + ra;
  const double ac = profiles_->ero.Get(a, c) * (ra + rc) + rb;
  return std::min({ab, bc, ac, sum});
}

double ResourceUsagePredictor::MemEstimateRescan(AppId app,
                                                 const Resources& request) const {
  const AppModel* model = profiles_->Find(app);
  const double profile = model != nullptr ? model->stats.mem_profile : 1.0;
  return profile * request.mem;
}

Resources ResourceUsagePredictor::PredictHostRescan(const Host& host,
                                                    const PodSpec* incoming) const {
  // Assemble (app, request) in scheduling order, incoming pod last.
  // Pairing follows Eq. 8 exactly.
  double poc = 0.0;
  double pom = 0.0;

  const size_t n = host.pods.size() + (incoming != nullptr ? 1 : 0);
  auto app_of = [&](size_t i) -> AppId {
    return i < host.pods.size() ? host.pods[i]->spec.app : incoming->app;
  };
  auto request_of = [&](size_t i) -> const Resources& {
    return i < host.pods.size() ? host.pods[i]->spec.request : incoming->request;
  };

  size_t i = 0;
  if (grouping_ == Grouping::kTripleWise) {
    for (; i + 2 < n; i += 3) {
      poc += TripleCpuEstimate(app_of(i), request_of(i).cpu, app_of(i + 1),
                               request_of(i + 1).cpu, app_of(i + 2),
                               request_of(i + 2).cpu);
    }
  }
  for (; i + 1 < n; i += 2) {
    const double ero = profiles_->ero.Get(app_of(i), app_of(i + 1));
    poc += ero * (request_of(i).cpu + request_of(i + 1).cpu);
  }
  if (i < n) {
    poc += request_of(i).cpu;  // Odd pod out: full CPU request.
  }
  for (size_t k = 0; k < n; ++k) {
    pom += MemEstimateRescan(app_of(k), request_of(k));
  }
  return Resources{poc, pom};
}

void ResourceUsagePredictor::RecomputeBaseline(const Host& host,
                                               HostBaseline* slot) const {
  const size_t n = host.pods.size();
  auto app_of = [&](size_t i) -> AppId { return host.pods[i]->spec.app; };
  auto cpu_of = [&](size_t i) -> double { return host.pods[i]->spec.request.cpu; };

  // Full groups, accumulated in the same left-to-right order as the rescan
  // so cached predictions are bit-identical to uncached ones. In pairwise
  // mode every pair is a full group; in triple-wise mode only triples are
  // (a trailing pair would be regrouped into a triple by an incoming pod).
  double poc = 0.0;
  size_t i = 0;
  if (grouping_ == Grouping::kTripleWise) {
    for (; i + 2 < n; i += 3) {
      poc += TripleCpuEstimate(app_of(i), cpu_of(i), app_of(i + 1), cpu_of(i + 1),
                               app_of(i + 2), cpu_of(i + 2));
    }
  } else {
    for (; i + 1 < n; i += 2) {
      const double ero = profiles_->ero.Get(app_of(i), app_of(i + 1));
      poc += ero * (cpu_of(i) + cpu_of(i + 1));
    }
  }
  slot->poc_groups = poc;

  slot->tail_count = static_cast<int>(n - i);
  OPTUM_CHECK(slot->tail_count >= 0 && slot->tail_count <= 2);
  double tail_poc = 0.0;
  if (slot->tail_count >= 1) {
    slot->tail_app[0] = app_of(i);
    slot->tail_cpu[0] = cpu_of(i);
  }
  if (slot->tail_count == 1) {
    tail_poc = cpu_of(i);
  } else if (slot->tail_count == 2) {
    slot->tail_app[1] = app_of(i + 1);
    slot->tail_cpu[1] = cpu_of(i + 1);
    tail_poc = profiles_->ero.Get(app_of(i), app_of(i + 1)) *
               (cpu_of(i) + cpu_of(i + 1));
  }
  slot->tail_poc = tail_poc;

  double pom = 0.0;
  for (size_t k = 0; k < n; ++k) {
    pom += MemEstimate(host.pods[k]->spec.app, host.pods[k]->spec.request);
  }
  slot->pom = pom;
}

Resources ResourceUsagePredictor::PredictHost(const Host& host,
                                              const PodSpec* incoming) const {
  if (!cache_enabled_ || host.id < 0) {
    return PredictHostRescan(host, incoming);
  }
  const size_t idx = static_cast<size_t>(host.id);
  if (idx >= cache_.size()) {
    cache_.resize(idx + 1);
  }
  HostBaseline& slot = cache_[idx];
  const uint64_t ero_version = profiles_->ero.version();
  if (slot.host_epoch != host.change_epoch || slot.ero_version != ero_version ||
      slot.generation != generation_) {
    RecomputeBaseline(host, &slot);
    slot.host_epoch = host.change_epoch;
    slot.ero_version = ero_version;
    slot.generation = generation_;
  }
  if (incoming == nullptr) {
    return Resources{slot.poc_groups + slot.tail_poc, slot.pom};
  }
  // The incoming pod extends (or starts) the trailing group; everything
  // before it is untouched, so the delta is one group estimate.
  double final_group = 0.0;
  switch (slot.tail_count) {
    case 0:
      final_group = incoming->request.cpu;
      break;
    case 1:
      final_group = profiles_->ero.Get(slot.tail_app[0], incoming->app) *
                    (slot.tail_cpu[0] + incoming->request.cpu);
      break;
    default:  // 2, triple-wise only: the trailing pair becomes a triple.
      final_group =
          TripleCpuEstimate(slot.tail_app[0], slot.tail_cpu[0], slot.tail_app[1],
                            slot.tail_cpu[1], incoming->app, incoming->request.cpu);
      break;
  }
  return Resources{slot.poc_groups + final_group,
                   slot.pom + MemEstimate(incoming->app, incoming->request)};
}

void ResourceUsagePredictor::ReserveHosts(size_t num_hosts) const {
  if (cache_.size() < num_hosts) {
    cache_.resize(num_hosts);
  }
}

void ResourceUsagePredictor::InvalidateAll() {
  ++generation_;
  LoadMemProfiles();
}

}  // namespace optum::core
