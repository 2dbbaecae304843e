#include "src/core/interference_predictor.h"

#include <algorithm>
#include <array>
#include <memory>
#include <span>

#include "src/common/check.h"
#include "src/common/shard_crew.h"

namespace optum::core {

namespace {

// Per-host application histogram rebuilt from the pod list — the
// pre-incremental path, retained verbatim so benchmarks can measure the
// baseline cost and equivalence tests can compare against Host::app_counts.
struct RebuiltAppCount {
  AppId app;
  SloClass slo;
  int count;
};

std::vector<RebuiltAppCount> RebuildCounts(const Host& host) {
  std::vector<RebuiltAppCount> counts;
  counts.reserve(host.pods.size() + 1);
  for (const PodRuntime* pod : host.pods) {
    bool merged = false;
    for (auto& c : counts) {
      if (c.app == pod->spec.app) {
        ++c.count;
        merged = true;
        break;
      }
    }
    if (!merged) {
      counts.push_back(RebuiltAppCount{pod->spec.app, pod->spec.slo, 1});
    }
  }
  return counts;
}

double WeightOf(SloClass slo, double weight_ls, double weight_be) {
  return IsLatencySensitive(slo) ? weight_ls : slo == SloClass::kBe ? weight_be : 0.0;
}

// Writes the Eq. 9/10 feature row for `model` at the given host utilizations
// into `row` (sized for kLsFeatureCount) and returns the row width. LS adds
// QPS as the app's maximum, i.e. 1.0 after normalization.
size_t FillFeatures(const AppModel& model, double host_cpu_util, double host_mem_util,
                    double* row) {
  const AppStats& s = model.stats;
  row[0] = s.max_pod_cpu_util;
  row[1] = s.max_pod_mem_util;
  row[2] = host_cpu_util;
  row[3] = host_mem_util;
  if (IsLatencySensitive(s.slo)) {
    row[4] = 1.0;
    return kLsFeatureCount;
  }
  return kBeFeatureCount;
}

constexpr size_t kBuckets = InterferenceTable::kBuckets;

// Half-width of the finite difference behind the Eq. 11 marginal slope; a
// single pod's utilization delta is far below tree granularity.
constexpr double kSlopeSpan = 0.06;

}  // namespace

void InterferencePredictor::FillTables(OptumProfiles* profiles, ShardCrew& crew) {
  std::vector<AppModel*> models;
  for (auto& [app, model] : profiles->apps) {
    if (model.usable() && model.table == nullptr) {
      models.push_back(&model);
    }
  }
  // One block, allocated here, shared by every app's table through aliasing
  // pointers; the lanes only write into it.
  const auto block = std::make_shared<std::vector<InterferenceTable>>(models.size());
  crew.ParallelFor(
      models.size(),
      [&](size_t i) { FillTable(*models[i], &(*block)[i]); },
      /*chunk=*/1);
  for (size_t i = 0; i < models.size(); ++i) {
    models[i]->table = std::shared_ptr<const InterferenceTable>(block, &(*block)[i]);
  }
}

InterferencePredictor::InterferencePredictor(const OptumProfiles* profiles,
                                             bool use_host_app_counts)
    : profiles_(profiles), use_host_app_counts_(use_host_app_counts) {
  OPTUM_CHECK(profiles != nullptr);
  Reload();
}

void InterferencePredictor::Reload() {
  tables_.clear();
  own_tables_.clear();
  std::vector<std::pair<AppId, const AppModel*>> untabled;
  for (const auto& [app, model] : profiles_->apps) {
    if (app < 0 || !model.usable()) {
      continue;
    }
    if (static_cast<size_t>(app) >= tables_.size()) {
      tables_.resize(static_cast<size_t>(app) + 1, nullptr);
    }
    if (model.table != nullptr) {
      tables_[static_cast<size_t>(app)] = model.table.get();
    } else {
      untabled.emplace_back(app, &model);
    }
  }
  own_tables_.resize(untabled.size());
  for (size_t i = 0; i < untabled.size(); ++i) {
    FillTable(*untabled[i].second, &own_tables_[i]);
    tables_[static_cast<size_t>(untabled[i].first)] = &own_tables_[i];
  }
  resident_memo_.clear();  // stored sums embed predictions from the old models
}

uint64_t InterferencePredictor::UtilBucket(double v, size_t buckets) {
  const double clamped = std::clamp(v, 0.0, 2.0) / 2.0;
  return static_cast<uint64_t>(clamped * static_cast<double>(buckets - 1));
}

double InterferencePredictor::BucketPoint(uint64_t bucket, size_t buckets) {
  const double width = 2.0 / static_cast<double>(buckets - 1);
  return std::min(2.0, (static_cast<double>(bucket) + 0.5) * width);
}

void InterferencePredictor::FillTable(const AppModel& model, InterferenceTable* table) {
  OPTUM_CHECK(model.usable());
  // Eq. 9: f_S(C^m_p, M^m_p, POC/Cap, POM/Cap, Q^m) for LS; Eq. 10:
  // f_B(C^m_q, M^m_q, POC/Cap, POM/Cap) for BE. Only the host utilizations
  // (features 2 and 3) vary across a table.
  double base[kLsFeatureCount];
  const std::span<const double> base_row(base,
                                         FillFeatures(model, 0.0, 0.0, base));
  constexpr size_t kCpu = 2, kMem = 3;

  // Predictions: the model at every bucket's canonical point, discretized.
  std::array<double, kBuckets> points;
  for (size_t b = 0; b < kBuckets; ++b) {
    points[b] = BucketPoint(b, kBuckets);
  }
  model.model->PredictGrid(base_row, kCpu, points, kMem, points, table->predict);
  for (double& v : table->predict) {
    v = model.discretizer.ToUpperBound(v);
  }

  // Slopes: a finite difference of the raw (undiscretized) model across
  // +-kSlopeSpan around each CPU-midpoint bucket's point, with memory at its
  // bucket's point, every endpoint snapped to a grid 8x finer than the
  // table's. The high ends are evaluated straight into the table.
  constexpr size_t kFine = kBuckets * 8;
  const auto fine_point = [](double v) { return BucketPoint(UtilBucket(v, kFine), kFine); };
  std::array<double, kBuckets> lo_points, hi_points, mem_points, spans;
  for (size_t m = 0; m < kBuckets; ++m) {
    const double lo = std::max(0.0, points[m] - kSlopeSpan);
    const double hi = points[m] + kSlopeSpan;
    lo_points[m] = fine_point(lo);
    hi_points[m] = fine_point(hi);
    mem_points[m] = fine_point(points[m]);
    spans[m] = hi - lo;
  }
  std::vector<double> lo_raw(table->slope.size());
  model.model->PredictGrid(base_row, kCpu, lo_points, kMem, mem_points, lo_raw);
  model.model->PredictGrid(base_row, kCpu, hi_points, kMem, mem_points, table->slope);
  for (size_t cell = 0; cell < table->slope.size(); ++cell) {
    const double span = spans[cell / kBuckets];
    const double hi_raw = table->slope[cell];
    table->slope[cell] = span > 1e-9 ? std::max(0.0, (hi_raw - lo_raw[cell]) / span) : 0.0;
  }
}

double InterferencePredictor::Predict(AppId app, double host_cpu_util,
                                      double host_mem_util) const {
  const InterferenceTable* table = TableOf(app);
  if (table == nullptr) {
    return 0.0;
  }
  return PredictCell(*table, UtilBucket(host_cpu_util, kBuckets),
                     UtilBucket(host_mem_util, kBuckets));
}

double InterferencePredictor::TotalInterference(const Host& host, const PodSpec& incoming,
                                                double host_cpu_util, double host_mem_util,
                                                double weight_ls,
                                                double weight_be) const {
  if (!use_host_app_counts_) {
    // Baseline path: rebuild the histogram from the pod list per call.
    std::vector<RebuiltAppCount> counts = RebuildCounts(host);
    bool merged = false;
    for (auto& c : counts) {
      if (c.app == incoming.app) {
        ++c.count;
        merged = true;
        break;
      }
    }
    if (!merged) {
      counts.push_back(RebuiltAppCount{incoming.app, incoming.slo, 1});
    }
    double total = 0.0;
    for (const auto& c : counts) {
      const double ri = Predict(c.app, host_cpu_util, host_mem_util);
      if (ri == 0.0) {
        continue;
      }
      total += WeightOf(c.slo, weight_ls, weight_be) * ri * static_cast<double>(c.count);
    }
    return total;
  }

  // One prediction per application; the per-host per-app counts are
  // maintained incrementally by ClusterState, so no per-candidate rebuild.
  double total = 0.0;
  bool incoming_merged = false;
  for (const HostAppCount& c : host.app_counts) {
    int count = c.count;
    if (c.app == incoming.app) {
      ++count;
      incoming_merged = true;
    }
    const double ri = Predict(c.app, host_cpu_util, host_mem_util);
    if (ri == 0.0) {
      continue;
    }
    total += WeightOf(c.slo, weight_ls, weight_be) * ri * static_cast<double>(count);
  }
  if (!incoming_merged) {
    const double ri = Predict(incoming.app, host_cpu_util, host_mem_util);
    if (ri != 0.0) {
      total += WeightOf(incoming.slo, weight_ls, weight_be) * ri;
    }
  }
  return total;
}

double InterferencePredictor::ResidentInterference(const Host& host,
                                                   double host_cpu_util,
                                                   double host_mem_util,
                                                   double weight_ls,
                                                   double weight_be,
                                                   size_t /*lane*/) const {
  // The resident sum feeds a per-host pressure signal that rides an EWMA,
  // so it needs far less utilization resolution than candidate scoring.
  // Inputs are snapped to a deliberately coarse grid (cell centers over
  // [0, 2]) before prediction, so the memo below keeps hitting while a
  // host's utilization moves within one cell.
  const uint64_t cpu_bucket = UtilBucket(host_cpu_util, kResidentBuckets);
  const uint64_t mem_bucket = UtilBucket(host_mem_util, kResidentBuckets);
  // The table cell Predict reads at the coarse cell's center.
  const uint64_t cpu_cell = UtilBucket(BucketPoint(cpu_bucket, kResidentBuckets), kBuckets);
  const uint64_t mem_cell = UtilBucket(BucketPoint(mem_bucket, kResidentBuckets), kBuckets);
  const auto resident_sum = [&](const auto& counts) {
    double total = 0.0;
    for (const auto& c : counts) {
      const InterferenceTable* table = TableOf(c.app);
      const double ri = table != nullptr ? PredictCell(*table, cpu_cell, mem_cell) : 0.0;
      if (ri == 0.0) {
        continue;
      }
      total += WeightOf(c.slo, weight_ls, weight_be) * ri * static_cast<double>(c.count);
    }
    return total;
  };
  if (!use_host_app_counts_) {
    return resident_sum(RebuildCounts(host));
  }
  // Pressure sweeps revisit every host each sampled tick, but only the
  // handful that placed or evicted pods since the last sweep can produce a
  // different sum: (change_epoch, coarse buckets, weights) fully determines
  // the result.
  ResidentMemo* memo = nullptr;
  if (host.id >= 0) {
    if (static_cast<size_t>(host.id) >= resident_memo_.size()) {
      resident_memo_.resize(static_cast<size_t>(host.id) + 1);
    }
    memo = &resident_memo_[static_cast<size_t>(host.id)];
    if (memo->epoch == host.change_epoch && memo->cpu_bucket == cpu_bucket &&
        memo->mem_bucket == mem_bucket && memo->weight_ls == weight_ls &&
        memo->weight_be == weight_be) {
      return memo->value;
    }
  }
  const double total = resident_sum(host.app_counts);
  if (memo != nullptr) {
    *memo = ResidentMemo{host.change_epoch, cpu_bucket, mem_bucket,
                         weight_ls,         weight_be,  total};
  }
  return total;
}

double InterferencePredictor::MarginalInterference(
    const Host& host, const PodSpec& incoming, double cpu_util_before,
    double mem_util_before, double cpu_util_after, double mem_util_after,
    double weight_ls, double weight_be) const {
  (void)mem_util_before;  // memory barely moves per placement; see below
  const double cpu_delta = std::max(0.0, cpu_util_after - cpu_util_before);

  // The slope is tabled per (app, CPU midpoint bucket, memory bucket): it
  // varies on the scale of tree splits, far coarser than this grid. The
  // finite difference is centered on the before/after CPU midpoint; memory
  // moves far less than a bucket per placement, so the post-placement value
  // stands in for both endpoints.
  const size_t cell =
      UtilBucket(0.5 * (cpu_util_before + cpu_util_after), kBuckets) * kBuckets +
      UtilBucket(mem_util_after, kBuckets);
  const auto slope_term = [&](AppId app, SloClass slo, int count) {
    const double weight = WeightOf(slo, weight_ls, weight_be);
    if (weight == 0.0) {
      return 0.0;
    }
    const InterferenceTable* table = TableOf(app);
    double slope = 0.0;
    if (table != nullptr) {
      ++slope_reads_;
      slope = table->slope[cell];
    }
    return weight * slope * cpu_delta * static_cast<double>(count);
  };

  double total = 0.0;
  if (!use_host_app_counts_) {
    // Baseline path: rebuild the histogram from the pod list per call.
    for (const auto& c : RebuildCounts(host)) {
      total += slope_term(c.app, c.slo, c.count);
    }
  } else {
    for (const HostAppCount& c : host.app_counts) {
      // Skipping profile-less apps adds exactly 0.0 to the sum, so this
      // fast path cannot change the result.
      if (TableOf(c.app) == nullptr) {
        continue;
      }
      total += slope_term(c.app, c.slo, c.count);
    }
  }
  // The incoming pod's own interference is its absolute prediction (§4.3.3).
  total += WeightOf(incoming.slo, weight_ls, weight_be) *
           Predict(incoming.app, cpu_util_after, mem_util_after);
  return total;
}

}  // namespace optum::core
