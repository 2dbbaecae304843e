#include "src/core/offline_profiler.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/common/check.h"
#include "src/core/interference_predictor.h"
#include "src/ml/metrics.h"
#include "src/stats/descriptive.h"

namespace optum::core {
namespace {

// Compact pod metadata resolved from the trace (last record wins for pods
// that were rescheduled after preemption/OOM).
struct PodInfo {
  AppId app = kInvalidAppId;
  SloClass slo = SloClass::kUnknown;
  Resources request;
};

std::unordered_map<PodId, PodInfo> IndexPods(const TraceBundle& trace) {
  std::unordered_map<PodId, PodInfo> out;
  out.reserve(trace.pods.size());
  for (const auto& meta : trace.pods) {
    out[meta.pod_id] = PodInfo{meta.app_id, meta.slo, meta.request};
  }
  return out;
}

uint64_t HostTickKey(HostId host, Tick tick) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(host)) << 40) |
         static_cast<uint64_t>(tick & 0xffffffffffLL);
}

std::unordered_map<uint64_t, Resources> IndexHostUsage(const TraceBundle& trace) {
  std::unordered_map<uint64_t, Resources> out;
  out.reserve(trace.node_usage.size());
  for (const auto& rec : trace.node_usage) {
    out[HostTickKey(rec.machine_id, rec.collect_tick)] =
        Resources{rec.cpu_usage, rec.mem_usage};
  }
  return out;
}

// Per-BE-pod aggregates needed for the completion-time dataset (Eq. 2 uses
// maximum pod and host utilizations over the pod's lifetime).
struct BePodAggregate {
  double max_pod_cpu_util = 0.0;
  double max_pod_mem_util = 0.0;
  double max_host_cpu = 0.0;
  double max_host_mem = 0.0;
  int samples = 0;
};

}  // namespace

OfflineProfiler::OfflineProfiler(OfflineProfilerConfig config) : config_(config) {
  OPTUM_CHECK_GT(config_.num_buckets, 0u);
}

AppDatasets OfflineProfiler::ExtractDatasets(const TraceBundle& trace) const {
  AppDatasets out;
  const auto pods = IndexPods(trace);
  const auto host_usage = IndexHostUsage(trace);

  // ---- Pass 1: per-app maxima for normalization -------------------------
  std::unordered_map<AppId, AppStats>& stats = out.stats;
  for (const auto& rec : trace.pod_usage) {
    const auto it = pods.find(rec.pod_id);
    if (it == pods.end()) {
      continue;
    }
    const PodInfo& info = it->second;
    AppStats& s = stats[info.app];
    s.slo = info.slo;
    const double cpu_util =
        info.request.cpu > 0 ? rec.cpu_usage / info.request.cpu : 0.0;
    const double mem_util =
        info.request.mem > 0 ? rec.mem_usage / info.request.mem : 0.0;
    s.max_pod_cpu_util = std::max(s.max_pod_cpu_util, cpu_util);
    s.max_pod_mem_util = std::max(s.max_pod_mem_util, mem_util);
    s.max_qps = std::max(s.max_qps, rec.qps);
  }
  for (const auto& rec : trace.lifecycles) {
    if (rec.slo == SloClass::kBe && rec.finish_tick >= 0 && rec.schedule_tick >= 0) {
      AppStats& s = stats[rec.app_id];
      s.slo = SloClass::kBe;
      s.max_completion_ticks =
          std::max(s.max_completion_ticks, rec.actual_completion_ticks);
    }
  }

  // ---- Pass 2: LS datasets + BE per-pod aggregates -----------------------
  std::unordered_map<PodId, BePodAggregate> be_aggregates;
  // Per-app per-pod mean memory utilization (for the stability gate).
  std::unordered_map<PodId, std::pair<double, int>> pod_mem_acc;

  for (const auto& rec : trace.pod_usage) {
    const auto it = pods.find(rec.pod_id);
    if (it == pods.end()) {
      continue;
    }
    const PodInfo& info = it->second;
    const auto host_it = host_usage.find(HostTickKey(rec.host, rec.collect_tick));
    if (host_it == host_usage.end()) {
      continue;
    }
    const Resources host = host_it->second;
    const double pod_cpu_util =
        info.request.cpu > 0 ? rec.cpu_usage / info.request.cpu : 0.0;
    const double pod_mem_util =
        info.request.mem > 0 ? rec.mem_usage / info.request.mem : 0.0;

    auto& mem_acc = pod_mem_acc[rec.pod_id];
    mem_acc.first += pod_mem_util;
    mem_acc.second += 1;

    if (IsLatencySensitive(info.slo)) {
      AppStats& s = stats[info.app];
      const double qps_norm = s.max_qps > 0 ? rec.qps / s.max_qps : 0.0;
      auto [ds_it, inserted] = out.ls.try_emplace(
          info.app, ml::Dataset(kLsFeatureCount,
                                {"pod_cpu_util", "pod_mem_util", "host_cpu_util",
                                 "host_mem_util", "qps_norm"}));
      const double features[kLsFeatureCount] = {pod_cpu_util, pod_mem_util, host.cpu,
                                                host.mem, qps_norm};
      ds_it->second.Add(features, rec.cpu_psi_60);
      ++s.sample_count;
    } else if (info.slo == SloClass::kBe) {
      BePodAggregate& agg = be_aggregates[rec.pod_id];
      agg.max_pod_cpu_util = std::max(agg.max_pod_cpu_util, pod_cpu_util);
      agg.max_pod_mem_util = std::max(agg.max_pod_mem_util, pod_mem_util);
      agg.max_host_cpu = std::max(agg.max_host_cpu, host.cpu);
      agg.max_host_mem = std::max(agg.max_host_mem, host.mem);
      ++agg.samples;
    }
  }

  // ---- Pass 3: BE datasets from lifecycles --------------------------------
  for (const auto& rec : trace.lifecycles) {
    if (rec.slo != SloClass::kBe || rec.finish_tick < 0 || rec.schedule_tick < 0) {
      continue;
    }
    const auto agg_it = be_aggregates.find(rec.pod_id);
    if (agg_it == be_aggregates.end() || agg_it->second.samples == 0) {
      continue;  // Pod too short-lived to have OS-level samples.
    }
    AppStats& s = stats[rec.app_id];
    if (s.max_completion_ticks <= 0) {
      continue;
    }
    const BePodAggregate& agg = agg_it->second;
    auto [ds_it, inserted] = out.be.try_emplace(
        rec.app_id, ml::Dataset(kBeFeatureCount,
                                {"max_pod_cpu_util", "max_pod_mem_util",
                                 "max_host_cpu_util", "max_host_mem_util"}));
    const double features[kBeFeatureCount] = {agg.max_pod_cpu_util, agg.max_pod_mem_util,
                                              agg.max_host_cpu, agg.max_host_mem};
    const double normalized_ct = rec.actual_completion_ticks / s.max_completion_ticks;
    ds_it->second.Add(features, normalized_ct);
    ++s.sample_count;
  }

  // ---- Memory profiles (stability gate, §4.2.2) ---------------------------
  // Group per-pod mean memory utilizations by app, compute CoV across pods.
  std::unordered_map<AppId, std::vector<double>> app_pod_mem;
  for (const auto& [pod_id, acc] : pod_mem_acc) {
    const auto it = pods.find(pod_id);
    if (it == pods.end() || acc.second == 0) {
      continue;
    }
    app_pod_mem[it->second.app].push_back(acc.first / acc.second);
  }
  for (auto& [app_id, utils] : app_pod_mem) {
    AppStats& s = stats[app_id];
    if (utils.size() >= 2 && CoefficientOfVariation(utils) <= config_.mem_cov_gate) {
      s.mem_profile = std::min(1.0, *std::max_element(utils.begin(), utils.end()));
    } else {
      s.mem_profile = 1.0;
    }
  }
  return out;
}

EroTable OfflineProfiler::BuildEroTable(const TraceBundle& trace) const {
  EroTable ero;
  const auto pods = IndexPods(trace);
  const size_t triple_cap = config_.enable_triple_ero ? config_.triple_top_k : 0;
  const ChunkedRows<PodUsageRecord>& rows = trace.pod_usage;

  // Rows are tick-major, but within a tick they follow the recorder's pod
  // order, not host order. Per tick, a stable counting pass over host ids
  // buckets the rows; the (tick, host) groups are then observed in
  // ascending (tick, host) order without copying or sorting the rows.
  std::vector<size_t> host_end;  // per host id: end of its bucket in `bucket`
  std::vector<const PodUsageRecord*> bucket;
  ColocationGroup group;
  size_t i = 0;
  while (i < rows.size()) {
    const Tick tick = rows[i].collect_tick;
    HostId max_host = 0;
    size_t j = i;
    for (; j < rows.size() && rows[j].collect_tick == tick; ++j) {
      OPTUM_CHECK_MSG(rows[j].host >= 0, "pod_usage host ids must be non-negative");
      max_host = std::max(max_host, rows[j].host);
    }
    OPTUM_CHECK_MSG(j == rows.size() || rows[j].collect_tick > tick,
                    "pod_usage must be tick-major");
    // Count into host_end[h + 1], prefix-sum to bucket starts, then place:
    // each placement advances host_end[h], leaving it at the bucket's end.
    host_end.assign(static_cast<size_t>(max_host) + 2, 0);
    for (size_t r = i; r < j; ++r) {
      ++host_end[static_cast<size_t>(rows[r].host) + 1];
    }
    for (size_t h = 1; h < host_end.size(); ++h) {
      host_end[h] += host_end[h - 1];
    }
    bucket.resize(j - i);
    for (size_t r = i; r < j; ++r) {
      bucket[host_end[static_cast<size_t>(rows[r].host)]++] = &rows[r];
    }
    size_t begin = 0;
    for (size_t h = 0; h <= static_cast<size_t>(max_host); ++h) {
      group.Reset();
      for (; begin < host_end[h]; ++begin) {
        const auto it = pods.find(bucket[begin]->pod_id);
        if (it != pods.end()) {
          group.Add(it->second.app, bucket[begin]->cpu_usage, it->second.request.cpu);
        }
      }
      group.ObserveInto(&ero, triple_cap);
    }
    i = j;
  }
  return ero;
}

OptumProfiles OfflineProfiler::BuildProfiles(const TraceBundle& trace) const {
  ShardCrew crew(std::max(1u, std::thread::hardware_concurrency()));
  return BuildProfiles(trace, crew);
}

OptumProfiles OfflineProfiler::BuildProfiles(const TraceBundle& trace, ShardCrew& crew) const {
  OptumProfiles profiles;
  profiles.ero = BuildEroTable(trace);

  AppDatasets datasets = ExtractDatasets(trace);
  Rng rng(config_.seed);

  auto train_app = [&](AppId app_id, const ml::Dataset& data, double mape_floor,
                       double mape_gate) {
    AppModel model;
    model.stats = datasets.stats[app_id];
    model.discretizer = ml::Discretizer(0.0, 1.0, config_.num_buckets);
    if (data.size() < config_.min_samples) {
      profiles.apps.emplace(app_id, std::move(model));
      return;
    }
    // Train on discretized targets (paper §4.2.1), subsampled when huge.
    ml::Dataset discretized(data.num_features(), data.feature_names());
    Rng sample_rng = rng.Split(static_cast<uint64_t>(app_id) * 2 + 1);
    const double keep = data.size() > config_.max_train_samples
                            ? static_cast<double>(config_.max_train_samples) /
                                  static_cast<double>(data.size())
                            : 1.0;
    for (size_t i = 0; i < data.size(); ++i) {
      if (keep < 1.0 && !sample_rng.Bernoulli(keep)) {
        continue;
      }
      discretized.Add(data.Features(i), model.discretizer.ToUpperBound(data.Target(i)));
    }
    if (config_.evaluate_holdout) {
      Rng split_rng = rng.Split(static_cast<uint64_t>(app_id));
      const auto split = discretized.TrainTestSplit(config_.holdout_fraction, split_rng);
      ml::RegressorSpec eval_spec = config_.model;
      eval_spec.seed = split_rng.NextU64();
      auto eval_model = ml::MakeRegressor(eval_spec);
      if (!split.train.empty() && !split.test.empty()) {
        eval_model->Fit(split.train, crew);
        std::vector<double> pred = ml::PredictAll(*eval_model, split.test);
        for (double& p : pred) {
          p = model.discretizer.ToUpperBound(p);
        }
        model.holdout_mape = ml::Mape(split.test.targets(), pred, mape_floor);
      }
    }
    // Accuracy gate: skip the model when the holdout error is too high
    // (the scheduler then treats the app as "no interference information").
    if (mape_gate > 0.0 && model.holdout_mape >= 0.0 &&
        model.holdout_mape > mape_gate) {
      profiles.apps.emplace(app_id, std::move(model));
      return;
    }
    ml::RegressorSpec train_spec = config_.model;
    train_spec.seed = rng.NextU64();
    auto trained = ml::MakeRegressor(train_spec);
    trained->Fit(discretized, crew);
    model.model = std::move(trained);
    profiles.apps.emplace(app_id, std::move(model));
  };

  for (const auto& [app_id, data] : datasets.ls) {
    train_app(app_id, data, /*mape_floor=*/0.1, /*mape_gate=*/0.0);
  }
  for (const auto& [app_id, data] : datasets.be) {
    train_app(app_id, data, /*mape_floor=*/0.05, config_.be_mape_gate);
  }
  // Apps with stats but no dataset (e.g. short-lived BE pods) still get a
  // profile entry carrying their stats and memory profile.
  for (const auto& [app_id, s] : datasets.stats) {
    if (profiles.apps.find(app_id) == profiles.apps.end()) {
      AppModel model;
      model.stats = s;
      model.discretizer = ml::Discretizer(0.0, 1.0, config_.num_buckets);
      profiles.apps.emplace(app_id, std::move(model));
    }
  }
  InterferencePredictor::FillTables(&profiles, crew);
  return profiles;
}

}  // namespace optum::core
