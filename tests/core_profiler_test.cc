// Tests for src/core profiling: the ERO table, offline profiler extraction,
// memory-stability gate, MAPE gate, and the pairwise usage predictor
// arithmetic (Eq. 7-8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/core/ero_table.h"
#include "src/core/offline_profiler.h"
#include "src/core/resource_usage_predictor.h"
#include "src/sim/cluster.h"
#include "src/stats/rng.h"

namespace optum::core {
namespace {

TEST(EroTableTest, DefaultsToOne) {
  EroTable ero;
  EXPECT_DOUBLE_EQ(ero.Get(1, 2), 1.0);
  EXPECT_FALSE(ero.Contains(1, 2));
}

TEST(EroTableTest, KeepsMaximum) {
  EroTable ero;
  ero.Observe(1, 2, 0.3);
  EXPECT_DOUBLE_EQ(ero.Get(1, 2), 0.3);
  ero.Observe(1, 2, 0.5);
  EXPECT_DOUBLE_EQ(ero.Get(1, 2), 0.5);
  ero.Observe(1, 2, 0.2);
  EXPECT_DOUBLE_EQ(ero.Get(1, 2), 0.5);
}

TEST(EroTableTest, Symmetric) {
  EroTable ero;
  ero.Observe(3, 7, 0.4);
  EXPECT_DOUBLE_EQ(ero.Get(7, 3), 0.4);
  EXPECT_TRUE(ero.Contains(7, 3));
}

TEST(EroTableTest, ClampsToUnitInterval) {
  EroTable ero;
  ero.Observe(1, 1, 1.7);
  EXPECT_DOUBLE_EQ(ero.Get(1, 1), 1.0);
  ero.Observe(2, 2, -0.5);
  EXPECT_DOUBLE_EQ(ero.Get(2, 2), 0.0);
}

TEST(EroTableTest, SelfPairsSupported) {
  EroTable ero;
  ero.Observe(5, 5, 0.25);
  EXPECT_DOUBLE_EQ(ero.Get(5, 5), 0.25);
  EXPECT_EQ(ero.size(), 1u);
}

// Random Observe sequences against a std::map reference: after every step
// the table agrees on version() and size(), and periodic sweeps over every
// id pair — ids never observed, ids past the largest observed one, negative
// ids and self-pairs included — agree on Get and Contains. Ratios fall
// outside [0, 1] (clamped), and every fifth step re-observes a stored pair
// at or below its value, which must not bump the version.
TEST(EroTablePropertyTest, MatchesMapReferenceUnderRandomObservations) {
  constexpr AppId kObservedIds = 300;  // several growths of the pair matrix
  constexpr AppId kQueriedIds = 320;
  Rng rng(31);
  EroTable ero;
  std::map<std::pair<AppId, AppId>, double> reference;
  uint64_t version = 0;
  const auto check_all_pairs = [&] {
    for (AppId a = -1; a < kQueriedIds; ++a) {
      for (AppId b = -1; b < kQueriedIds; ++b) {
        const auto it = reference.find(std::minmax(a, b));
        const bool observed = it != reference.end();
        ASSERT_EQ(ero.Contains(a, b), observed) << a << ", " << b;
        ASSERT_EQ(ero.Get(a, b), observed ? it->second : 1.0) << a << ", " << b;
      }
    }
  };
  for (int step = 0; step < 4000; ++step) {
    AppId a = static_cast<AppId>(rng.NextBelow(kObservedIds));
    AppId b = step % 7 == 0 ? a : static_cast<AppId>(rng.NextBelow(kObservedIds));
    double ratio = rng.Uniform(-0.3, 1.3);
    if (step % 5 == 0 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(reference.size())));
      std::tie(b, a) = it->first;  // reversed order reads the same pair
      ratio = it->second * rng.Uniform(0.0, 1.0);
    }
    ero.Observe(a, b, ratio);
    const double clamped = std::clamp(ratio, 0.0, 1.0);
    const auto [it, inserted] = reference.try_emplace(std::minmax(a, b), clamped);
    if (inserted) {
      ++version;
    } else if (clamped > it->second) {
      it->second = clamped;
      ++version;
    }
    ASSERT_EQ(ero.version(), version) << "step " << step;
    ASSERT_EQ(ero.size(), reference.size()) << "step " << step;
    if (step % 500 == 0 || step == 3999) {
      check_all_pairs();
    }
  }
}

TEST(EroTablePropertyTest, CopiesStayIndependent) {
  EroTable original;
  original.Observe(1, 2, 0.4);
  EroTable copy = original;
  copy.Observe(2, 1, 0.9);
  copy.Observe(3, 40, 0.1);  // a new app on the copy only
  EXPECT_EQ(original.Get(1, 2), 0.4);
  EXPECT_FALSE(original.Contains(3, 40));
  EXPECT_EQ(original.size(), 1u);
  EXPECT_EQ(original.version(), 1u);
  original.Observe(5, 5, 0.3);
  EXPECT_FALSE(copy.Contains(5, 5));
  EXPECT_EQ(copy.Get(1, 2), 0.9);
  EXPECT_EQ(copy.Get(40, 3), 0.1);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.version(), 3u);
}

// --- Offline profiler on a hand-crafted trace --------------------------------

// Builds a trace with two apps co-located on one host:
//   app 0 (LS): 2 pods, request 0.2 CPU / 0.1 mem
//   app 1 (BE): 2 pods, request 0.1 CPU / 0.05 mem
TraceBundle CraftedTrace() {
  TraceBundle trace;
  trace.nodes.push_back(NodeMeta{0, kUnitResources});
  auto add_pod = [&](PodId id, AppId app, SloClass slo, Resources request) {
    PodMeta meta;
    meta.pod_id = id;
    meta.app_id = app;
    meta.slo = slo;
    meta.request = request;
    meta.limit = request * 2.0;
    meta.original_machine_id = 0;
    trace.pods.push_back(meta);
  };
  add_pod(0, 0, SloClass::kLs, {0.2, 0.1});
  add_pod(1, 0, SloClass::kLs, {0.2, 0.1});
  add_pod(2, 1, SloClass::kBe, {0.1, 0.05});
  add_pod(3, 1, SloClass::kBe, {0.1, 0.05});

  // 200 ticks of records; usage constant per pod.
  const double cpu[4] = {0.05, 0.06, 0.03, 0.02};
  const double mem[4] = {0.05, 0.05, 0.045, 0.045};
  for (Tick t = 0; t < 200; ++t) {
    double host_cpu = 0, host_mem = 0;
    for (int p = 0; p < 4; ++p) {
      host_cpu += cpu[p];
      host_mem += mem[p];
    }
    trace.node_usage.push_back(NodeUsageRecord{0, t, host_cpu, host_mem, 0, 0});
    for (int p = 0; p < 4; ++p) {
      PodUsageRecord rec;
      rec.pod_id = p;
      rec.host = 0;
      rec.collect_tick = t;
      rec.cpu_usage = cpu[p];
      rec.mem_usage = mem[p];
      rec.cpu_psi_60 = p < 2 ? 0.2 : 0.0;  // LS pods see some pressure
      rec.qps = p < 2 ? 100 : 0;
      trace.pod_usage.push_back(rec);
    }
  }
  // BE lifecycles.
  for (int p = 2; p < 4; ++p) {
    PodLifecycleRecord rec;
    rec.pod_id = p;
    rec.app_id = 1;
    rec.slo = SloClass::kBe;
    rec.submit_tick = 0;
    rec.schedule_tick = 0;
    rec.finish_tick = 100 + p;
    rec.actual_completion_ticks = 100 + p;
    rec.ideal_completion_ticks = 90;
    trace.lifecycles.push_back(rec);
  }
  return trace;
}

TEST(OfflineProfilerTest, EroFromCraftedTrace) {
  OfflineProfiler profiler;
  const EroTable ero = profiler.BuildEroTable(CraftedTrace());
  // Cross pair: reps are pod1 (0.06) and pod2 (0.03):
  // RO = (0.06+0.03)/(0.2+0.1) = 0.3.
  EXPECT_NEAR(ero.Get(0, 1), 0.3, 1e-9);
  // Same-app pair for app 0: (0.06+0.05)/0.4 = 0.275.
  EXPECT_NEAR(ero.Get(0, 0), 0.275, 1e-9);
  // Same-app pair for app 1: (0.03+0.02)/0.2 = 0.25.
  EXPECT_NEAR(ero.Get(1, 1), 0.25, 1e-9);
}

TEST(OfflineProfilerTest, ExtractsDatasetsWithCorrectShapes) {
  OfflineProfiler profiler;
  const AppDatasets datasets = profiler.ExtractDatasets(CraftedTrace());
  ASSERT_TRUE(datasets.ls.count(0));
  ASSERT_TRUE(datasets.be.count(1));
  const ml::Dataset& ls = datasets.ls.at(0);
  EXPECT_EQ(ls.num_features(), kLsFeatureCount);
  EXPECT_EQ(ls.size(), 400u);  // 2 pods x 200 ticks
  const ml::Dataset& be = datasets.be.at(1);
  EXPECT_EQ(be.num_features(), kBeFeatureCount);
  EXPECT_EQ(be.size(), 2u);  // one sample per completed pod
}

TEST(OfflineProfilerTest, AppStatsMaxima) {
  OfflineProfiler profiler;
  const AppDatasets datasets = profiler.ExtractDatasets(CraftedTrace());
  const AppStats& ls = datasets.stats.at(0);
  EXPECT_NEAR(ls.max_pod_cpu_util, 0.06 / 0.2, 1e-9);
  EXPECT_NEAR(ls.max_qps, 100, 1e-9);
  const AppStats& be = datasets.stats.at(1);
  EXPECT_NEAR(be.max_completion_ticks, 103, 1e-9);
}

TEST(OfflineProfilerTest, MemProfileGate) {
  OfflineProfiler profiler;
  const AppDatasets datasets = profiler.ExtractDatasets(CraftedTrace());
  // Both apps have perfectly stable memory: profile = max utilization.
  EXPECT_NEAR(datasets.stats.at(0).mem_profile, 0.05 / 0.1, 1e-9);
  EXPECT_NEAR(datasets.stats.at(1).mem_profile, 0.045 / 0.05, 1e-9);
}

TEST(OfflineProfilerTest, UnstableMemoryGetsConservativeProfile) {
  TraceBundle trace = CraftedTrace();
  // Make app 0's pods diverge in memory (CoV >> 0.01).
  for (auto& rec : trace.pod_usage) {
    if (rec.pod_id == 0) {
      rec.mem_usage = 0.02;
    } else if (rec.pod_id == 1) {
      rec.mem_usage = 0.09;
    }
  }
  OfflineProfiler profiler;
  const AppDatasets datasets = profiler.ExtractDatasets(trace);
  EXPECT_DOUBLE_EQ(datasets.stats.at(0).mem_profile, 1.0);
}

TEST(OfflineProfilerTest, BuildProfilesTrainsLsModel) {
  OfflineProfilerConfig config;
  config.min_samples = 50;
  config.evaluate_holdout = false;
  OfflineProfiler profiler(config);
  const OptumProfiles profiles = profiler.BuildProfiles(CraftedTrace());
  const AppModel* ls = profiles.Find(0);
  ASSERT_NE(ls, nullptr);
  EXPECT_TRUE(ls->usable());
  // Prediction near the constant 0.2 PSI (discretized to 0.2 with 25
  // buckets: bucket upper bound of 0.2 is 0.2).
  const double features[kLsFeatureCount] = {0.3, 0.5, 0.16, 0.19, 1.0};
  EXPECT_NEAR(ls->model->Predict(features), 0.2, 0.05);
}

TEST(OfflineProfilerTest, TooFewSamplesYieldsNoModel) {
  OfflineProfilerConfig config;
  config.min_samples = 10;  // BE app has only 2 samples
  OfflineProfiler profiler(config);
  const OptumProfiles profiles = profiler.BuildProfiles(CraftedTrace());
  const AppModel* be = profiles.Find(1);
  ASSERT_NE(be, nullptr);
  EXPECT_FALSE(be->usable());
  // Stats still available for the usage predictor.
  EXPECT_GT(be->stats.mem_profile, 0.0);
}

TEST(OfflineProfilerTest, UnknownAppAbsent) {
  OfflineProfiler profiler;
  const OptumProfiles profiles = profiler.BuildProfiles(CraftedTrace());
  EXPECT_EQ(profiles.Find(999), nullptr);
}

// --- ResourceUsagePredictor (Eq. 7-8) ----------------------------------------

class UsagePredictorFixture : public ::testing::Test {
 protected:
  UsagePredictorFixture() : cluster_(1, kUnitResources, 8) {
    app_a_.id = 0;
    app_a_.slo = SloClass::kLs;
    app_a_.request = {0.2, 0.1};
    app_b_.id = 1;
    app_b_.slo = SloClass::kBe;
    app_b_.request = {0.1, 0.05};

    profiles_.ero.Observe(0, 1, 0.4);
    profiles_.ero.Observe(0, 0, 0.3);
    AppModel model_a;
    model_a.stats.slo = SloClass::kLs;
    model_a.stats.mem_profile = 0.5;
    profiles_.apps.emplace(0, std::move(model_a));
    AppModel model_b;
    model_b.stats.slo = SloClass::kBe;
    model_b.stats.mem_profile = 0.9;
    profiles_.apps.emplace(1, std::move(model_b));
  }

  PodSpec Pod(PodId id, const AppProfile& app) {
    PodSpec pod;
    pod.id = id;
    pod.app = app.id;
    pod.slo = app.slo;
    pod.request = app.request;
    pod.limit = app.request * 2.0;
    return pod;
  }

  ClusterState cluster_;
  AppProfile app_a_, app_b_;
  OptumProfiles profiles_;
};

TEST_F(UsagePredictorFixture, EmptyHostWithIncomingIsFullRequest) {
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec pod = Pod(1, app_a_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &pod);
  // Single (odd) pod: full CPU request; memory via profile 0.5.
  EXPECT_NEAR(predicted.cpu, 0.2, 1e-12);
  EXPECT_NEAR(predicted.mem, 0.05, 1e-12);
}

TEST_F(UsagePredictorFixture, PairUsesEro) {
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec incoming = Pod(2, app_b_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &incoming);
  // Pair (A,B): ERO 0.4 * (0.2 + 0.1) = 0.12.
  EXPECT_NEAR(predicted.cpu, 0.12, 1e-12);
  // Memory: 0.5*0.1 + 0.9*0.05.
  EXPECT_NEAR(predicted.mem, 0.095, 1e-12);
}

TEST_F(UsagePredictorFixture, OddPodContributesFullRequest) {
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  cluster_.Place(Pod(2, app_a_), &app_a_, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec incoming = Pod(3, app_b_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &incoming);
  // Pair (A,A): 0.3 * 0.4 = 0.12; odd B: 0.1 full.
  EXPECT_NEAR(predicted.cpu, 0.22, 1e-12);
}

TEST_F(UsagePredictorFixture, UnknownPairDefaultsToFullRequests) {
  AppProfile stranger;
  stranger.id = 42;
  stranger.slo = SloClass::kBe;
  stranger.request = {0.3, 0.1};
  cluster_.Place(Pod(1, stranger), &stranger, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec incoming = Pod(2, app_a_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &incoming);
  // ERO(42, 0) unseen -> 1.0: full 0.3 + 0.2.
  EXPECT_NEAR(predicted.cpu, 0.5, 1e-12);
  // Unknown app memory profile defaults to 1.0.
  EXPECT_NEAR(predicted.mem, 0.1 + 0.05, 1e-12);
}

TEST_F(UsagePredictorFixture, PredictWithoutIncoming) {
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  cluster_.Place(Pod(2, app_b_), &app_b_, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), nullptr);
  EXPECT_NEAR(predicted.cpu, 0.4 * 0.3, 1e-12);
}

TEST_F(UsagePredictorFixture, PocNeverExceedsRequestSum) {
  // Property: with all ERO <= 1, POC <= sum of requests (Eq. 3).
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  cluster_.Place(Pod(2, app_b_), &app_b_, 0, 0);
  cluster_.Place(Pod(3, app_a_), &app_a_, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec incoming = Pod(4, app_b_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &incoming);
  const double request_sum = 0.2 + 0.1 + 0.2 + 0.1;
  EXPECT_LE(predicted.cpu, request_sum + 1e-12);
}

TEST_F(UsagePredictorFixture, AdapterMatchesImpl) {
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  OptumUsagePredictorAdapter adapter(&profiles_);
  ResourceUsagePredictor impl(&profiles_);
  EXPECT_DOUBLE_EQ(adapter.PredictHostCpu(cluster_.host(0)),
                   impl.PredictHost(cluster_.host(0), nullptr).cpu);
  EXPECT_EQ(adapter.name(), "Optum");
}

}  // namespace
}  // namespace optum::core
