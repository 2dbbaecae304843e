// Tests for Optum's online components: interference predictor (Eq. 9-10),
// node selector / scheduler (Eq. 11), and the deployment module (§4.4).
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "src/core/deployment.h"
#include "src/core/interference_predictor.h"
#include "src/core/optum_scheduler.h"
#include "src/ml/linear.h"

namespace optum::core {
namespace {

// A fake "model": linear in host CPU utilization so interference predictions
// are easy to reason about. Trained on two points.
std::unique_ptr<ml::Regressor> LinearPsiModel(double slope) {
  ml::Dataset d(kLsFeatureCount);
  // psi = slope * host_cpu_util; other features held at reference values.
  for (double util = 0.0; util <= 1.0; util += 0.1) {
    const double features[kLsFeatureCount] = {0.5, 0.5, util, 0.3, 1.0};
    d.Add(features, slope * util);
  }
  auto model = std::make_unique<ml::LinearRegressor>();
  model->Fit(d);
  return model;
}

std::unique_ptr<ml::Regressor> LinearCtModel(double base, double slope) {
  ml::Dataset d(kBeFeatureCount);
  for (double util = 0.0; util <= 1.0; util += 0.1) {
    const double features[kBeFeatureCount] = {0.5, 0.5, util, 0.3};
    d.Add(features, base + slope * util);
  }
  auto model = std::make_unique<ml::LinearRegressor>();
  model->Fit(d);
  return model;
}

OptumProfiles MakeProfiles() {
  OptumProfiles profiles;
  AppModel ls;
  ls.stats.slo = SloClass::kLs;
  ls.stats.max_pod_cpu_util = 0.5;
  ls.stats.max_pod_mem_util = 0.5;
  ls.stats.mem_profile = 0.5;
  ls.discretizer = ml::Discretizer(0.0, 1.0, 25);
  ls.model = LinearPsiModel(0.8);
  profiles.apps.emplace(0, std::move(ls));

  AppModel be;
  be.stats.slo = SloClass::kBe;
  be.stats.max_pod_cpu_util = 0.5;
  be.stats.max_pod_mem_util = 0.5;
  be.stats.mem_profile = 0.9;
  be.discretizer = ml::Discretizer(0.0, 1.0, 25);
  be.model = LinearCtModel(0.3, 0.4);
  profiles.apps.emplace(1, std::move(be));

  profiles.ero.Observe(0, 0, 0.3);
  profiles.ero.Observe(0, 1, 0.35);
  profiles.ero.Observe(1, 1, 0.4);
  return profiles;
}

AppProfile MakeApp(AppId id, SloClass slo, Resources request) {
  AppProfile app;
  app.id = id;
  app.slo = slo;
  app.request = request;
  app.limit = request * 2.0;
  return app;
}

class InterferencePredictorTest : public ::testing::Test {
 protected:
  InterferencePredictorTest()
      : profiles_(MakeProfiles()),
        predictor_(&profiles_),
        cluster_(2, kUnitResources, 8),
        ls_app_(MakeApp(0, SloClass::kLs, {0.2, 0.1})),
        be_app_(MakeApp(1, SloClass::kBe, {0.1, 0.05})) {}

  OptumProfiles profiles_;
  InterferencePredictor predictor_;
  ClusterState cluster_;
  AppProfile ls_app_, be_app_;
};

TEST_F(InterferencePredictorTest, LsPredictionRisesWithUtil) {
  const double low = predictor_.Predict(0, 0.1, 0.3);
  const double high = predictor_.Predict(0, 0.9, 0.3);
  EXPECT_LT(low, high);
  // Discretized to 25-bucket upper bounds.
  EXPECT_NEAR(high, 0.72, 0.08);
}

TEST_F(InterferencePredictorTest, UnknownAppPredictsZero) {
  EXPECT_DOUBLE_EQ(predictor_.Predict(99, 0.9, 0.9), 0.0);
}

TEST_F(InterferencePredictorTest, CachingIsStableAndBucketed) {
  // Hand-made profiles carry no tables, so the predictor fills its own; a
  // prediction is one table read per call, the same value across a bucket
  // and across a Reload().
  const double a = predictor_.Predict(0, 0.501, 0.3);
  const double b = predictor_.Predict(0, 0.502, 0.3);  // same bucket
  EXPECT_DOUBLE_EQ(a, b);
  predictor_.Reload();
  EXPECT_EQ(predictor_.Predict(0, 0.501, 0.3), a);
  const InterferencePredictor::CacheStats stats = predictor_.cache_stats();
  EXPECT_EQ(stats.predict_hits, 3u);
  EXPECT_EQ(stats.predict_misses, 0u);
  EXPECT_EQ(stats.forest_evals(), 0u);
}

TEST_F(InterferencePredictorTest, TotalInterferenceWeightsClasses) {
  cluster_.Place(MakePodSpec(1, ls_app_), &ls_app_, 0, 0);
  cluster_.Place(MakePodSpec(2, be_app_), &be_app_, 0, 0);
  const PodSpec incoming = MakePodSpec(3, be_app_);
  const double ls_only =
      predictor_.TotalInterference(cluster_.host(0), incoming, 0.9, 0.5, 1.0, 0.0);
  const double be_only =
      predictor_.TotalInterference(cluster_.host(0), incoming, 0.9, 0.5, 0.0, 1.0);
  const double both =
      predictor_.TotalInterference(cluster_.host(0), incoming, 0.9, 0.5, 1.0, 1.0);
  EXPECT_NEAR(ls_only + be_only, both, 1e-9);
  EXPECT_GT(ls_only, 0.0);
  EXPECT_GT(be_only, 0.0);
}

TEST_F(InterferencePredictorTest, MarginalInterferenceIgnoresConstantPart) {
  // Existing BE pods have a large constant CT component (base 0.3); the
  // marginal form should charge only the utilization-driven increment.
  for (int i = 0; i < 10; ++i) {
    cluster_.Place(MakePodSpec(10 + i, be_app_), &be_app_, 0, 0);
  }
  const PodSpec incoming = MakePodSpec(99, be_app_);
  const double absolute =
      predictor_.TotalInterference(cluster_.host(0), incoming, 0.5, 0.3, 0.7, 0.3);
  const double marginal = predictor_.MarginalInterference(
      cluster_.host(0), incoming, 0.5, 0.3, 0.5, 0.3, 0.7, 0.3);
  // Same before/after utilization: marginal = just the incoming pod's RI.
  EXPECT_LT(marginal, absolute);
  EXPECT_GT(marginal, 0.0);
}

TEST_F(InterferencePredictorTest, MarginalGrowsWithUtilDelta) {
  for (int i = 0; i < 5; ++i) {
    cluster_.Place(MakePodSpec(10 + i, ls_app_), &ls_app_, 0, 0);
  }
  const PodSpec incoming = MakePodSpec(99, ls_app_);
  const double small_delta = predictor_.MarginalInterference(
      cluster_.host(0), incoming, 0.5, 0.3, 0.55, 0.3, 1.0, 0.0);
  const double large_delta = predictor_.MarginalInterference(
      cluster_.host(0), incoming, 0.5, 0.3, 0.95, 0.3, 1.0, 0.0);
  EXPECT_GT(large_delta, small_delta);
}

// --- OptumScheduler -----------------------------------------------------------

class OptumSchedulerTest : public ::testing::Test {
 protected:
  OptumSchedulerTest()
      : cluster_(4, kUnitResources, 8),
        ls_app_(MakeApp(0, SloClass::kLs, {0.2, 0.1})),
        be_app_(MakeApp(1, SloClass::kBe, {0.1, 0.05})) {}

  OptumConfig FullScanConfig() {
    OptumConfig config;
    config.sample_fraction = 1.0;
    config.min_candidates = 4;
    return config;
  }

  ClusterState cluster_;
  AppProfile ls_app_, be_app_;
};

TEST_F(OptumSchedulerTest, PacksOntoUtilizedHost) {
  OptumScheduler sched(MakeProfiles(), FullScanConfig());
  cluster_.Place(MakePodSpec(10, ls_app_), &ls_app_, 2, 0);
  const PlacementDecision d = sched.Place(MakePodSpec(1, be_app_), be_app_, cluster_);
  ASSERT_TRUE(d.placed());
  EXPECT_EQ(d.host, 2);  // highest utilization product
}

TEST_F(OptumSchedulerTest, MemoryCapRejects) {
  OptumConfig config = FullScanConfig();
  config.mem_util_limit = 0.5;
  OptumScheduler sched(MakeProfiles(), config);
  // Fill all hosts to predicted mem 0.5: LS profile 0.5 x 0.1 mem request
  // per pod -> 10 pods = 0.5 predicted.
  for (HostId h = 0; h < 4; ++h) {
    for (int i = 0; i < 10; ++i) {
      cluster_.Place(MakePodSpec(100 + h * 10 + i, ls_app_), &ls_app_, h, 0);
    }
  }
  const PlacementDecision d = sched.Place(MakePodSpec(1, ls_app_), ls_app_, cluster_);
  EXPECT_FALSE(d.placed());
  EXPECT_EQ(d.reason, WaitReason::kInsufficientMem);
}

TEST_F(OptumSchedulerTest, CpuFeasibilityUsesPoc) {
  OptumScheduler sched(MakeProfiles(), FullScanConfig());
  // ERO(0,0)=0.3: pairs of LS pods cost 0.3*0.4=0.12 POC. 16 pods = 8 pairs
  // = 0.96 POC; one more pod (odd) pushes past 1.0.
  for (HostId h = 0; h < 4; ++h) {
    for (int i = 0; i < 16; ++i) {
      cluster_.Place(MakePodSpec(100 + h * 20 + i, ls_app_), &ls_app_, h, 0);
    }
  }
  const PlacementDecision d = sched.Place(MakePodSpec(1, ls_app_), ls_app_, cluster_);
  EXPECT_FALSE(d.placed());
  // CPU must be implicated (memory may saturate simultaneously at this
  // packing depth).
  EXPECT_TRUE(d.reason == WaitReason::kInsufficientCpu ||
              d.reason == WaitReason::kInsufficientCpuAndMem);
}

TEST_F(OptumSchedulerTest, ScoreHostExposed) {
  OptumScheduler sched(MakeProfiles(), FullScanConfig());
  cluster_.Place(MakePodSpec(10, ls_app_), &ls_app_, 0, 0);
  double score_loaded = 0.0, score_empty = 0.0;
  EXPECT_TRUE(sched.ScoreHost(MakePodSpec(1, be_app_), cluster_.host(0), &score_loaded));
  EXPECT_TRUE(sched.ScoreHost(MakePodSpec(1, be_app_), cluster_.host(1), &score_empty));
  EXPECT_GT(score_loaded, score_empty);
}

TEST_F(OptumSchedulerTest, AffinityHonored) {
  OptumScheduler sched(MakeProfiles(), FullScanConfig());
  PodSpec pod = MakePodSpec(1, ls_app_);
  pod.max_pods_per_host = 1;
  for (HostId h = 0; h < 4; ++h) {
    PodSpec existing = MakePodSpec(100 + h, ls_app_);
    existing.max_pods_per_host = 1;
    cluster_.Place(existing, &ls_app_, h, 0);
  }
  const PlacementDecision d = sched.Place(pod, ls_app_, cluster_);
  EXPECT_FALSE(d.placed());
}

// Two schedulers scoring the same cluster at once, as the coordinator's
// shard lanes do, decide exactly as one scheduler scoring alone.
TEST_F(OptumSchedulerTest, MultithreadedScoringMatchesSequential) {
  OptumScheduler s1(MakeProfiles(), FullScanConfig());
  OptumScheduler s2(MakeProfiles(), FullScanConfig());
  OptumScheduler alone(MakeProfiles(), FullScanConfig());
  cluster_.Place(MakePodSpec(10, ls_app_), &ls_app_, 1, 0);
  cluster_.Place(MakePodSpec(11, ls_app_), &ls_app_, 1, 0);
  cluster_.Place(MakePodSpec(12, be_app_), &be_app_, 3, 0);
  const PlacementDecision expected =
      alone.Place(MakePodSpec(1, be_app_), be_app_, cluster_);
  PlacementDecision d2;
  std::thread other([&] { d2 = s2.Place(MakePodSpec(1, be_app_), be_app_, cluster_); });
  const PlacementDecision d1 = s1.Place(MakePodSpec(1, be_app_), be_app_, cluster_);
  other.join();
  EXPECT_EQ(d1.host, expected.host);
  EXPECT_EQ(d2.host, expected.host);
}

TEST_F(OptumSchedulerTest, PaperAbsoluteModeAlsoPlaces) {
  OptumConfig config = FullScanConfig();
  config.score_mode = ScoreMode::kPaperAbsolute;
  OptumScheduler sched(MakeProfiles(), config);
  const PlacementDecision d = sched.Place(MakePodSpec(1, ls_app_), ls_app_, cluster_);
  EXPECT_TRUE(d.placed());
}

TEST_F(OptumSchedulerTest, ObserveColocationTightensEro) {
  OptumScheduler sched(MakeProfiles(), FullScanConfig());
  // Co-locate two apps with no prior ERO entry: app 5 and app 6.
  AppProfile a5 = MakeApp(5, SloClass::kBe, {0.2, 0.05});
  AppProfile a6 = MakeApp(6, SloClass::kBe, {0.2, 0.05});
  PodRuntime* p5 = cluster_.Place(MakePodSpec(50, a5), &a5, 0, 0);
  PodRuntime* p6 = cluster_.Place(MakePodSpec(60, a6), &a6, 0, 0);
  p5->cpu_usage = 0.05;
  p6->cpu_usage = 0.07;
  EXPECT_DOUBLE_EQ(sched.profiles().ero.Get(5, 6), 1.0);
  sched.ObserveColocation(cluster_, 100);
  EXPECT_NEAR(sched.profiles().ero.Get(5, 6), 0.12 / 0.4, 1e-9);
  // Rate limiting: a second observation within the period is skipped.
  p5->cpu_usage = 0.2;
  sched.ObserveColocation(cluster_, 101);
  EXPECT_NEAR(sched.profiles().ero.Get(5, 6), 0.12 / 0.4, 1e-9);
  // After the period it updates (max semantics).
  sched.ObserveColocation(cluster_, 111);
  EXPECT_NEAR(sched.profiles().ero.Get(5, 6), 0.27 / 0.4, 1e-9);
}

// --- DeploymentModule ----------------------------------------------------------

TEST(DeploymentModuleTest, NoConflictAllCommit) {
  DeploymentModule dm;
  const DeploymentOutcome out =
      dm.Resolve({{1, 0, 0.5}, {2, 1, 0.3}, {3, 2, 0.9}});
  EXPECT_EQ(out.committed.size(), 3u);
  EXPECT_TRUE(out.redispatched.empty());
}

TEST(DeploymentModuleTest, HighestScoreWinsConflict) {
  DeploymentModule dm;
  const DeploymentOutcome out = dm.Resolve({{1, 0, 0.5}, {2, 0, 0.8}, {3, 0, 0.2}});
  ASSERT_EQ(out.committed.size(), 1u);
  EXPECT_EQ(out.committed[0].pod, 2);
  EXPECT_EQ(out.redispatched.size(), 2u);
}

TEST(DeploymentModuleTest, TieBreaksTowardLowerPodId) {
  DeploymentModule dm;
  const DeploymentOutcome out = dm.Resolve({{7, 0, 0.5}, {3, 0, 0.5}});
  ASSERT_EQ(out.committed.size(), 1u);
  EXPECT_EQ(out.committed[0].pod, 3);
}

TEST(DeploymentModuleTest, MixedConflicts) {
  DeploymentModule dm;
  const DeploymentOutcome out =
      dm.Resolve({{1, 0, 0.1}, {2, 0, 0.9}, {3, 1, 0.5}, {4, 1, 0.4}, {5, 2, 0.0}});
  EXPECT_EQ(out.committed.size(), 3u);
  EXPECT_EQ(out.redispatched.size(), 2u);
  for (const auto& c : out.committed) {
    for (const auto& r : out.redispatched) {
      if (c.host == r.host) {
        EXPECT_GE(c.score, r.score);
      }
    }
  }
}

TEST(DeploymentModuleTest, EmptyInput) {
  DeploymentModule dm;
  const DeploymentOutcome out = dm.Resolve({});
  EXPECT_TRUE(out.committed.empty());
  EXPECT_TRUE(out.redispatched.empty());
}

}  // namespace
}  // namespace optum::core
