// Equivalence and determinism guarantees for the performance architecture:
//  - the incremental host-scoring cache is bit-identical to full rescans,
//    at the predictor level and end-to-end (identical placement sequences
//    and headline aggregates on a seeded workload);
//  - the simulator tick's whole TraceBundle is bit-identical for every
//    lane count;
//  - the incrementally maintained per-host app counts and BE-mass index
//    match a from-scratch rebuild after arbitrary place/remove sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/core/resource_usage_predictor.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/stats/rng.h"
#include "src/trace/workload_generator.h"
#include "tests/sim_test_util.h"

namespace optum {
namespace {

using core::OptumConfig;
using core::OptumProfiles;
using core::OptumScheduler;
using core::ResourceUsagePredictor;
using core::ScoreMode;

// --- Shared fixtures ---------------------------------------------------------

Workload MakeWorkload(int hosts, Tick horizon, uint64_t seed) {
  WorkloadConfig config;
  config.num_hosts = hosts;
  config.horizon = horizon;
  config.seed = seed;
  return WorkloadGenerator(config).Generate();
}

SimConfig MakeSimConfig() {
  SimConfig config;
  config.pod_usage_period = 5;
  config.max_attempts_per_tick = 1500;
  return config;
}

OptumProfiles TrainProfiles(const Workload& workload, const SimConfig& sim_config,
                            bool with_triples) {
  AlibabaBaseline reference;
  const SimResult ref = Simulator(workload, sim_config, reference).Run();
  core::OfflineProfilerConfig prof;
  prof.max_train_samples = 600;
  prof.enable_triple_ero = with_triples;
  return core::OfflineProfiler(prof).BuildProfiles(ref.trace);
}

SimResult RunOptum(const Workload& workload, const SimConfig& sim_config,
                   OptumProfiles profiles, const OptumConfig& optum_config) {
  OptumScheduler optum(std::move(profiles), optum_config);
  SimConfig config = sim_config;
  config.on_tick_end = [&optum](const ClusterState& cluster, Tick now) {
    optum.ObserveColocation(cluster, now);
  };
  return Simulator(workload, config, optum).Run();
}

// Every decision and every headline aggregate must match exactly.
void ExpectIdenticalResults(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.trace.pods.size(), b.trace.pods.size());
  for (size_t i = 0; i < a.trace.pods.size(); ++i) {
    EXPECT_EQ(a.trace.pods[i].pod_id, b.trace.pods[i].pod_id) << "at " << i;
    EXPECT_EQ(a.trace.pods[i].original_machine_id, b.trace.pods[i].original_machine_id)
        << "placement diverged at decision " << i;
  }
  EXPECT_EQ(a.scheduled_pods, b.scheduled_pods);
  EXPECT_EQ(a.never_scheduled_pods, b.never_scheduled_pods);
  EXPECT_EQ(a.oom_kills, b.oom_kills);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.violation_host_ticks, b.violation_host_ticks);
  EXPECT_EQ(a.nonidle_host_ticks, b.nonidle_host_ticks);
  EXPECT_DOUBLE_EQ(a.MeanCpuUtilNonIdle(), b.MeanCpuUtilNonIdle());
  EXPECT_DOUBLE_EQ(a.MeanMemUtilNonIdle(), b.MeanMemUtilNonIdle());
  ASSERT_EQ(a.util_series.size(), b.util_series.size());
  for (size_t i = 0; i < a.util_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.util_series[i].avg_cpu_nonidle, b.util_series[i].avg_cpu_nonidle);
    EXPECT_DOUBLE_EQ(a.util_series[i].max_cpu, b.util_series[i].max_cpu);
  }
  ASSERT_EQ(a.trace.lifecycles.size(), b.trace.lifecycles.size());
  ASSERT_EQ(a.waits.size(), b.waits.size());
}

// --- Cached vs uncached scoring, end-to-end ----------------------------------

class CacheEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ScoreMode, bool>> {};

TEST_P(CacheEquivalenceTest, IdenticalDecisionsAndAggregates) {
  const auto [score_mode, use_triple] = GetParam();
  const Workload workload = MakeWorkload(200, 3 * kTicksPerHour, 29);
  const SimConfig sim_config = MakeSimConfig();
  const OptumProfiles profiles = TrainProfiles(workload, sim_config, use_triple);

  OptumConfig cached;
  cached.score_mode = score_mode;
  cached.use_triple_ero = use_triple;
  cached.use_incremental_cache = true;
  OptumConfig uncached = cached;
  uncached.use_incremental_cache = false;

  const SimResult with_cache = RunOptum(workload, sim_config, profiles, cached);
  const SimResult without_cache = RunOptum(workload, sim_config, profiles, uncached);
  ExpectIdenticalResults(with_cache, without_cache);
  EXPECT_GT(with_cache.scheduled_pods, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CacheEquivalenceTest,
    ::testing::Values(std::make_tuple(ScoreMode::kPaperAbsolute, false),
                      std::make_tuple(ScoreMode::kPaperAbsolute, true),
                      std::make_tuple(ScoreMode::kMarginal, false),
                      std::make_tuple(ScoreMode::kMarginal, true)));

// --- Predictor-level equivalence under mutation ------------------------------

TEST(IncrementalPredictorTest, MatchesRescanUnderPlacementAndEroChurn) {
  const Workload workload = MakeWorkload(8, kTicksPerHour, 11);
  for (const auto grouping : {ResourceUsagePredictor::Grouping::kPairwise,
                              ResourceUsagePredictor::Grouping::kTripleWise}) {
    OptumProfiles profiles;
    ClusterState cluster(8, kUnitResources, 16);
    ResourceUsagePredictor cached(&profiles, grouping);
    ASSERT_TRUE(cached.cache_enabled());

    Rng rng(123);
    std::vector<PodRuntime*> placed;
    size_t next_spec = 0;
    for (int step = 0; step < 400; ++step) {
      // Interleave placements, removals, and online ERO observations —
      // exactly the mutations the cache must invalidate on.
      const double roll = rng.NextDouble();
      if (roll < 0.55 && next_spec < workload.pods.size()) {
        const PodSpec& spec = workload.pods[next_spec++];
        const HostId host = static_cast<HostId>(rng.NextBelow(8));
        placed.push_back(cluster.Place(spec, &AppOf(workload, spec.app), host, 0));
      } else if (roll < 0.75 && !placed.empty()) {
        const size_t victim = rng.NextBelow(placed.size());
        cluster.Remove(placed[victim]);
        placed[victim] = placed.back();
        placed.pop_back();
      } else {
        const AppId a = static_cast<AppId>(rng.NextBelow(12));
        const AppId b = static_cast<AppId>(rng.NextBelow(12));
        profiles.ero.Observe(a, b, rng.NextDouble());
        if (grouping == ResourceUsagePredictor::Grouping::kTripleWise) {
          profiles.ero.ObserveTriple(a, b, static_cast<AppId>(rng.NextBelow(12)),
                                     rng.NextDouble());
        }
      }
      // Every host, as-is and with a hypothetical incoming pod: the cached
      // prediction must be bit-identical to the full rescan.
      const PodSpec& probe = workload.pods[rng.NextBelow(workload.pods.size())];
      for (const Host& host : cluster.hosts()) {
        const Resources base_cached = cached.PredictHost(host, nullptr);
        const Resources base_rescan = cached.PredictHostRescan(host, nullptr);
        EXPECT_DOUBLE_EQ(base_cached.cpu, base_rescan.cpu);
        EXPECT_DOUBLE_EQ(base_cached.mem, base_rescan.mem);
        const Resources inc_cached = cached.PredictHost(host, &probe);
        const Resources inc_rescan = cached.PredictHostRescan(host, &probe);
        EXPECT_DOUBLE_EQ(inc_cached.cpu, inc_rescan.cpu);
        EXPECT_DOUBLE_EQ(inc_cached.mem, inc_rescan.mem);
      }
    }
  }
}

TEST(IncrementalPredictorTest, InvalidateAllPicksUpProfileSwaps) {
  OptumProfiles profiles;
  ClusterState cluster(1, kUnitResources, 16);
  const Workload workload = MakeWorkload(1, kTicksPerHour, 3);
  const PodSpec& spec = workload.pods.front();
  cluster.Place(spec, &AppOf(workload, spec.app), 0, 0);

  ResourceUsagePredictor predictor(&profiles);
  const Resources before = predictor.PredictHost(cluster.host(0), nullptr);

  // Mutate the memory profile behind the predictor's back (what
  // ReplaceProfiles does wholesale) — the cache must be told.
  core::AppModel model;
  model.stats.mem_profile = 0.25;
  profiles.apps.emplace(spec.app, std::move(model));
  predictor.InvalidateAll();
  const Resources after = predictor.PredictHost(cluster.host(0), nullptr);
  EXPECT_DOUBLE_EQ(after.mem, 0.25 * spec.request.mem);
  EXPECT_NE(before.mem, after.mem);
  EXPECT_DOUBLE_EQ(after.cpu, predictor.PredictHostRescan(cluster.host(0), nullptr).cpu);
}

// --- Parallel tick determinism ----------------------------------------------

TEST(ParallelTickTest, BitIdenticalToSerial) {
  // Memory over-commitment (mem_guard > 1): the serial OOM pass and LSR
  // preemption both fire between crew rounds, so removals reshuffle
  // running_ mid-run.
  const Workload workload = testing_sim::OvercommitWorkload();
  BaselineOptions options;
  options.mem_guard = 1.4;
  const auto run = [&](size_t lanes) {
    SimConfig config = MakeSimConfig();
    config.num_lanes = lanes;
    AlibabaBaseline policy(options);
    return Simulator(workload, config, policy).Run();
  };

  const SimResult serial = run(1);
  EXPECT_GT(serial.oom_kills, 0);
  EXPECT_GT(serial.preemptions, 0);
  for (const size_t lanes : {size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "num_lanes=" << lanes);
    testing_sim::ExpectIdenticalSimResults(serial, run(lanes));
  }
}

// --- Incremental host-state maintenance --------------------------------------

TEST(HostStateMaintenanceTest, AppCountsAndBeMassMatchRebuild) {
  const Workload workload = MakeWorkload(6, kTicksPerHour, 5);
  ClusterState cluster(6, kUnitResources, 16);
  Rng rng(9);
  std::vector<PodRuntime*> placed;
  size_t next_spec = 0;
  for (int step = 0; step < 300; ++step) {
    if ((rng.NextDouble() < 0.6 && next_spec < workload.pods.size()) ||
        placed.empty()) {
      if (next_spec >= workload.pods.size()) {
        break;
      }
      const PodSpec& spec = workload.pods[next_spec++];
      placed.push_back(cluster.Place(spec, &AppOf(workload, spec.app),
                                     static_cast<HostId>(rng.NextBelow(6)), 0));
    } else {
      const size_t victim = rng.NextBelow(placed.size());
      cluster.Remove(placed[victim]);
      placed[victim] = placed.back();
      placed.pop_back();
    }

    size_t hosts_with_be_expected = 0;
    for (const Host& host : cluster.hosts()) {
      // Rebuild app counts from the pod list and compare.
      std::vector<HostAppCount> rebuilt;
      double be_cpu = 0.0;
      int be_count = 0;
      for (const PodRuntime* pod : host.pods) {
        auto it = std::find_if(rebuilt.begin(), rebuilt.end(), [&](const auto& c) {
          return c.app == pod->spec.app;
        });
        if (it == rebuilt.end()) {
          rebuilt.push_back(HostAppCount{pod->spec.app, pod->spec.slo, 1});
        } else {
          ++it->count;
        }
        if (pod->spec.slo == SloClass::kBe) {
          be_cpu += pod->spec.request.cpu;
          ++be_count;
        }
      }
      ASSERT_EQ(host.app_counts.size(), rebuilt.size()) << "host " << host.id;
      for (const auto& expected : rebuilt) {
        auto it = std::find_if(
            host.app_counts.begin(), host.app_counts.end(),
            [&](const auto& c) { return c.app == expected.app; });
        ASSERT_NE(it, host.app_counts.end());
        EXPECT_EQ(it->count, expected.count);
      }
      // Sorted-by-app invariant (interference sums rely on a canonical
      // iteration order).
      for (size_t i = 1; i < host.app_counts.size(); ++i) {
        EXPECT_LT(host.app_counts[i - 1].app, host.app_counts[i].app);
      }
      EXPECT_EQ(host.be_pod_count, be_count);
      EXPECT_NEAR(host.be_request_cpu, be_cpu, 1e-12);
      if (be_count > 0) {
        ++hosts_with_be_expected;
        EXPECT_NE(std::find(cluster.hosts_with_be().begin(),
                            cluster.hosts_with_be().end(), host.id),
                  cluster.hosts_with_be().end());
      }
    }
    EXPECT_EQ(cluster.hosts_with_be().size(), hosts_with_be_expected);
  }
}

// --- Wait-reason classification (single-computation restructure) -------------

class WaitReasonTest : public ::testing::TestWithParam<bool> {};

TEST_P(WaitReasonTest, ClassificationUnchangedByCache) {
  const bool use_cache = GetParam();
  // One tiny host; profiles empty so predictions fall back to full requests
  // (ERO = 1.0, mem_profile = 1.0) and classification is exact.
  OptumProfiles profiles;
  OptumConfig config;
  config.use_incremental_cache = use_cache;
  config.min_candidates = 1;
  OptumScheduler optum(std::move(profiles), config);
  ClusterState cluster(1, Resources{1.0, 1.0}, 16);

  AppProfile app;
  app.id = 4;
  app.slo = SloClass::kLs;

  auto decide = [&](Resources request) {
    PodSpec pod;
    pod.id = 1;
    pod.app = app.id;
    pod.slo = app.slo;
    pod.request = request;
    pod.limit = request;
    return optum.Place(pod, app, cluster);
  };

  EXPECT_EQ(decide({1.5, 0.1}).reason, WaitReason::kInsufficientCpu);
  EXPECT_EQ(decide({0.1, 0.95}).reason, WaitReason::kInsufficientMem);  // > 0.8 cap
  EXPECT_EQ(decide({1.5, 0.95}).reason, WaitReason::kInsufficientCpuAndMem);
  EXPECT_TRUE(decide({0.3, 0.3}).placed());

  // Anti-affinity with room left on the host: reason must be kOther.
  PodSpec limited;
  limited.id = 2;
  limited.app = app.id;
  limited.slo = app.slo;
  limited.request = {0.1, 0.1};
  limited.limit = {0.1, 0.1};
  limited.max_pods_per_host = 1;
  const PodSpec first = limited;
  cluster.Place(first, &app, 0, 0);
  EXPECT_EQ(optum.Place(limited, app, cluster).reason, WaitReason::kOther);
}

INSTANTIATE_TEST_SUITE_P(CachedAndUncached, WaitReasonTest, ::testing::Bool());

}  // namespace
}  // namespace optum
