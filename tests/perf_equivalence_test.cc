// Equivalence and determinism guarantees for the performance architecture:
//  - the epoch-keyed host baselines are bit-identical to the from-scratch
//    Eq. 8 oracle (tests/scoring_oracle.h), at the predictor level and at
//    every tick of a seeded end-to-end run, whose result digest is pinned
//    per scoring mode;
//  - the simulator tick's whole TraceBundle is bit-identical for every
//    lane count;
//  - the incrementally maintained per-host state passes
//    ClusterState::CheckInvariants() after arbitrary place/remove sequences.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/core/resource_usage_predictor.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/stats/rng.h"
#include "src/trace/workload_generator.h"
#include "tests/scoring_oracle.h"
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

// Bitwise equality of two predictions.
bool SameBits(const Resources& a, const Resources& b) {
  return std::bit_cast<uint64_t>(a.cpu) == std::bit_cast<uint64_t>(b.cpu) &&
         std::bit_cast<uint64_t>(a.mem) == std::bit_cast<uint64_t>(b.mem);
}

// --- One scoring path, end-to-end --------------------------------------------

class CacheEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ScoreMode, bool>> {};

// Runs Optum once per mode. At the end of every tick the cluster passes its
// invariant checker, and the scheduler's PredictHost equals the oracle on
// every host, as-is and with a probe pod appended. The pinned result digests
// are the values the deleted cache-off configuration produced too, so the
// one scoring path makes exactly the pre-incremental decisions.
TEST_P(CacheEquivalenceTest, IdenticalDecisionsAndAggregates) {
  const auto [score_mode, use_triple] = GetParam();
  const Workload workload = MakeWorkload(200, 3 * kTicksPerHour, 29);
  const SimConfig sim_config = MakeSimConfig();
  OptumConfig optum_config;
  optum_config.score_mode = score_mode;
  optum_config.use_triple_ero = use_triple;
  OptumScheduler optum(TrainProfiles(workload, sim_config, use_triple), optum_config);
  const ResourceUsagePredictor::Grouping grouping = optum.usage_predictor().grouping();

  SimConfig config = sim_config;
  int64_t checked_ticks = 0;
  std::string first_error;
  config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
    optum.ObserveColocation(cluster, now);
    ++checked_ticks;
    testing_sim::KeepFirstInvariantError(cluster, now, &first_error);
    const PodSpec& probe =
        workload.pods[static_cast<size_t>(now) * 7919 % workload.pods.size()];
    for (const Host& host : cluster.hosts()) {
      for (const PodSpec* incoming : {static_cast<const PodSpec*>(nullptr), &probe}) {
        const Resources got = optum.usage_predictor().PredictHost(host, incoming);
        const Resources want =
            testing_oracle::PredictHost(optum.profiles(), grouping, host, incoming);
        if (!SameBits(got, want) && first_error.empty()) {
          first_error = "tick " + std::to_string(now) + ": PredictHost of host " +
                        std::to_string(host.id) + " differs from the oracle";
        }
      }
    }
  };
  const SimResult result = Simulator(workload, config, optum).Run();
  EXPECT_EQ(checked_ticks, workload.config.horizon);
  EXPECT_EQ(first_error, "");
  EXPECT_GT(result.scheduled_pods, 0);

  const uint64_t want_digest = score_mode == ScoreMode::kPaperAbsolute
                                   ? (use_triple ? 5166776195272395666ULL
                                                 : 14820071295971155219ULL)
                                   : (use_triple ? 11724099321733679068ULL
                                                 : 2086296213680431445ULL);
  EXPECT_EQ(testing_sim::SimResultDigest(result), want_digest);
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
      // prediction must be bit-identical to the oracle's full rescan.
      const PodSpec& probe = workload.pods[rng.NextBelow(workload.pods.size())];
      for (const Host& host : cluster.hosts()) {
        for (const PodSpec* incoming : {static_cast<const PodSpec*>(nullptr), &probe}) {
          EXPECT_TRUE(SameBits(cached.PredictHost(host, incoming),
                               testing_oracle::PredictHost(profiles, grouping, host,
                                                           incoming)))
              << "host " << host.id << " step " << step;
        }
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
  EXPECT_TRUE(SameBits(after, testing_oracle::PredictHost(profiles, predictor.grouping(),
                                                         cluster.host(0), nullptr)));
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

// Every derived field ClusterState maintains (app counts, SLO counts, BE mass
// and index, request/limit sums, running count) against its rebuild.
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

    ASSERT_EQ(cluster.CheckInvariants(), "") << "after step " << step;
  }
}

// --- Wait-reason classification (single-computation restructure) -------------

// The parameter is the state of the epoch-keyed baseline cache at each
// decision: true warms every host's baseline on one long-lived scheduler
// first; false decides on a fresh scheduler, so every baseline is computed
// cold inside Place(). The classification must not depend on it.
class WaitReasonTest : public ::testing::TestWithParam<bool> {};

TEST_P(WaitReasonTest, ClassificationUnchangedByCache) {
  const bool warm_cache = GetParam();
  // One tiny host; profiles empty so predictions fall back to full requests
  // (ERO = 1.0, mem_profile = 1.0) and classification is exact.
  OptumConfig config;
  config.min_candidates = 1;
  OptumScheduler warm(OptumProfiles{}, config);
  ClusterState cluster(1, Resources{1.0, 1.0}, 16);

  AppProfile app;
  app.id = 4;
  app.slo = SloClass::kLs;

  auto place = [&](const PodSpec& pod) {
    if (!warm_cache) {
      OptumScheduler cold(OptumProfiles{}, config);
      return cold.Place(pod, app, cluster);
    }
    for (const Host& host : cluster.hosts()) {
      warm.usage_predictor().PredictHost(host, nullptr);
    }
    return warm.Place(pod, app, cluster);
  };
  auto decide = [&](Resources request) {
    PodSpec pod;
    pod.id = 1;
    pod.app = app.id;
    pod.slo = app.slo;
    pod.request = request;
    pod.limit = request;
    return place(pod);
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
  EXPECT_EQ(place(limited).reason, WaitReason::kOther);
}

INSTANTIATE_TEST_SUITE_P(CachedAndUncached, WaitReasonTest, ::testing::Bool());

}  // namespace
}  // namespace optum
