// Property and stress tests for the epoch-keyed host-baseline cache:
// randomized Place/Remove/Observe/InvalidateAll interleavings must never let
// a stale prediction survive a Host::change_epoch or EroTable::version bump,
// and concurrent predictions on distinct hosts must match the from-scratch
// Eq. 8 oracle (tests/scoring_oracle.h).
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "src/core/resource_usage_predictor.h"
#include "src/stats/rng.h"
#include "src/trace/workload_generator.h"
#include "tests/scoring_oracle.h"

namespace optum::core {
namespace {

// Runs fn(lane, i) for every i in [0, n) with one thread per lane; lane
// `lane` takes the indices congruent to it modulo num_lanes.
void ForEachOnLaneThreads(size_t num_lanes, size_t n,
                          const std::function<void(size_t, size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(num_lanes);
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    threads.emplace_back([&fn, num_lanes, n, lane] {
      for (size_t i = lane; i < n; i += num_lanes) {
        fn(lane, i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// --- Epoch-keyed host-baseline cache -----------------------------------------

TEST(HostBaselineCacheStressTest, NoStaleHitSurvivesEpochOrVersionBumps) {
  WorkloadConfig wconfig;
  wconfig.num_hosts = 6;
  wconfig.horizon = kTicksPerHour;
  wconfig.seed = 19;
  const Workload workload = WorkloadGenerator(wconfig).Generate();

  OptumProfiles profiles;
  ClusterState cluster(6, kUnitResources, 16);
  ResourceUsagePredictor predictor(&profiles);
  const auto oracle = [&](const Host& host, const PodSpec* incoming) {
    return testing_oracle::PredictHost(profiles, predictor.grouping(), host, incoming);
  };

  Rng rng(4321);
  std::vector<PodRuntime*> placed;
  size_t next_spec = 0;
  uint64_t epoch_bumps = 0;
  uint64_t version_bumps = 0;
  for (int step = 0; step < 1500; ++step) {
    // Warm the cache for every host before mutating, so a broken
    // invalidation check would serve the pre-mutation (stale) baseline.
    for (const Host& host : cluster.hosts()) {
      (void)predictor.PredictHost(host, nullptr);
    }

    const double roll = rng.NextDouble();
    if (roll < 0.45 && next_spec < workload.pods.size()) {
      const PodSpec& spec = workload.pods[next_spec++];
      const HostId host = static_cast<HostId>(rng.NextBelow(6));
      const uint64_t before = cluster.host(host).change_epoch;
      placed.push_back(cluster.Place(spec, &AppOf(workload, spec.app), host, 0));
      ASSERT_GT(cluster.host(host).change_epoch, before);
      ++epoch_bumps;
    } else if (roll < 0.65 && !placed.empty()) {
      const size_t victim = rng.NextBelow(placed.size());
      cluster.Remove(placed[victim]);
      placed[victim] = placed.back();
      placed.pop_back();
      ++epoch_bumps;
    } else if (roll < 0.95) {
      // Online ERO churn; version() bumps only when a coefficient rises.
      const uint64_t before = profiles.ero.version();
      profiles.ero.Observe(static_cast<AppId>(rng.NextBelow(10)),
                           static_cast<AppId>(rng.NextBelow(10)), rng.NextDouble());
      version_bumps += profiles.ero.version() != before ? 1 : 0;
    } else {
      predictor.InvalidateAll();
    }

    // After every mutation, cached predictions must equal a from-scratch
    // rescan for every host, as-is and with a hypothetical incoming pod.
    const PodSpec& probe = workload.pods[rng.NextBelow(workload.pods.size())];
    for (const Host& host : cluster.hosts()) {
      const Resources base_cached = predictor.PredictHost(host, nullptr);
      const Resources base_rescan = oracle(host, nullptr);
      ASSERT_EQ(base_cached.cpu, base_rescan.cpu) << "host " << host.id;
      ASSERT_EQ(base_cached.mem, base_rescan.mem) << "host " << host.id;
      const Resources inc_cached = predictor.PredictHost(host, &probe);
      const Resources inc_rescan = oracle(host, &probe);
      ASSERT_EQ(inc_cached.cpu, inc_rescan.cpu) << "host " << host.id;
      ASSERT_EQ(inc_cached.mem, inc_rescan.mem) << "host " << host.id;
    }
  }
  // The interleaving must actually have exercised both invalidation axes.
  EXPECT_GT(epoch_bumps, 100u);
  EXPECT_GT(version_bumps, 10u);
}

TEST(HostBaselineCacheStressTest, ParallelDistinctHostPredictionsAreSafe) {
  // PredictHost's contract: concurrent calls on distinct hosts touch
  // distinct cache slots. Drive that pattern from several threads
  // (TSan-verifiable) and check values against the oracle.
  WorkloadConfig wconfig;
  wconfig.num_hosts = 64;
  wconfig.horizon = kTicksPerHour;
  wconfig.seed = 3;
  const Workload workload = WorkloadGenerator(wconfig).Generate();

  OptumProfiles profiles;
  ClusterState cluster(64, kUnitResources, 16);
  size_t next_spec = 0;
  for (HostId h = 0; h < 64; ++h) {
    for (int k = 0; k < 3 && next_spec < workload.pods.size(); ++k) {
      const PodSpec& spec = workload.pods[next_spec++];
      cluster.Place(spec, &AppOf(workload, spec.app), h, 0);
    }
  }

  ResourceUsagePredictor predictor(&profiles);
  predictor.ReserveHosts(cluster.num_hosts());
  const PodSpec& probe = workload.pods.front();
  std::vector<Resources> predicted(cluster.num_hosts());
  ForEachOnLaneThreads(4, cluster.num_hosts(), [&](size_t, size_t i) {
    predicted[i] = predictor.PredictHost(cluster.host(static_cast<HostId>(i)), &probe);
  });
  for (size_t i = 0; i < cluster.num_hosts(); ++i) {
    const Resources rescan = testing_oracle::PredictHost(
        profiles, predictor.grouping(), cluster.host(static_cast<HostId>(i)), &probe);
    ASSERT_EQ(predicted[i].cpu, rescan.cpu) << "host " << i;
    ASSERT_EQ(predicted[i].mem, rescan.mem) << "host " << i;
  }
}

}  // namespace
}  // namespace optum::core
