// Property and stress tests for the scoring-cache layer:
//  - PredictionCache against a reference map under randomized
//    Insert/Find/Clear interleavings that force Grow() rehashes;
//  - the by-value Find() contract: lookups stay valid across inserts (the
//    old pointer-returning API dangled across an Insert-triggered Grow);
//  - lane-sharded InterferencePredictor caches hammered from concurrent
//    threads (distinct lanes) with results identical to serial lane 0;
//  - the epoch-keyed host-baseline cache: randomized Place/Remove/Observe/
//    InvalidateAll interleavings must never let a stale prediction survive
//    a Host::change_epoch or EroTable::version bump.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/interference_predictor.h"
#include "src/core/prediction_cache.h"
#include "src/core/resource_usage_predictor.h"
#include "src/ml/linear.h"
#include "src/stats/rng.h"
#include "src/trace/workload_generator.h"

namespace optum::core {
namespace {

// Keys mimic the real packing: AppId in the high word (never all-ones).
uint64_t RandomKey(Rng& rng) {
  const uint64_t app = rng.NextBelow(1u << 20);
  const uint64_t bucket = rng.NextBelow(1u << 24);
  return (app << 32) | bucket;
}

TEST(PredictionCachePropertyTest, MatchesReferenceMapUnderRandomOps) {
  Rng rng(1234);
  PredictionCache cache;
  std::unordered_map<uint64_t, double> reference;
  std::vector<uint64_t> inserted;

  for (int step = 0; step < 60000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.55) {
      // Insert a fresh key (the documented find-miss-compute-insert use).
      uint64_t key = RandomKey(rng);
      while (reference.count(key) != 0) {
        key = RandomKey(rng);
      }
      const double value = rng.NextDouble();
      cache.Insert(key, value);
      reference.emplace(key, value);
      inserted.push_back(key);
    } else if (roll < 0.9 && !inserted.empty()) {
      // Find a known key: must hit with the exact stored value.
      const uint64_t key = inserted[rng.NextBelow(inserted.size())];
      const auto found = cache.Find(key);
      ASSERT_TRUE(found.has_value());
      ASSERT_EQ(*found, reference.at(key));
    } else if (roll < 0.98) {
      // Find a key that was never inserted: must miss.
      uint64_t key = RandomKey(rng);
      while (reference.count(key) != 0) {
        key = RandomKey(rng);
      }
      ASSERT_FALSE(cache.Find(key).has_value());
    } else if (step < 20000) {
      // Clears only in the first third: the long tail of uninterrupted
      // inserts then has to push the table through several Grow() rehashes.
      cache.Clear();
      reference.clear();
      inserted.clear();
    }
    ASSERT_EQ(cache.size(), reference.size());
  }
  // The op mix must have grown the table at least once for the test to have
  // covered rehashing (55% of 60k steps >> the 4096-slot initial capacity).
  EXPECT_GT(cache.capacity(), 4096u);
  // Post-run sweep: every surviving key still maps to its exact value.
  for (const auto& [key, value] : reference) {
    const auto found = cache.Find(key);
    ASSERT_TRUE(found.has_value());
    ASSERT_EQ(*found, value);
  }
}

TEST(PredictionCachePropertyTest, FindResultsSurviveInsertTriggeredGrow) {
  // The old API returned a pointer into the table; Insert() can Grow() and
  // relocate every slot, leaving that pointer dangling. Find() now returns
  // by value, so a lookup taken before an arbitrary number of inserts must
  // stay exact — this pins the contract (and ASan would catch a regression
  // to reference-returning semantics).
  PredictionCache cache;
  cache.Insert(42, 0.125);
  const auto before_grow = cache.Find(42);
  ASSERT_TRUE(before_grow.has_value());

  const size_t capacity_before = cache.capacity();
  for (uint64_t i = 0; i < 8192; ++i) {
    cache.Insert((i << 32) | 7u, static_cast<double>(i));
  }
  ASSERT_GT(cache.capacity(), capacity_before);  // Grow() really happened.

  EXPECT_EQ(*before_grow, 0.125);
  const auto after_grow = cache.Find(42);
  ASSERT_TRUE(after_grow.has_value());
  EXPECT_EQ(*after_grow, 0.125);
}

TEST(PredictionCachePropertyTest, ClearKeepsCapacityAndForgetsKeys) {
  PredictionCache cache;
  for (uint64_t i = 0; i < 5000; ++i) {
    cache.Insert(i << 32, static_cast<double>(i));
  }
  const size_t grown = cache.capacity();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), grown);
  for (uint64_t i = 0; i < 5000; ++i) {
    EXPECT_FALSE(cache.Find(i << 32).has_value());
  }
}

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

// --- Lane-sharded predictor stress -------------------------------------------

std::unique_ptr<ml::Regressor> TrainedLsModel() {
  ml::Dataset d(kLsFeatureCount);
  for (double util = 0.0; util <= 2.0; util += 0.05) {
    const double features[kLsFeatureCount] = {0.5, 0.5, util, 0.3, 1.0};
    d.Add(features, 0.4 * util);
  }
  auto model = std::make_unique<ml::LinearRegressor>();
  model->Fit(d);
  return model;
}

OptumProfiles MakeLaneProfiles(int num_apps) {
  OptumProfiles profiles;
  for (AppId app = 0; app < num_apps; ++app) {
    AppModel m;
    m.stats.slo = SloClass::kLs;
    m.stats.max_pod_cpu_util = 0.5;
    m.stats.max_pod_mem_util = 0.5;
    m.discretizer = ml::Discretizer(0.0, 1.0, 25);
    m.model = TrainedLsModel();
    profiles.apps.emplace(app, std::move(m));
  }
  return profiles;
}

TEST(LaneShardedPredictorTest, ConcurrentLanesMatchSerialLaneZero) {
  constexpr int kApps = 16;
  const OptumProfiles profiles = MakeLaneProfiles(kApps);
  InterferencePredictor predictor(&profiles);

  // Query grid: (app, cpu, mem) tuples covering many cache buckets, with
  // repeats so every lane sees both cold misses and warm hits.
  struct Query {
    AppId app;
    double cpu;
    double mem;
  };
  std::vector<Query> queries;
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    queries.push_back(Query{static_cast<AppId>(rng.NextBelow(kApps)),
                            rng.NextDouble() * 2.0, rng.NextDouble() * 2.0});
  }

  // Serial ground truth through lane 0.
  std::vector<double> expected(queries.size());
  std::vector<double> expected_raw(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i] = predictor.Predict(queries[i].app, queries[i].cpu, queries[i].mem);
    expected_raw[i] =
        predictor.PredictRaw(queries[i].app, queries[i].cpu, queries[i].mem);
  }

  // Fresh predictor (cold caches), hammered from 8 lanes concurrently.
  // Cached values are pure functions of their keys, so every lane must
  // reproduce lane 0's serial answers exactly — and TSan must see no
  // cross-lane writes.
  InterferencePredictor sharded(&profiles);
  constexpr size_t kLanes = 8;
  sharded.set_num_lanes(kLanes);
  ASSERT_EQ(sharded.num_lanes(), kLanes);
  std::vector<double> got(queries.size());
  std::vector<double> got_raw(queries.size());
  for (int round = 0; round < 2; ++round) {  // round 2 hits warm lane caches
    ForEachOnLaneThreads(kLanes, queries.size(), [&](size_t lane, size_t i) {
      got[i] = sharded.Predict(queries[i].app, queries[i].cpu, queries[i].mem, lane);
      got_raw[i] =
          sharded.PredictRaw(queries[i].app, queries[i].cpu, queries[i].mem, lane);
    });
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "query " << i << " round " << round;
      ASSERT_EQ(got_raw[i], expected_raw[i]) << "query " << i << " round " << round;
    }
  }

  // ClearCache drops every lane's shard, not just lane 0.
  sharded.ClearCache();
  EXPECT_EQ(sharded.cache_size(), 0u);
  ForEachOnLaneThreads(kLanes, queries.size(), [&](size_t lane, size_t i) {
    got[i] = sharded.Predict(queries[i].app, queries[i].cpu, queries[i].mem, lane);
  });
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "after ClearCache, query " << i;
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
  ASSERT_TRUE(predictor.cache_enabled());

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
      const Resources base_rescan = predictor.PredictHostRescan(host, nullptr);
      ASSERT_EQ(base_cached.cpu, base_rescan.cpu) << "host " << host.id;
      ASSERT_EQ(base_cached.mem, base_rescan.mem) << "host " << host.id;
      const Resources inc_cached = predictor.PredictHost(host, &probe);
      const Resources inc_rescan = predictor.PredictHostRescan(host, &probe);
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
  // (TSan-verifiable) and check values against serial rescans.
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
    const Resources rescan =
        predictor.PredictHostRescan(cluster.host(static_cast<HostId>(i)), &probe);
    ASSERT_EQ(predicted[i].cpu, rescan.cpu) << "host " << i;
    ASSERT_EQ(predicted[i].mem, rescan.mem) << "host " << i;
  }
}

}  // namespace
}  // namespace optum::core
