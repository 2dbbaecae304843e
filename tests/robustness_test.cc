// Failure-injection and robustness tests: malformed trace files, corrupted
// inputs, degenerate configurations, and cross-path consistency checks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "src/optum.h"

namespace optum {
namespace {

namespace fs = std::filesystem;

class TraceIoRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs test processes in parallel, and a shared
    // directory races with other instances' TearDown remove_all.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("optum_robustness_") + info->name() + "_" +
             std::to_string(static_cast<long>(::getpid()))))
               .string();
    // Write a valid bundle first.
    TraceBundle bundle;
    bundle.nodes.push_back(NodeMeta{0, kUnitResources});
    PodMeta pod;
    pod.pod_id = 1;
    pod.app_id = 2;
    pod.slo = SloClass::kBe;
    pod.request = {0.1, 0.05};
    pod.limit = {0.2, 0.1};
    bundle.pods.push_back(pod);
    bundle.node_usage.push_back(NodeUsageRecord{0, 0, 0.5, 0.4, 0, 0});
    ASSERT_TRUE(WriteTraceBundle(bundle, dir_));
  }
  void TearDown() override { fs::remove_all(dir_); }

  void Corrupt(const std::string& file, const std::string& line) {
    std::ofstream out(dir_ + "/" + file, std::ios::app);
    out << line << "\n";
  }

  std::string dir_;
};

TEST_F(TraceIoRobustnessTest, ValidBundleLoads) {
  TraceBundle loaded;
  EXPECT_TRUE(ReadTraceBundle(dir_, &loaded));
  EXPECT_EQ(loaded.pods.size(), 1u);
}

TEST_F(TraceIoRobustnessTest, WrongColumnCountRejected) {
  Corrupt("pods.csv", "1,2,3");  // 3 fields instead of 9
  TraceBundle loaded;
  EXPECT_FALSE(ReadTraceBundle(dir_, &loaded));
}

TEST_F(TraceIoRobustnessTest, GarbageRowRejected) {
  Corrupt("node_usage.csv", "not,numbers,at,all,xx,yy");
  TraceBundle loaded;
  EXPECT_FALSE(ReadTraceBundle(dir_, &loaded));
}

TEST_F(TraceIoRobustnessTest, MissingFileRejected) {
  fs::remove(dir_ + "/lifecycles.csv");
  TraceBundle loaded;
  EXPECT_FALSE(ReadTraceBundle(dir_, &loaded));
}

TEST_F(TraceIoRobustnessTest, BlankLinesTolerated) {
  Corrupt("pods.csv", "");
  TraceBundle loaded;
  EXPECT_TRUE(ReadTraceBundle(dir_, &loaded));
  EXPECT_EQ(loaded.pods.size(), 1u);
}

// --- Degenerate configurations ------------------------------------------------

TEST(DegenerateConfigTest, ProfilerOnEmptyTrace) {
  core::OfflineProfiler profiler;
  const core::OptumProfiles profiles = profiler.BuildProfiles(TraceBundle{});
  EXPECT_EQ(profiles.apps.size(), 0u);
  EXPECT_EQ(profiles.ero.size(), 0u);
}

TEST(DegenerateConfigTest, OptumWithEmptyProfilesStillSchedules) {
  core::OptumConfig config;
  config.sample_fraction = 1.0;
  config.min_candidates = 2;
  core::OptumScheduler scheduler(core::OptumProfiles{}, config);
  ClusterState cluster(2, kUnitResources, 8);
  AppProfile app;
  app.id = 0;
  app.slo = SloClass::kBe;
  app.request = {0.1, 0.05};
  app.limit = {0.2, 0.1};
  PodSpec pod;
  pod.id = 1;
  pod.app = 0;
  pod.slo = SloClass::kBe;
  pod.request = app.request;
  pod.limit = app.limit;
  const PlacementDecision d = scheduler.Place(pod, app, cluster);
  EXPECT_TRUE(d.placed());
}

TEST(DegenerateConfigTest, SimulatorWithOneHostOnePod) {
  WorkloadConfig config;
  config.num_hosts = 1;
  config.horizon = 20;
  config.num_ls_apps = 1;
  config.num_lsr_apps = 1;
  config.num_be_apps = 1;
  config.num_system_apps = 0;
  config.num_vmenv_apps = 0;
  config.num_unknown_apps = 0;
  config.initial_ls_request_load = 0.1;
  config.seed = 1;
  const Workload workload = WorkloadGenerator(config).Generate();
  AlibabaBaseline scheduler;
  SimConfig sim_config;
  const SimResult result = Simulator(workload, sim_config, scheduler).Run();
  EXPECT_GT(result.scheduled_pods, 0);
}

TEST(DegenerateConfigTest, EmptyBatchDistributedScheduling) {
  core::DistributedCoordinator coordinator(core::OptumProfiles{}, {});
  ClusterState cluster(2, kUnitResources, 8);
  const core::DistributedOutcome outcome = coordinator.ScheduleBatch(
      {}, cluster, [](const core::ScheduleProposal&) { FAIL(); });
  EXPECT_TRUE(outcome.placed.empty());
  EXPECT_TRUE(outcome.unplaced.empty());
  EXPECT_EQ(outcome.rounds_used, 0);
}

// --- Cross-path consistency -----------------------------------------------------

TEST(ConsistencyTest, OnlineAndOfflineEroAgreeOnSameObservations) {
  // Feed identical co-location observations through the offline profiler
  // (trace records) and the online observer (cluster state): the resulting
  // pair values must match.
  const AppId app_a = 0, app_b = 1;
  const double cpu_a = 0.06, cpu_b = 0.03;
  const Resources req_a{0.2, 0.05}, req_b{0.1, 0.05};

  // Offline: one trace sample.
  TraceBundle trace;
  trace.nodes.push_back(NodeMeta{0, kUnitResources});
  for (int p = 0; p < 2; ++p) {
    PodMeta meta;
    meta.pod_id = p;
    meta.app_id = p == 0 ? app_a : app_b;
    meta.slo = SloClass::kBe;
    meta.request = p == 0 ? req_a : req_b;
    meta.limit = meta.request * 2.0;
    trace.pods.push_back(meta);
    PodUsageRecord rec;
    rec.pod_id = p;
    rec.host = 0;
    rec.collect_tick = 0;
    rec.cpu_usage = p == 0 ? cpu_a : cpu_b;
    rec.mem_usage = 0.01;
    trace.pod_usage.push_back(rec);
  }
  const EroTable offline = core::OfflineProfiler().BuildEroTable(trace);

  // Online: equivalent cluster state.
  core::OptumScheduler scheduler(core::OptumProfiles{}, {});
  ClusterState cluster(1, kUnitResources, 8);
  AppProfile profile_a, profile_b;
  profile_a.id = app_a;
  profile_a.slo = SloClass::kBe;
  profile_a.request = req_a;
  profile_b.id = app_b;
  profile_b.slo = SloClass::kBe;
  profile_b.request = req_b;
  PodSpec pod_a, pod_b;
  pod_a.id = 0;
  pod_a.app = app_a;
  pod_a.slo = SloClass::kBe;
  pod_a.request = req_a;
  pod_b.id = 1;
  pod_b.app = app_b;
  pod_b.slo = SloClass::kBe;
  pod_b.request = req_b;
  PodRuntime* rt_a = cluster.Place(pod_a, &profile_a, 0, 0);
  PodRuntime* rt_b = cluster.Place(pod_b, &profile_b, 0, 0);
  rt_a->cpu_usage = cpu_a;
  rt_b->cpu_usage = cpu_b;
  scheduler.ObserveColocation(cluster, 100);

  EXPECT_NEAR(offline.Get(app_a, app_b),
              scheduler.profiles().ero.Get(app_a, app_b), 1e-12);
  EXPECT_NEAR(offline.Get(app_a, app_b), (cpu_a + cpu_b) / (req_a.cpu + req_b.cpu),
              1e-12);
}

// Every pair value and triple value of two tables, bit for bit, over app
// ids [0, num_apps), then their sizes and version counts.
void ExpectSameEro(const EroTable& a, const EroTable& b, AppId num_apps) {
  for (AppId x = 0; x < num_apps; ++x) {
    for (AppId y = x; y < num_apps; ++y) {
      ASSERT_EQ(a.Get(x, y), b.Get(x, y)) << x << ", " << y;
    }
  }
  for (AppId x = 0; x < num_apps; ++x) {
    for (AppId y = x + 1; y < num_apps; ++y) {
      for (AppId z = y + 1; z < num_apps; ++z) {
        ASSERT_EQ(a.GetTriple(x, y, z), b.GetTriple(x, y, z)) << x << ", " << y << ", " << z;
      }
    }
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.triple_size(), b.triple_size());
  EXPECT_EQ(a.version(), b.version());
}

AppId NumApps(const TraceBundle& trace) {
  AppId num_apps = 0;
  for (const PodMeta& meta : trace.pods) {
    num_apps = std::max(num_apps, meta.app_id + 1);
  }
  return num_apps;
}

// A simulated multi-host cluster at one tick, written as a one-tick trace:
// the offline profiler on that trace and ObserveColocation on a fresh
// scheduler feed the same (tick, host) samples through one ColocationGroup
// step, so they build the same table, triples included, value for value
// and bump for bump. The rows are written in descending host order; the
// profiler buckets them by host.
TEST(ConsistencyTest, OfflineAndOnlineEroAgreeOnASimulatedCluster) {
  WorkloadConfig workload_config;
  workload_config.num_hosts = 24;
  workload_config.horizon = kTicksPerHour;
  workload_config.seed = 61;
  const Workload workload = WorkloadGenerator(workload_config).Generate();
  constexpr Tick kSnapshot = kTicksPerHour / 2;
  core::OptumConfig online_config;
  online_config.use_triple_ero = true;
  core::OptumScheduler online(core::OptumProfiles{}, online_config);
  TraceBundle trace;
  size_t max_apps_per_host = 0;
  SimConfig sim_config;
  sim_config.max_attempts_per_tick = 1500;
  sim_config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
    if (now != kSnapshot) {
      return;
    }
    for (auto host = cluster.hosts().rbegin(); host != cluster.hosts().rend(); ++host) {
      std::set<AppId> apps;
      for (const PodRuntime* pod : host->pods) {
        PodMeta meta;
        meta.pod_id = pod->spec.id;
        meta.app_id = pod->spec.app;
        meta.slo = pod->spec.slo;
        meta.request = pod->spec.request;
        trace.pods.push_back(meta);
        PodUsageRecord rec;
        rec.pod_id = pod->spec.id;
        rec.host = host->id;
        rec.collect_tick = now;
        rec.cpu_usage = pod->cpu_usage;
        trace.pod_usage.push_back(rec);
        apps.insert(pod->spec.app);
      }
      max_apps_per_host = std::max(max_apps_per_host, apps.size());
    }
    online.ObserveColocation(cluster, now);
  };
  AlibabaBaseline policy;
  Simulator(workload, sim_config, policy).Run();

  core::OfflineProfilerConfig prof;
  prof.enable_triple_ero = true;
  prof.triple_top_k = max_apps_per_host;  // no cap: online triples cover every app
  const EroTable offline = core::OfflineProfiler(prof).BuildEroTable(trace);
  ASSERT_GT(offline.size(), 0u);
  ASSERT_GT(offline.triple_size(), 0u);
  ExpectSameEro(offline, online.profiles().ero, NumApps(trace));
}

// BuildEroTable groups each tick's rows by host, and within one (tick, host)
// group every pair and triple is observed once, so the row order inside a
// tick is free. Shuffling every tick's rows of a simulated reference trace
// (rows move within their (tick, host) group and across hosts) leaves the
// table, triples included, and its version count unchanged.
TEST(ConsistencyTest, BuildEroTableIgnoresRowOrderWithinATick) {
  WorkloadConfig workload_config;
  workload_config.num_hosts = 16;
  workload_config.horizon = 2 * kTicksPerHour;
  workload_config.seed = 67;
  SimConfig sim_config;
  sim_config.pod_usage_period = 5;
  sim_config.max_attempts_per_tick = 1500;
  AlibabaBaseline policy;
  const SimResult ref =
      Simulator(WorkloadGenerator(workload_config).Generate(), sim_config, policy).Run();
  core::OfflineProfilerConfig prof;
  prof.enable_triple_ero = true;
  const core::OfflineProfiler profiler(prof);
  const EroTable original = profiler.BuildEroTable(ref.trace);
  ASSERT_GT(original.triple_size(), 0u);

  TraceBundle shuffled = ref.trace;
  ChunkedRows<PodUsageRecord>& rows = shuffled.pod_usage;
  Rng rng(71);
  size_t moved = 0;
  for (size_t i = 0; i < rows.size();) {
    size_t j = i;
    while (j < rows.size() && rows[j].collect_tick == rows[i].collect_tick) {
      ++j;
    }
    for (size_t k = j - 1; k > i; --k) {  // Fisher-Yates over [i, j)
      const size_t pick = i + rng.NextBelow(k - i + 1);
      moved += pick != k ? 1 : 0;
      std::swap(rows[k], rows[pick]);
    }
    i = j;
  }
  ASSERT_GT(moved, 0u);
  ExpectSameEro(original, profiler.BuildEroTable(shuffled), NumApps(ref.trace));
}

TEST(ConsistencyTest, UmbrellaHeaderCompilesAndExposesApi) {
  // Touch one symbol from each major subsystem through the umbrella header.
  EXPECT_STREQ(ToString(SloClass::kBe), "BE");
  EXPECT_STREQ(ToString(Scenario::kCalibrated), "calibrated");
  EXPECT_EQ(MakeBorgLike()->name(), "Borg-like");
  EXPECT_EQ(core::OptumScheduler(core::OptumProfiles{}, {}).name(), "Optum");
}

}  // namespace
}  // namespace optum
