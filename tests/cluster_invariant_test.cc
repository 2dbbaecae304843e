// ClusterState::CheckInvariants(): the one checker of the per-host fields
// ClusterState maintains incrementally (app_counts, slo_pods, BE mass and
// the BE-host index, request/limit sums, resident pods' host, the running
// count). It must hold at every tick of a simulation that OOM-kills and
// preempts, for every lane count; after every step of random place/remove
// sequences, where change_epoch must also move on exactly the touched host;
// and it must name the field and host of each corruption it is shown.
// Labeled `concurrency`: the simulation runs its tick on the crew.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sched/baselines.h"
#include "src/sim/cluster.h"
#include "src/sim/simulator.h"
#include "src/stats/rng.h"
#include "tests/sim_test_util.h"

namespace optum {
namespace {

// An app of each SLO class, including the system/VM-env/unknown classes
// that count toward slo_pods but not toward the BE mass; ids 0..5.
std::vector<AppProfile> SixSloApps() {
  std::vector<AppProfile> apps;
  for (const SloClass slo : {SloClass::kBe, SloClass::kLs, SloClass::kLsr,
                             SloClass::kSystem, SloClass::kVmEnv, SloClass::kUnknown}) {
    AppProfile app;
    app.id = static_cast<AppId>(apps.size());
    app.slo = slo;
    app.request = {0.02 + 0.01 * static_cast<double>(apps.size()), 0.03};
    app.limit = {2.0 * app.request.cpu, 0.05};
    apps.push_back(app);
  }
  return apps;
}

PodSpec MakePod(PodId id, const AppProfile& app) {
  PodSpec pod;
  pod.id = id;
  pod.app = app.id;
  pod.slo = app.slo;
  pod.request = app.request;
  pod.limit = app.limit;
  pod.long_running = app.slo != SloClass::kBe;
  return pod;
}

// --- The fault path: OOM kills and LSR preemption -----------------------------

TEST(ClusterInvariantTest, HoldsEveryTickThroughOomAndPreemption) {
  // Memory over-committed (mem_guard 1.4): the serial OOM pass and LSR
  // preemption both remove pods between the tick's crew rounds.
  const Workload workload = testing_sim::OvercommitWorkload();
  BaselineOptions options;
  options.mem_guard = 1.4;
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "num_lanes=" << lanes);
    SimConfig config;
    config.pod_usage_period = 5;
    config.max_attempts_per_tick = 1500;
    config.num_lanes = lanes;
    int64_t checked_ticks = 0;
    std::string first_error;
    config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
      ++checked_ticks;
      testing_sim::KeepFirstInvariantError(cluster, now, &first_error);
    };
    AlibabaBaseline policy(options);
    const SimResult result = Simulator(workload, config, policy).Run();
    EXPECT_EQ(first_error, "");
    EXPECT_EQ(checked_ticks, workload.config.horizon);
    EXPECT_GT(result.oom_kills, 0);
    EXPECT_GT(result.preemptions, 0);
  }
}

// --- Random place/remove sequences --------------------------------------------

TEST(ClusterInvariantPropertyTest, HoldsAfterEveryPlaceAndRemove) {
  // The six-SLO mix twice over (ids 0..11), so a host carries several apps
  // of one class and app_counts entries are inserted and erased mid-list.
  std::vector<AppProfile> apps = SixSloApps();
  for (size_t i = 0; i < 6; ++i) {
    AppProfile app = apps[i];
    app.id = static_cast<AppId>(6 + i);
    app.request.cpu *= 1.7;
    app.request.mem *= 0.6;
    apps.push_back(app);
  }
  constexpr int kHosts = 6;
  for (const uint64_t seed : {1u, 7u, 42u, 1337u, 90210u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    ClusterState cluster(kHosts, kUnitResources, 16);
    Rng rng(seed);
    std::vector<PodRuntime*> placed;
    int removals = 0;
    for (int step = 0; step < 1500; ++step) {
      std::vector<uint64_t> epochs;
      for (const Host& host : cluster.hosts()) {
        epochs.push_back(host.change_epoch);
      }
      HostId touched;
      // Removal-heavy once the cluster is full, so hosts drain to empty.
      const double place_share = placed.size() < 40 ? 0.6 : 0.4;
      if (placed.empty() || rng.NextDouble() < place_share) {
        const AppProfile& app = apps[rng.NextBelow(apps.size())];
        touched = static_cast<HostId>(rng.NextBelow(kHosts));
        placed.push_back(cluster.Place(MakePod(step, app), &app, touched, step));
      } else {
        const size_t victim = rng.NextBelow(placed.size());
        touched = placed[victim]->host;
        cluster.Remove(placed[victim]);
        placed[victim] = placed.back();
        placed.pop_back();
        ++removals;
      }
      ASSERT_EQ(cluster.CheckInvariants(), "") << "after step " << step;
      for (const Host& host : cluster.hosts()) {
        const uint64_t before = epochs[static_cast<size_t>(host.id)];
        ASSERT_EQ(host.change_epoch, before + (host.id == touched ? 1 : 0))
            << "host " << host.id << " after step " << step;
      }
    }
    EXPECT_GT(removals, 500);
  }
}

// --- Each corruption is reported with its field and host ----------------------

class ClusterInvariantCorruptionTest : public ::testing::Test {
 protected:
  // Host 1 runs two BE pods of app 0, an LS pod of app 1 and a system pod of
  // app 3; host 0 runs one LS pod; host 2 is empty.
  void SetUp() override {
    apps_ = SixSloApps();
    Place(0, 1);
    Place(0, 1);
    Place(1, 1);
    Place(3, 1);
    Place(1, 0);
    ASSERT_EQ(cluster_.CheckInvariants(), "");
  }

  void Place(size_t app, HostId host) {
    cluster_.Place(MakePod(next_id_++, apps_[app]), &apps_[app], host, 0);
  }

  // The checker's message after the corruption: must name `field` and host 1.
  void ExpectReported(const std::string& field) {
    const std::string error = cluster_.CheckInvariants();
    EXPECT_NE(error.find(field), std::string::npos) << error;
    EXPECT_NE(error.find("host 1"), std::string::npos) << error;
  }

  Host& host1() { return cluster_.mutable_host(1); }

  std::vector<AppProfile> apps_;
  ClusterState cluster_{3, kUnitResources, 16};
  PodId next_id_ = 0;
};

TEST_F(ClusterInvariantCorruptionTest, AppCountsCount) {
  ++host1().app_counts[1].count;
  ExpectReported("app_counts");
}

TEST_F(ClusterInvariantCorruptionTest, AppCountsOrder) {
  std::swap(host1().app_counts[0], host1().app_counts[2]);
  ExpectReported("app_counts");
  EXPECT_NE(cluster_.CheckInvariants().find("sorted"), std::string::npos);
}

TEST_F(ClusterInvariantCorruptionTest, AppCountsSlo) {
  host1().app_counts[0].slo = SloClass::kLs;
  ExpectReported("app_counts");
}

TEST_F(ClusterInvariantCorruptionTest, SloPods) {
  ++host1().slo_pods[static_cast<size_t>(SloClass::kSystem)];
  ExpectReported("slo_pods");
}

TEST_F(ClusterInvariantCorruptionTest, BeRequestCpu) {
  host1().be_request_cpu += 1e-9;
  ExpectReported("be_request_cpu");
}

TEST_F(ClusterInvariantCorruptionTest, BePodCount) {
  ++host1().be_pod_count;  // still > 0, so the BE index stays consistent
  ExpectReported("be_pod_count");
}

TEST_F(ClusterInvariantCorruptionTest, RequestSum) {
  host1().request_sum.mem += 1e-6;
  ExpectReported("request_sum");
}

TEST_F(ClusterInvariantCorruptionTest, LimitSum) {
  host1().limit_sum.cpu -= 1e-6;
  ExpectReported("limit_sum");
}

TEST_F(ClusterInvariantCorruptionTest, BeIndexDesyncedFromBePodCount) {
  host1().be_pod_count = 0;  // host 1 stays in hosts_with_be()
  ExpectReported("hosts_with_be_");
}

// --- One SLO class per app on a host -------------------------------------------

// A Host::app_counts entry keeps the slo of the pod that created it. App 5
// placed as LS and then as BE on host 0 would leave the entry's slo stale once
// the LS pod left, and the interference sums would weight the BE pod as LS;
// Place refuses the second pod instead.
TEST(ClusterStateDeathTest, AppPlacedWithTwoSloClassesOnOneHostAborts) {
  AppProfile app = SixSloApps()[1];  // LS
  app.id = 5;
  ClusterState cluster(1, kUnitResources, 16);
  cluster.Place(MakePod(0, app), &app, 0, 0);
  PodSpec be = MakePod(1, app);
  be.slo = SloClass::kBe;
  EXPECT_DEATH(cluster.Place(be, &app, 0, 0), "share one SLO class");
}

}  // namespace
}  // namespace optum
