// Tests for src/sim: PSI ground-truth model, cluster bookkeeping, and the
// end-to-end simulator loop.
#include <gtest/gtest.h>

#include <string>

#include "src/sched/baselines.h"
#include "src/sim/cluster.h"
#include "src/sim/psi_model.h"
#include "src/sim/simulator.h"
#include "src/stats/rng.h"
#include "src/trace/workload_generator.h"
#include "tests/sim_test_util.h"

namespace optum {
namespace {

AppProfile LsApp(AppId id = 0) {
  AppProfile app;
  app.id = id;
  app.slo = SloClass::kLs;
  app.request = {0.1, 0.05};
  app.limit = {0.2, 0.08};
  app.qps_base = 100;
  app.psi_sensitivity = 1.0;
  return app;
}

AppProfile BeApp(AppId id = 1) {
  AppProfile app;
  app.id = id;
  app.slo = SloClass::kBe;
  app.request = {0.05, 0.02};
  app.limit = {0.1, 0.03};
  app.work_mean_ticks = 10;
  app.slowdown_sensitivity = 1.5;
  return app;
}

PodSpec MakePod(PodId id, const AppProfile& app, Tick submit = 0) {
  PodSpec pod;
  pod.id = id;
  pod.app = app.id;
  pod.slo = app.slo;
  pod.request = app.request;
  pod.limit = app.limit;
  pod.submit_tick = submit;
  pod.long_running = app.slo != SloClass::kBe;
  pod.behavior.work_ticks = app.work_mean_ticks;
  return pod;
}

// --- PsiModel ---------------------------------------------------------------

TEST(PsiModelTest, NoContentionBelowKnee) {
  PsiModel model;
  EXPECT_DOUBLE_EQ(model.CpuContention(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.CpuContention(0.5), 0.0);
  EXPECT_GT(model.CpuContention(0.8), 0.0);
}

TEST(PsiModelTest, ContentionMonotonic) {
  PsiModel model;
  double prev = -1;
  for (double ratio = 0.0; ratio <= 2.0; ratio += 0.05) {
    const double c = model.CpuContention(ratio);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(PsiModelTest, PsiBoundedAndRisesWithContention) {
  PsiModel model(PsiModelParams{.psi_noise = 0.0});
  const AppProfile app = LsApp();
  Rng noise(1);
  const double low = model.CpuPsi60(app, 0.4, 0.8, 1.0, noise);
  const double high = model.CpuPsi60(app, 1.2, 0.8, 1.0, noise);
  EXPECT_LT(low, 0.06);  // only the mild sub-knee component
  EXPECT_GT(high, 0.1);
  EXPECT_LE(high, 1.0);
}

TEST(PsiModelTest, PsiScalesWithPodUtilAndQps) {
  PsiModel model(PsiModelParams{.psi_noise = 0.0});
  const AppProfile app = LsApp();
  Rng noise(1);
  const double busy = model.CpuPsi60(app, 1.0, 1.0, 1.0, noise);
  const double idle_pod = model.CpuPsi60(app, 1.0, 0.0, 1.0, noise);
  const double low_qps = model.CpuPsi60(app, 1.0, 1.0, 0.0, noise);
  EXPECT_GT(busy, idle_pod);
  EXPECT_GT(busy, low_qps);
}

TEST(PsiModelTest, Psi300IsSmoothed) {
  PsiModel model;
  double p300 = 0.0;
  p300 = model.CpuPsi300(p300, 1.0);
  EXPECT_LT(p300, 1.0);
  EXPECT_GT(p300, 0.0);
  // Converges toward the steady value.
  for (int i = 0; i < 100; ++i) {
    p300 = model.CpuPsi300(p300, 1.0);
  }
  EXPECT_NEAR(p300, 1.0, 0.01);
}

TEST(PsiModelTest, MemPsiOnlyUnderMemoryPressure) {
  PsiModel model(PsiModelParams{.psi_noise = 0.0});
  Rng noise(1);
  EXPECT_DOUBLE_EQ(model.MemPsiSome60(0.5, noise), 0.0);
  EXPECT_GT(model.MemPsiSome60(0.99, noise), 0.0);
  EXPECT_LT(model.MemPsiFull60(0.5), 0.5);
}

TEST(PsiModelTest, BeProgressRateBounds) {
  PsiModel model;
  const AppProfile app = BeApp();
  // Mild sub-knee slowdown only.
  EXPECT_GT(model.BeProgressRate(app, 0.1, 0.1), 0.9);
  EXPECT_GT(model.BeProgressRate(app, 0.3, 0.3), model.BeProgressRate(app, 0.5, 0.3));
  const double slowed = model.BeProgressRate(app, 1.5, 0.95);
  EXPECT_LT(slowed, 1.0);
  EXPECT_GT(slowed, 0.0);
}

TEST(PsiModelTest, ResponseTimeGrowsWithPsi) {
  PsiModel model;
  const AppProfile app = LsApp();
  // Average over many draws (the dependency term is heavy-tailed).
  auto mean_rt = [&](double psi) {
    Rng noise(5);
    double acc = 0;
    for (int i = 0; i < 4000; ++i) {
      acc += model.ResponseTime(app, psi, 1.0, noise);
    }
    return acc / 4000;
  };
  EXPECT_GT(mean_rt(0.8), 1.5 * mean_rt(0.0));
}

// --- ClusterState -----------------------------------------------------------

TEST(ClusterStateTest, PlaceAndRemoveBookkeeping) {
  ClusterState cluster(2, kUnitResources, 16);
  const AppProfile app = LsApp();
  const PodSpec pod = MakePod(1, app);
  PodRuntime* rt = cluster.Place(pod, &app, 0, 5);
  EXPECT_EQ(cluster.num_running_pods(), 1u);
  EXPECT_EQ(cluster.host(0).pods.size(), 1u);
  EXPECT_DOUBLE_EQ(cluster.host(0).request_sum.cpu, 0.1);
  EXPECT_DOUBLE_EQ(cluster.host(0).limit_sum.mem, 0.08);
  EXPECT_EQ(rt->scheduled_at, 5);
  cluster.Remove(rt);
  EXPECT_EQ(cluster.num_running_pods(), 0u);
  EXPECT_TRUE(cluster.host(0).pods.empty());
  EXPECT_NEAR(cluster.host(0).request_sum.cpu, 0.0, 1e-12);
}

TEST(ClusterStateTest, PodRuntimeRecycling) {
  ClusterState cluster(1, kUnitResources, 16);
  const AppProfile app = BeApp();
  PodRuntime* first = cluster.Place(MakePod(1, app), &app, 0, 0);
  cluster.Remove(first);
  PodRuntime* second = cluster.Place(MakePod(2, app), &app, 0, 1);
  EXPECT_EQ(first, second);  // recycled slot
  EXPECT_EQ(second->spec.id, 2);
  EXPECT_DOUBLE_EQ(second->progress, 0.0);  // state fully reset
}

// Host::HasSloWorkload reads slo_pods; ClusterState::CheckInvariants()
// rebuilds slo_pods (and every other derived field) from the pod lists.
TEST(ClusterStateTest, HasSloWorkloadMatchesPodScanAcrossPlaceAndRemove) {
  // Every class, including the system/VM-env/unknown pods that must not
  // make a host count as running SLO workload.
  std::vector<AppProfile> apps;
  for (const SloClass slo : {SloClass::kBe, SloClass::kLs, SloClass::kLsr,
                             SloClass::kSystem, SloClass::kVmEnv, SloClass::kUnknown}) {
    AppProfile app = LsApp(static_cast<AppId>(apps.size()));
    app.slo = slo;
    apps.push_back(app);
  }
  constexpr int kHosts = 4;
  ClusterState cluster(kHosts, kUnitResources, 16);
  Rng rng(13);
  std::vector<PodRuntime*> placed;
  for (int step = 0; step < 2000; ++step) {
    if (placed.empty() || rng.NextDouble() < 0.5) {
      const AppProfile& app = apps[rng.NextBelow(apps.size())];
      placed.push_back(cluster.Place(MakePod(step, app), &app,
                                     static_cast<HostId>(rng.NextBelow(kHosts)), step));
    } else {
      const size_t victim = rng.NextBelow(placed.size());
      cluster.Remove(placed[victim]);
      placed[victim] = placed.back();
      placed.pop_back();
    }
    ASSERT_EQ(cluster.CheckInvariants(), "") << "after step " << step;
  }
}

TEST(SimulatorTest, HasSloWorkloadMatchesPodScanThroughPreemptionAndOom) {
  // Memory over-committed: the simulator OOM-kills and preempts, and every
  // host is checked at the end of every tick.
  const Workload workload = testing_sim::OvercommitWorkload();
  BaselineOptions options;
  options.mem_guard = 1.4;
  AlibabaBaseline policy(options);
  SimConfig config;
  config.pod_usage_period = 5;
  config.max_attempts_per_tick = 1500;
  std::string first_error;
  config.on_tick_end = [&first_error](const ClusterState& cluster, Tick now) {
    testing_sim::KeepFirstInvariantError(cluster, now, &first_error);
  };
  const SimResult result = Simulator(workload, config, policy).Run();
  EXPECT_GT(result.oom_kills, 0);
  EXPECT_GT(result.preemptions, 0);
  EXPECT_EQ(first_error, "");
}

TEST(ClusterStateTest, HostHistoryRollingWindow) {
  Host host;
  for (int i = 0; i < 10; ++i) {
    host.PushHistory(1.0, 4);
  }
  double mean = 0, sd = 0;
  host.HistoryStats(&mean, &sd);
  EXPECT_DOUBLE_EQ(mean, 1.0);
  EXPECT_DOUBLE_EQ(sd, 0.0);
  host.PushHistory(0.0, 4);
  host.PushHistory(0.0, 4);
  host.HistoryStats(&mean, &sd);
  EXPECT_DOUBLE_EQ(mean, 0.5);  // window holds {1,1,0,0}
}

TEST(ClusterStateTest, AffinityAllowsLimits) {
  ClusterState cluster(1, kUnitResources, 16);
  const AppProfile app = LsApp();
  PodSpec pod = MakePod(1, app);
  pod.max_pods_per_host = 2;
  EXPECT_TRUE(AffinityAllows(pod, cluster.host(0)));
  cluster.Place(pod, &app, 0, 0);
  EXPECT_TRUE(AffinityAllows(pod, cluster.host(0)));
  cluster.Place(pod, &app, 0, 0);
  EXPECT_FALSE(AffinityAllows(pod, cluster.host(0)));
  // Unlimited pods are always allowed.
  pod.max_pods_per_host = 0;
  EXPECT_TRUE(AffinityAllows(pod, cluster.host(0)));
}

TEST(ClusterStateTest, CpuPercentileCacheInvalidation) {
  PodRuntime pod;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    pod.RecordCpuSample(static_cast<double>(i), rng);
  }
  const double p99_before = pod.CpuUsagePercentile(99);
  EXPECT_NEAR(p99_before, 98.0, 1.1);
  // Adding samples must invalidate the cache.
  pod.RecordCpuSample(1000.0, rng);
  const double p99_after = pod.CpuUsagePercentile(99);
  EXPECT_GE(p99_after, p99_before);
  // Different quantiles recompute.
  EXPECT_LT(pod.CpuUsagePercentile(10), pod.CpuUsagePercentile(90));
}

// --- Simulator ---------------------------------------------------------------

// Trivial policy: first host with request room (both dimensions).
class FirstFitPolicy : public PlacementPolicy {
 public:
  PlacementDecision Place(const PodSpec& pod, const AppProfile& app,
                          const ClusterState& cluster) override {
    (void)app;
    for (const Host& h : cluster.hosts()) {
      if (!AffinityAllows(pod, h)) {
        continue;
      }
      if ((h.request_sum + pod.request).FitsWithin(h.capacity)) {
        return PlacementDecision::Accept(h.id);
      }
    }
    return PlacementDecision::Reject(WaitReason::kInsufficientCpuAndMem);
  }
  std::string name() const override { return "FirstFit"; }
};

Workload TinyWorkload(int hosts = 8, Tick horizon = 200) {
  WorkloadConfig config;
  config.num_hosts = hosts;
  config.horizon = horizon;
  config.num_ls_apps = 4;
  config.num_lsr_apps = 2;
  config.num_be_apps = 6;
  config.num_system_apps = 1;
  config.num_vmenv_apps = 1;
  config.num_unknown_apps = 2;
  config.seed = 11;
  return WorkloadGenerator(config).Generate();
}

TEST(SimulatorTest, RunsAndSchedulesPods) {
  const Workload w = TinyWorkload();
  SimConfig config;
  FirstFitPolicy policy;
  Simulator sim(w, config, policy);
  const SimResult result = sim.Run();
  EXPECT_GT(result.scheduled_pods, 0);
  EXPECT_EQ(result.trace.nodes.size(), 8u);
  EXPECT_FALSE(result.trace.lifecycles.empty());
  EXPECT_FALSE(result.util_series.empty());
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const Workload w = TinyWorkload();
  SimConfig config;
  FirstFitPolicy p1, p2;
  const SimResult r1 = Simulator(w, config, p1).Run();
  const SimResult r2 = Simulator(w, config, p2).Run();
  EXPECT_EQ(r1.scheduled_pods, r2.scheduled_pods);
  EXPECT_EQ(r1.trace.lifecycles.size(), r2.trace.lifecycles.size());
  EXPECT_DOUBLE_EQ(r1.MeanCpuUtilNonIdle(), r2.MeanCpuUtilNonIdle());
}

TEST(SimulatorTest, BeCompletionRecorded) {
  const Workload w = TinyWorkload(8, 400);
  SimConfig config;
  FirstFitPolicy policy;
  const SimResult result = Simulator(w, config, policy).Run();
  int completed = 0;
  for (const auto& rec : result.trace.lifecycles) {
    if (rec.slo == SloClass::kBe && rec.finish_tick >= 0) {
      ++completed;
      EXPECT_GE(rec.schedule_tick, rec.submit_tick);
      EXPECT_GT(rec.finish_tick, rec.schedule_tick - 1);
      EXPECT_GT(rec.ideal_completion_ticks, 0.0);
      // Contention can only slow pods down (ticks are integral, so allow
      // the ceiling of the ideal time).
      EXPECT_GE(rec.actual_completion_ticks + 1.0, rec.ideal_completion_ticks);
    }
  }
  EXPECT_GT(completed, 10);
}

TEST(SimulatorTest, LongRunningPodsSurviveToHorizon) {
  const Workload w = TinyWorkload();
  SimConfig config;
  FirstFitPolicy policy;
  const SimResult result = Simulator(w, config, policy).Run();
  int running_at_end = 0;
  for (const auto& rec : result.trace.lifecycles) {
    if (IsLatencySensitive(rec.slo)) {
      EXPECT_EQ(rec.finish_tick, -1);
      ++running_at_end;
    }
  }
  EXPECT_GT(running_at_end, 0);
}

TEST(SimulatorTest, WaitingTimesConsistent) {
  const Workload w = TinyWorkload();
  SimConfig config;
  FirstFitPolicy policy;
  const SimResult result = Simulator(w, config, policy).Run();
  for (const auto& rec : result.trace.lifecycles) {
    if (rec.schedule_tick >= 0) {
      EXPECT_NEAR(rec.waiting_seconds,
                  (rec.schedule_tick - rec.submit_tick) * kSecondsPerTick, 1e-9);
      EXPECT_GE(rec.waiting_seconds, 0.0);
    }
  }
}

TEST(SimulatorTest, UtilizationSeriesWithinBounds) {
  const Workload w = TinyWorkload();
  SimConfig config;
  FirstFitPolicy policy;
  const SimResult result = Simulator(w, config, policy).Run();
  for (const auto& s : result.util_series) {
    EXPECT_GE(s.avg_cpu_nonidle, 0.0);
    EXPECT_LE(s.avg_cpu_nonidle, 1.0 + 1e-9);
    EXPECT_LE(s.max_cpu, 1.0 + 1e-9);  // usage is capacity-clamped
    EXPECT_GE(s.frac_hosts_nonidle, 0.0);
    EXPECT_LE(s.frac_hosts_nonidle, 1.0);
  }
}

TEST(SimulatorTest, ObserverInvokedEveryTick) {
  const Workload w = TinyWorkload(4, 50);
  SimConfig config;
  int calls = 0;
  Tick last = -1;
  config.on_tick_end = [&](const ClusterState&, Tick t) {
    ++calls;
    EXPECT_EQ(t, last + 1);
    last = t;
  };
  FirstFitPolicy policy;
  Simulator(w, config, policy).Run();
  EXPECT_EQ(calls, 50);
}

TEST(SimulatorTest, PodUsageRecordsCarryHost) {
  const Workload w = TinyWorkload();
  SimConfig config;
  config.pod_usage_period = 4;
  FirstFitPolicy policy;
  const SimResult result = Simulator(w, config, policy).Run();
  ASSERT_FALSE(result.trace.pod_usage.empty());
  for (const auto& rec : result.trace.pod_usage) {
    EXPECT_GE(rec.host, 0);
    EXPECT_LT(rec.host, 8);
    EXPECT_GE(rec.cpu_usage, 0.0);
    EXPECT_GE(rec.cpu_psi_60, 0.0);
    EXPECT_LE(rec.cpu_psi_60, 1.0);
  }
}

// Policy that rejects everything: pods must accumulate as never-scheduled.
class RejectAllPolicy : public PlacementPolicy {
 public:
  PlacementDecision Place(const PodSpec&, const AppProfile&,
                          const ClusterState&) override {
    return PlacementDecision::Reject(WaitReason::kInsufficientCpu);
  }
  std::string name() const override { return "RejectAll"; }
};

TEST(SimulatorTest, RejectAllLeavesEverythingPending) {
  const Workload w = TinyWorkload(4, 60);
  SimConfig config;
  config.enable_lsr_preemption = false;
  RejectAllPolicy policy;
  const SimResult result = Simulator(w, config, policy).Run();
  EXPECT_EQ(result.scheduled_pods, 0);
  EXPECT_GT(result.never_scheduled_pods, 0);
  EXPECT_FALSE(result.waits.empty());
  for (const auto& wait : result.waits) {
    EXPECT_EQ(wait.reason, WaitReason::kInsufficientCpu);
    EXPECT_GT(wait.waited_seconds, 0.0);
  }
}

// Policy that always picks host 0: forces memory oversubscription -> OOM.
class PackHostZeroPolicy : public PlacementPolicy {
 public:
  PlacementDecision Place(const PodSpec&, const AppProfile&,
                          const ClusterState&) override {
    return PlacementDecision::Accept(0);
  }
  std::string name() const override { return "PackZero"; }
};

TEST(SimulatorTest, MemoryOversubscriptionTriggersOomKills) {
  WorkloadConfig config;
  config.num_hosts = 2;
  config.horizon = 100;
  config.num_ls_apps = 2;
  config.num_lsr_apps = 1;
  config.num_be_apps = 4;
  config.num_system_apps = 0;
  config.num_vmenv_apps = 0;
  config.num_unknown_apps = 0;
  config.initial_ls_request_load = 4.0;  // far beyond one host
  config.seed = 3;
  const Workload w = WorkloadGenerator(config).Generate();
  SimConfig sim_config;
  sim_config.enable_lsr_preemption = false;
  PackHostZeroPolicy policy;
  const SimResult result = Simulator(w, sim_config, policy).Run();
  EXPECT_GT(result.oom_kills, 0);
}

TEST(SimulatorTest, LsrPreemptionEvictsBe) {
  // Fill one host with BE pods via first-fit, then submit an LSR pod that
  // does not fit by requests: preemption must evict BE and place it.
  WorkloadConfig config;
  config.num_hosts = 1;
  config.horizon = 50;
  config.num_ls_apps = 1;
  config.num_lsr_apps = 1;
  config.num_be_apps = 2;
  config.num_system_apps = 0;
  config.num_vmenv_apps = 0;
  config.num_unknown_apps = 0;
  config.initial_ls_request_load = 0.4;
  config.be_target_request_load = 3.0;  // saturate with BE
  config.seed = 5;
  const Workload w = WorkloadGenerator(config).Generate();
  SimConfig sim_config;  // preemption enabled by default
  FirstFitPolicy policy;
  const SimResult result = Simulator(w, sim_config, policy).Run();
  // LSR pods in this workload should mostly get scheduled.
  int lsr_scheduled = 0, lsr_total = 0;
  for (const auto& rec : result.trace.lifecycles) {
    if (rec.slo == SloClass::kLsr) {
      ++lsr_total;
      lsr_scheduled += rec.schedule_tick >= 0 ? 1 : 0;
    }
  }
  if (lsr_total > 0) {
    EXPECT_GT(lsr_scheduled, 0);
  }
  // Preemption may or may not fire depending on packing; this checks the
  // accounting does not go negative and the sim stays consistent.
  EXPECT_GE(result.preemptions, 0);
}

TEST(SimulatorTest, RunTwiceForbidden) {
  const Workload w = TinyWorkload(2, 10);
  SimConfig config;
  config.num_lanes = 1;  // death tests fork: keep the process single-threaded
  FirstFitPolicy policy;
  Simulator sim(w, config, policy);
  sim.Run();
  EXPECT_DEATH(sim.Run(), "once");
}

}  // namespace
}  // namespace optum
