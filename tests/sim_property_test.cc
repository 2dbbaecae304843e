// Property-based sweeps over the simulator: invariants that must hold for
// any seeded workload under any of the library's schedulers.
#include <gtest/gtest.h>

#include <set>

#include "src/sched/baselines.h"
#include "src/sched/medea.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"

namespace optum {
namespace {

Workload SeededWorkload(uint64_t seed) {
  WorkloadConfig config;
  config.num_hosts = 16;
  config.horizon = 240;  // 2 simulated hours
  config.num_ls_apps = 6;
  config.num_lsr_apps = 2;
  config.num_be_apps = 10;
  config.num_system_apps = 1;
  config.num_vmenv_apps = 1;
  config.num_unknown_apps = 3;
  config.seed = seed;
  return WorkloadGenerator(config).Generate();
}

class SimPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimPropertySweep, InvariantsUnderReferenceScheduler) {
  const Workload workload = SeededWorkload(GetParam());
  SimConfig config;
  int64_t checked_ticks = 0;
  config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
    ++checked_ticks;
    for (const Host& host : cluster.hosts()) {
      // CPU usage is work-conserving: never exceeds capacity.
      EXPECT_LE(host.usage.cpu, host.capacity.cpu + 1e-9);
      // Memory demand never exceeds capacity after OOM handling.
      EXPECT_LE(host.demand.mem, host.capacity.mem + 1e-9);
    }
    // Cached request sums (and every other derived field) match the pod
    // lists.
    EXPECT_EQ(cluster.CheckInvariants(), "") << "tick " << now;
  };
  AlibabaBaseline scheduler;
  const SimResult result = Simulator(workload, config, scheduler).Run();
  EXPECT_EQ(checked_ticks, workload.config.horizon);
  EXPECT_GT(result.scheduled_pods, 0);
}

TEST_P(SimPropertySweep, EveryPodHasExactlyOneLifecycleRecord) {
  const Workload workload = SeededWorkload(GetParam());
  SimConfig config;
  AlibabaBaseline scheduler;
  const SimResult result = Simulator(workload, config, scheduler).Run();
  std::set<PodId> seen;
  for (const auto& rec : result.trace.lifecycles) {
    EXPECT_TRUE(seen.insert(rec.pod_id).second)
        << "pod " << rec.pod_id << " has multiple lifecycle records";
  }
  EXPECT_EQ(seen.size(), workload.pods.size());
}

TEST_P(SimPropertySweep, LifecycleTimesOrdered) {
  const Workload workload = SeededWorkload(GetParam());
  SimConfig config;
  AlibabaBaseline scheduler;
  const SimResult result = Simulator(workload, config, scheduler).Run();
  for (const auto& rec : result.trace.lifecycles) {
    if (rec.schedule_tick >= 0) {
      EXPECT_GE(rec.schedule_tick, rec.submit_tick);
    }
    if (rec.finish_tick >= 0) {
      EXPECT_GE(rec.finish_tick, rec.schedule_tick);
    }
    EXPECT_GE(rec.waiting_seconds, 0.0);
  }
}

TEST_P(SimPropertySweep, ViolationAccountingConsistent) {
  const Workload workload = SeededWorkload(GetParam());
  SimConfig config;
  AlibabaBaseline scheduler;
  const SimResult result = Simulator(workload, config, scheduler).Run();
  EXPECT_GE(result.nonidle_host_ticks, result.violation_host_ticks);
  EXPECT_GE(result.violation_rate(), 0.0);
  EXPECT_LE(result.violation_rate(), 1.0);
}

TEST_P(SimPropertySweep, SchedulersNeverViolateOwnFeasibilityAtCommit) {
  // Wrap each baseline and re-validate the invariants its rule promises at
  // decision time (memory guard by requests is common to all).
  const Workload workload = SeededWorkload(GetParam());
  for (int which = 0; which < 3; ++which) {
    std::unique_ptr<PlacementPolicy> inner;
    if (which == 0) {
      inner = std::make_unique<AlibabaBaseline>();
    } else if (which == 1) {
      inner = MakeBorgLike();
    } else {
      inner = MakeResourceCentralLike();
    }
    class Validator : public PlacementPolicy {
     public:
      explicit Validator(PlacementPolicy& inner) : inner_(inner) {}
      PlacementDecision Place(const PodSpec& pod, const AppProfile& app,
                              const ClusterState& cluster) override {
        const PlacementDecision d = inner_.Place(pod, app, cluster);
        if (d.placed()) {
          const Host& h = cluster.host(d.host);
          // Memory is committed against requests for every baseline.
          EXPECT_LE(h.request_sum.mem + pod.request.mem, h.capacity.mem + 1e-9)
              << inner_.name();
          EXPECT_TRUE(AffinityAllows(pod, h)) << inner_.name();
        }
        return d;
      }
      std::string name() const override { return inner_.name(); }

     private:
      PlacementPolicy& inner_;
    };
    Validator validator(*inner);
    SimConfig config;
    Simulator(workload, config, validator).Run();
  }
}

TEST_P(SimPropertySweep, MedeaRunsCleanly) {
  const Workload workload = SeededWorkload(GetParam());
  SimConfig config;
  Medea medea;
  const SimResult result = Simulator(workload, config, medea).Run();
  EXPECT_GT(result.scheduled_pods, 0);
  // Medea is request-based everywhere: capacity violations require demand
  // bursts beyond requests, which the generator's limits forbid.
  EXPECT_LE(result.violation_rate(), 0.05);
}

TEST_P(SimPropertySweep, DisablingPreemptionNeverIncreasesLsrScheduled) {
  const Workload workload = SeededWorkload(GetParam());
  auto count_lsr = [](const SimResult& result) {
    int64_t scheduled = 0;
    for (const auto& rec : result.trace.lifecycles) {
      if (rec.slo == SloClass::kLsr && rec.schedule_tick >= 0) {
        ++scheduled;
      }
    }
    return scheduled;
  };
  SimConfig with;
  with.enable_lsr_preemption = true;
  SimConfig without;
  without.enable_lsr_preemption = false;
  AlibabaBaseline s1, s2;
  const int64_t preempting = count_lsr(Simulator(workload, with, s1).Run());
  const int64_t plain = count_lsr(Simulator(workload, without, s2).Run());
  EXPECT_GE(preempting, plain);
}

TEST_P(SimPropertySweep, RecordCadenceHonored) {
  const Workload workload = SeededWorkload(GetParam());
  SimConfig config;
  config.node_usage_period = 6;
  config.pod_usage_period = 12;
  AlibabaBaseline scheduler;
  const SimResult result = Simulator(workload, config, scheduler).Run();
  for (const auto& rec : result.trace.node_usage) {
    EXPECT_EQ(rec.collect_tick % 6, 0);
  }
  for (const auto& rec : result.trace.pod_usage) {
    EXPECT_EQ(rec.collect_tick % 12, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimPropertySweep, ::testing::Values(1, 7, 21, 42, 1337));

}  // namespace
}  // namespace optum
