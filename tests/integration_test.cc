// End-to-end integration tests: the full baseline-run -> offline-profiling
// -> Optum-run pipeline on a small cluster, plus trace persistence through
// the profilers.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "src/stats/descriptive.h"

#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload_generator.h"

namespace optum {
namespace {

WorkloadConfig PipelineConfig() {
  WorkloadConfig config;
  config.num_hosts = 24;
  config.horizon = 360;  // 3 simulated hours
  config.seed = 42;
  return config;
}

SimConfig FastSim() {
  SimConfig config;
  config.pod_usage_period = 4;
  config.max_attempts_per_tick = 1000;
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(WorkloadGenerator(PipelineConfig()).Generate());
    AlibabaBaseline baseline;
    baseline_result_ = new SimResult(Simulator(*workload_, FastSim(), baseline).Run());
    core::OfflineProfilerConfig prof_config;
    prof_config.max_train_samples = 800;
    profiles_ = new core::OptumProfiles(
        core::OfflineProfiler(prof_config).BuildProfiles(baseline_result_->trace));
  }
  static void TearDownTestSuite() {
    delete profiles_;
    delete baseline_result_;
    delete workload_;
    profiles_ = nullptr;
    baseline_result_ = nullptr;
    workload_ = nullptr;
  }

  static Workload* workload_;
  static SimResult* baseline_result_;
  static core::OptumProfiles* profiles_;
};

Workload* PipelineTest::workload_ = nullptr;
SimResult* PipelineTest::baseline_result_ = nullptr;
core::OptumProfiles* PipelineTest::profiles_ = nullptr;

TEST_F(PipelineTest, BaselineRunProducesTrace) {
  EXPECT_GT(baseline_result_->scheduled_pods, 100);
  EXPECT_FALSE(baseline_result_->trace.pod_usage.empty());
  EXPECT_FALSE(baseline_result_->trace.node_usage.empty());
  EXPECT_LT(baseline_result_->violation_rate(), 0.02);
}

TEST_F(PipelineTest, ProfilesCoverApplications) {
  EXPECT_GT(profiles_->apps.size(), 20u);
  EXPECT_GT(profiles_->ero.size(), 100u);
  int usable = 0;
  for (const auto& [id, model] : profiles_->apps) {
    usable += model.usable() ? 1 : 0;
  }
  EXPECT_GT(usable, 5);
}

TEST_F(PipelineTest, EroValuesWithinUnitInterval) {
  for (const auto& a : workload_->apps) {
    for (const auto& b : workload_->apps) {
      const double v = profiles_->ero.Get(a.id, b.id);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST_F(PipelineTest, OptumMatchesOrBeatsBaselineUtilization) {
  core::OptumProfiles copy;
  copy.ero = profiles_->ero;
  for (const auto& [id, model] : profiles_->apps) {
    core::AppModel m;
    m.stats = model.stats;
    m.discretizer = model.discretizer;
    copy.apps.emplace(id, std::move(m));
  }
  // Re-train is avoided: run Optum with stats-only profiles (no
  // interference models) — packing still comes from ERO. This keeps the
  // test fast and deterministic.
  core::OptumConfig config;
  config.min_candidates = 16;
  core::OptumScheduler optum(std::move(copy), config);
  SimConfig sim_config = FastSim();
  sim_config.on_tick_end = [&optum](const ClusterState& cluster, Tick now) {
    optum.ObserveColocation(cluster, now);
  };
  const SimResult optum_result = Simulator(*workload_, sim_config, optum).Run();
  EXPECT_GE(optum_result.MeanCpuUtilNonIdle(),
            baseline_result_->MeanCpuUtilNonIdle() * 0.98);
  EXPECT_LE(optum_result.violation_rate(), 0.01);
  EXPECT_GE(optum_result.scheduled_pods, baseline_result_->scheduled_pods * 9 / 10);
}

// Every field of every table must survive the round trip, with each row
// in its place (the row types compare every field).
template <typename Rows>
void ExpectSameRows(const Rows& loaded, const Rows& original, const char* table) {
  ASSERT_EQ(loaded.size(), original.size()) << table;
  for (size_t i = 0; i < original.size(); ++i) {
    ASSERT_TRUE(loaded[i] == original[i]) << table << " row " << i;
  }
}

TEST_F(PipelineTest, TraceRoundTripPreservesProfilingInputs) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "optum_integration_trace").string();
  const TraceBundle& trace = baseline_result_->trace;
  ASSERT_TRUE(WriteTraceBundle(trace, dir));
  TraceBundle loaded;
  ASSERT_TRUE(ReadTraceBundle(dir, &loaded));
  ExpectSameRows(loaded.nodes, trace.nodes, "nodes");
  ExpectSameRows(loaded.pods, trace.pods, "pods");
  ExpectSameRows(loaded.node_usage, trace.node_usage, "node_usage");
  ExpectSameRows(loaded.pod_usage, trace.pod_usage, "pod_usage");
  ExpectSameRows(loaded.lifecycles, trace.lifecycles, "lifecycles");
  // So the ERO table built from the round-tripped trace is the same table,
  // built by the same sequence of observations.
  core::OfflineProfiler profiler;
  const EroTable original = profiler.BuildEroTable(trace);
  const EroTable reloaded = profiler.BuildEroTable(loaded);
  EXPECT_EQ(original.size(), reloaded.size());
  EXPECT_EQ(original.version(), reloaded.version());
  for (const auto& a : workload_->apps) {
    for (const auto& b : workload_->apps) {
      if (a.id <= b.id && original.Contains(a.id, b.id)) {
        EXPECT_EQ(original.Get(a.id, b.id), reloaded.Get(a.id, b.id));
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineTest, WaitingTimesHeavierForBeThanLsr) {
  // Paper §3.1.3: LSR pods wait less than BE pods (preemption).
  std::vector<double> be_waits, lsr_waits;
  for (const auto& rec : baseline_result_->trace.lifecycles) {
    if (rec.schedule_tick < 0) {
      continue;
    }
    if (rec.slo == SloClass::kBe) {
      be_waits.push_back(rec.waiting_seconds);
    } else if (rec.slo == SloClass::kLsr) {
      lsr_waits.push_back(rec.waiting_seconds);
    }
  }
  ASSERT_FALSE(be_waits.empty());
  ASSERT_FALSE(lsr_waits.empty());
  EXPECT_GE(Mean(be_waits), Mean(lsr_waits));
}

TEST_F(PipelineTest, EqThreeInequalityHoldsInTrace) {
  // Property from Eq. 3: max_t(a+b) <= max_t(a) + max_t(b) for co-located
  // pod usage series. Verify on the recorded trace.
  // Build per-pod series on host 0.
  std::map<PodId, std::map<Tick, double>> series;
  for (const auto& rec : baseline_result_->trace.pod_usage) {
    if (rec.host == 0) {
      series[rec.pod_id][rec.collect_tick] = rec.cpu_usage;
    }
  }
  std::vector<PodId> ids;
  for (const auto& [id, s] : series) {
    if (s.size() > 10) {
      ids.push_back(id);
    }
  }
  if (ids.size() < 2) {
    GTEST_SKIP() << "not enough co-located pods on host 0";
  }
  const auto& sa = series[ids[0]];
  const auto& sb = series[ids[1]];
  double max_a = 0, max_b = 0, max_sum = 0;
  for (const auto& [t, va] : sa) {
    max_a = std::max(max_a, va);
    const auto it = sb.find(t);
    if (it != sb.end()) {
      max_sum = std::max(max_sum, va + it->second);
    }
  }
  for (const auto& [t, vb] : sb) {
    max_b = std::max(max_b, vb);
  }
  EXPECT_LE(max_sum, max_a + max_b + 1e-12);
}

}  // namespace
}  // namespace optum
