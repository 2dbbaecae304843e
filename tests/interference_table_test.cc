// Dense interference tables (DESIGN.md §8): every value the scheduler reads
// from InterferencePredictor is filled into the app's InterferenceTable when
// the profiles are built. These tests pin each cell to the on-demand
// evaluation it replaced — the discretized model at the bucket's canonical
// point, and the raw-model finite difference on the fine grid — and require
// the same tables for every crew size the fill runs on, for predictors over
// hand-made profiles that fill their own, and after ReplaceProfiles — which
// must also re-sync the usage predictor's flat memory profiles and its
// cached baselines with the new ERO table (checked against the Eq. 8 oracle
// in tests/scoring_oracle.h, which reads the profiles' own models).
// Labeled `concurrency`: the fill runs on a ShardCrew.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "src/core/interference_predictor.h"
#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"
#include "tests/scoring_oracle.h"

namespace optum::core {
namespace {

constexpr size_t kBuckets = InterferenceTable::kBuckets;
constexpr size_t kCells = kBuckets * kBuckets;

// The predictor's bucket grid over [0, 2], restated here so the tables are
// checked against an independent copy.
uint64_t UtilBucket(double v, size_t buckets) {
  return static_cast<uint64_t>(std::clamp(v, 0.0, 2.0) / 2.0 *
                               static_cast<double>(buckets - 1));
}
double BucketPoint(uint64_t bucket, size_t buckets) {
  return std::min(2.0, (static_cast<double>(bucket) + 0.5) *
                           (2.0 / static_cast<double>(buckets - 1)));
}

// Appends the Eq. 9/10 feature row of `model` at the given host utilizations.
void AppendRow(const AppModel& model, double cpu, double mem, std::vector<double>* rows) {
  rows->insert(rows->end(), {model.stats.max_pod_cpu_util, model.stats.max_pod_mem_util,
                             cpu, mem});
  if (IsLatencySensitive(model.stats.slo)) {
    rows->push_back(1.0);
  }
}
size_t RowWidth(const AppModel& model) {
  return IsLatencySensitive(model.stats.slo) ? kLsFeatureCount : kBeFeatureCount;
}

std::vector<double> Batch(const AppModel& model, const std::vector<double>& rows) {
  std::vector<double> out(rows.size() / RowWidth(model));
  model.model->PredictBatch(rows, RowWidth(model), out);
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameTables(const InterferenceTable& a, const InterferenceTable& b) {
  return std::memcmp(&a, &b, sizeof(InterferenceTable)) == 0;
}

OptumProfiles StripTables(OptumProfiles profiles) {
  for (auto& [app, model] : profiles.apps) {
    model.table.reset();
  }
  return profiles;
}

class InterferenceTableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.num_hosts = 64;
    config.horizon = 3 * kTicksPerHour;
    config.seed = 23;
    workload_ = new Workload(WorkloadGenerator(config).Generate());
    SimConfig sim_config;
    sim_config.pod_usage_period = 5;
    sim_config.max_attempts_per_tick = 1500;
    AlibabaBaseline reference;
    const SimResult ref = Simulator(*workload_, sim_config, reference).Run();
    OfflineProfilerConfig prof;
    prof.max_train_samples = 600;
    profiles_ = new OptumProfiles(OfflineProfiler(prof).BuildProfiles(ref.trace));
    // A second, different profile set: more apps pass the sample floor and
    // every model draws from another seed.
    prof.min_samples = 10;
    prof.seed = 99;
    other_profiles_ = new OptumProfiles(OfflineProfiler(prof).BuildProfiles(ref.trace));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete profiles_;
    delete other_profiles_;
  }

  static std::vector<const AppModel*> UsableModels(const OptumProfiles& profiles) {
    std::vector<const AppModel*> models;
    for (const auto& [app, model] : profiles.apps) {
      if (model.usable()) {
        models.push_back(&model);
      }
    }
    return models;
  }

  static Workload* workload_;
  static OptumProfiles* profiles_;
  static OptumProfiles* other_profiles_;
};

Workload* InterferenceTableTest::workload_ = nullptr;
OptumProfiles* InterferenceTableTest::profiles_ = nullptr;
OptumProfiles* InterferenceTableTest::other_profiles_ = nullptr;

TEST_F(InterferenceTableTest, EveryUsableModelHasATableAndOnlyThose) {
  size_t usable = 0;
  for (const auto& [app, model] : profiles_->apps) {
    EXPECT_EQ(model.table != nullptr, model.usable()) << "app " << app;
    usable += model.usable() ? 1 : 0;
  }
  EXPECT_GT(usable, 5u);
  // Copies of the profiles (one per coordinator shard) share the tables.
  const OptumProfiles copy = *profiles_;
  for (const auto& [app, model] : copy.apps) {
    EXPECT_EQ(model.table.get(), profiles_->apps.at(app).table.get());
  }
}

TEST_F(InterferenceTableTest, PredictCellsAreDiscretizedBatchAtBucketPoints) {
  const InterferencePredictor predictor(profiles_);
  for (const auto& [app, model] : profiles_->apps) {
    if (!model.usable()) {
      EXPECT_EQ(predictor.Predict(app, 0.7, 0.4), 0.0);
      continue;
    }
    std::vector<double> rows;
    for (uint64_t c = 0; c < kBuckets; ++c) {
      for (uint64_t m = 0; m < kBuckets; ++m) {
        AppendRow(model, BucketPoint(c, kBuckets), BucketPoint(m, kBuckets), &rows);
      }
    }
    const std::vector<double> raw = Batch(model, rows);
    for (size_t cell = 0; cell < kCells; ++cell) {
      const double expected = model.discretizer.ToUpperBound(raw[cell]);
      ASSERT_TRUE(SameBits(model.table->predict[cell], expected))
          << "app " << app << " cell " << cell;
      ASSERT_TRUE(SameBits(predictor.Predict(app, BucketPoint(cell / kBuckets, kBuckets),
                                             BucketPoint(cell % kBuckets, kBuckets)),
                           expected))
          << "app " << app << " cell " << cell;
    }
  }
  const InterferencePredictor::CacheStats stats = predictor.cache_stats();
  EXPECT_GT(stats.predict_hits, 0u);
  EXPECT_EQ(stats.predict_misses, 0u);
  EXPECT_EQ(stats.forest_evals(), 0u);
}

TEST_F(InterferenceTableTest, SlopeCellsAreTheFineGridFiniteDifference) {
  // The slope the lazy path computed on a slope-cache miss: raw model output
  // at both ends of +-0.06 around the midpoint bucket's point, memory at its
  // bucket's point, each endpoint snapped to the 8x finer grid.
  constexpr double kSpan = 0.06;
  constexpr size_t kFine = kBuckets * 8;
  for (const AppModel* model : UsableModels(*profiles_)) {
    std::vector<double> rows;  // per cell: hi endpoint, then lo
    for (uint64_t mid = 0; mid < kBuckets; ++mid) {
      const double mid_point = BucketPoint(mid, kBuckets);
      const double hi = BucketPoint(UtilBucket(mid_point + kSpan, kFine), kFine);
      const double lo =
          BucketPoint(UtilBucket(std::max(0.0, mid_point - kSpan), kFine), kFine);
      for (uint64_t mem = 0; mem < kBuckets; ++mem) {
        const double mem_point =
            BucketPoint(UtilBucket(BucketPoint(mem, kBuckets), kFine), kFine);
        AppendRow(*model, hi, mem_point, &rows);
        AppendRow(*model, lo, mem_point, &rows);
      }
    }
    const std::vector<double> raw = Batch(*model, rows);
    for (size_t cell = 0; cell < kCells; ++cell) {
      const double mid_point = BucketPoint(cell / kBuckets, kBuckets);
      const double lo_cpu = std::max(0.0, mid_point - kSpan);
      const double span = mid_point + kSpan - lo_cpu;
      const double expected =
          span > 1e-9 ? std::max(0.0, (raw[2 * cell] - raw[2 * cell + 1]) / span) : 0.0;
      ASSERT_TRUE(SameBits(model->table->slope[cell], expected)) << "cell " << cell;
    }
  }
}

TEST_F(InterferenceTableTest, FillIsIdenticalOnEveryCrewSize) {
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << lanes << " lanes");
    OptumProfiles refilled = StripTables(*profiles_);
    ShardCrew crew(lanes);
    InterferencePredictor::FillTables(&refilled, crew);
    for (const auto& [app, model] : refilled.apps) {
      const AppModel& original = profiles_->apps.at(app);
      ASSERT_EQ(model.table != nullptr, original.usable()) << "app " << app;
      if (model.table != nullptr) {
        EXPECT_TRUE(SameTables(*model.table, *original.table)) << "app " << app;
      }
    }
  }
}

TEST_F(InterferenceTableTest, PredictorFillsItsOwnTablesForHandMadeProfiles) {
  const OptumProfiles stripped = StripTables(*profiles_);
  const InterferencePredictor own(&stripped);
  const InterferencePredictor shared(profiles_);
  for (const auto& [app, model] : profiles_->apps) {
    for (double cpu = 0.0; cpu <= 2.1; cpu += 0.0173) {
      for (double mem = 0.0; mem <= 2.1; mem += 0.0911) {
        ASSERT_TRUE(SameBits(own.Predict(app, cpu, mem), shared.Predict(app, cpu, mem)))
            << "app " << app << " at (" << cpu << ", " << mem << ")";
      }
    }
  }
}

TEST_F(InterferenceTableTest, ReplaceProfilesMatchesAFreshScheduler) {
  // Pods of apps with some interference in either profile set (many apps'
  // discretized PSI is 0 everywhere), so both scoring paths read nonzero
  // cells: the first 120 fill a small fleet, the next 40 are scored.
  const auto interferes = [](const OptumProfiles& profiles, AppId app) {
    const AppModel* model = profiles.Find(app);
    if (model == nullptr || model->table == nullptr) {
      return false;
    }
    const auto nonzero = [](double v) { return v != 0.0; };
    return std::any_of(model->table->predict.begin(), model->table->predict.end(), nonzero) ||
           std::any_of(model->table->slope.begin(), model->table->slope.end(), nonzero);
  };
  std::vector<const PodSpec*> pods;
  for (const PodSpec& spec : workload_->pods) {
    if (pods.size() < 160 &&
        (interferes(*profiles_, spec.app) || interferes(*other_profiles_, spec.app))) {
      pods.push_back(&spec);
    }
  }
  ASSERT_EQ(pods.size(), 160u);
  ClusterState cluster(8, kUnitResources, 16);
  for (size_t i = 0; i < 120; ++i) {
    cluster.Place(*pods[i], &AppOf(*workload_, pods[i]->app), static_cast<HostId>(i % 8), 0);
  }
  const auto score_all = [&](const OptumScheduler& scheduler) {
    std::vector<double> scores;
    for (size_t i = 120; i < pods.size(); ++i) {
      for (const Host& host : cluster.hosts()) {
        const OptumScheduler::HostEvaluation e = scheduler.EvaluateHost(*pods[i], host);
        scores.insert(scores.end(), {e.feasible ? 1.0 : 0.0, e.score, e.interference});
        // The fleet sits where most cells are 0; read the busy end too.
        const InterferencePredictor& predictor = scheduler.interference_predictor();
        scores.push_back(
            predictor.MarginalInterference(host, *pods[i], 1.1, 0.5, 1.3, 0.6, 0.7, 0.3));
        scores.push_back(predictor.TotalInterference(host, *pods[i], 1.3, 0.6, 0.7, 0.3));
      }
    }
    return scores;
  };
  for (const ScoreMode mode : {ScoreMode::kMarginal, ScoreMode::kPaperAbsolute}) {
    OptumConfig config;
    config.score_mode = mode;
    OptumScheduler replaced(*profiles_, config);
    const std::vector<double> before = score_all(replaced);
    replaced.ReplaceProfiles(*other_profiles_);
    const OptumScheduler fresh(*other_profiles_, config);
    const std::vector<double> got = score_all(replaced);
    const std::vector<double> want = score_all(fresh);
    EXPECT_NE(got, before);  // the new profiles really score differently
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(SameBits(got[i], want[i])) << "entry " << i;
    }
    for (const auto& [app, model] : other_profiles_->apps) {
      for (double util = 0.0; util <= 2.0; util += 0.05) {
        ASSERT_TRUE(SameBits(replaced.interference_predictor().Predict(app, util, 0.5),
                             fresh.interference_predictor().Predict(app, util, 0.5)));
      }
    }
    // Table reads only: nothing was evaluated while scoring.
    EXPECT_EQ(replaced.interference_predictor().cache_stats().forest_evals(), 0u);
  }
}

TEST_F(InterferenceTableTest, ReplaceProfilesResyncsMemoryProfilesAndEro) {
  // A swapped-in profile set whose memory profiles and ERO differ from the
  // original's for every app, plus a model-less app past the largest id.
  OptumProfiles swapped = *profiles_;
  for (auto& [app, model] : swapped.apps) {
    model.stats.mem_profile = 0.3 + 0.01 * static_cast<double>(app % 50);
  }
  const AppId num_apps = static_cast<AppId>(workload_->apps.size());
  const AppId late_app = num_apps + 5;
  swapped.apps[late_app].stats.mem_profile = 0.42;
  swapped.ero = EroTable();  // its version restarts, colliding with the old
  for (AppId a = 0; a < num_apps; ++a) {
    for (AppId b = a; b < num_apps; b += 3) {
      swapped.ero.Observe(a, b, 0.2 + 0.06 * static_cast<double>((7 * a + b) % 10));
    }
  }

  ClusterState cluster(8, kUnitResources, 16);
  std::vector<PodSpec> incoming;
  for (size_t i = 0; i < 100; ++i) {
    const PodSpec& spec = workload_->pods[i];
    if (i < 60) {
      cluster.Place(spec, &AppOf(*workload_, spec.app), static_cast<HostId>(i % 8), 0);
    } else {
      incoming.push_back(spec);
    }
  }
  incoming.push_back(incoming.front());
  incoming.back().app = late_app;

  for (const bool triple : {false, true}) {
    SCOPED_TRACE(triple ? "triple-wise" : "pairwise");
    OptumConfig config;
    config.use_triple_ero = triple;
    OptumScheduler replaced(*profiles_, config);
    std::vector<double> before;
    for (const Host& host : cluster.hosts()) {  // warm every host's baseline
      for (const PodSpec& pod : incoming) {
        before.push_back(replaced.usage_predictor().PredictHost(host, &pod).mem);
      }
    }
    replaced.ReplaceProfiles(swapped);
    const OptumScheduler fresh(swapped, config);
    const ResourceUsagePredictor& usage = replaced.usage_predictor();
    size_t k = 0;
    size_t mem_moved = 0;
    for (const Host& host : cluster.hosts()) {
      const Resources as_is = usage.PredictHost(host, nullptr);
      const Resources as_is_rescan =
          testing_oracle::PredictHost(swapped, usage.grouping(), host, nullptr);
      ASSERT_TRUE(SameBits(as_is.cpu, as_is_rescan.cpu) &&
                  SameBits(as_is.mem, as_is_rescan.mem))
          << "host " << host.id;
      for (const PodSpec& pod : incoming) {
        const Resources cached = usage.PredictHost(host, &pod);
        const Resources rescan =
            testing_oracle::PredictHost(swapped, usage.grouping(), host, &pod);
        const Resources want = fresh.usage_predictor().PredictHost(host, &pod);
        ASSERT_TRUE(SameBits(cached.cpu, rescan.cpu) && SameBits(cached.mem, rescan.mem))
            << "host " << host.id << " app " << pod.app;
        ASSERT_TRUE(SameBits(cached.cpu, want.cpu) && SameBits(cached.mem, want.mem))
            << "host " << host.id << " app " << pod.app;
        const OptumScheduler::HostEvaluation got = replaced.EvaluateHost(pod, host);
        const OptumScheduler::HostEvaluation expected = fresh.EvaluateHost(pod, host);
        ASSERT_EQ(got.feasible, expected.feasible);
        ASSERT_TRUE(SameBits(got.score, expected.score));
        mem_moved += cached.mem != before[k++] ? 1 : 0;
      }
    }
    EXPECT_EQ(mem_moved, before.size());  // every memory estimate changed
  }
}

}  // namespace
}  // namespace optum::core
