// Hot-path microbenchmarks on google-benchmark: the two loops the repository
// benchmark (perfbench: serve_steady, sim_day) cannot see on its own.
//
//   Forest/pointer, Forest/compiled/batch:N
//       One pass over 4,096 contention-style rows: row-at-a-time pointer
//       descent (RandomForestRegressor::Predict) vs the compiled SoA engine
//       (CompiledForest::PredictBatch, DESIGN.md §10) at batch 1, 8, 64 and
//       256. The compiled outputs must sum to the pointer checksum
//       bit-for-bit; a mismatch fails the benchmark (SkipWithError).
//   Sinks/<config>
//       One placement of the steady-state PlaceScored loop with each
//       observability configuration attached: metrics_off (every sink null,
//       the shipped disabled path), metrics_on, decision_log, spans,
//       pressure, profile. tools/bench_diff gates the ≤2% budgets between
//       them (DESIGN.md §9, §11, §13, §14).
//
// Repetitions, interleaving and the JSON file are google-benchmark's own
// --benchmark_* flags (tools/bench_runner.sh passes the ones the committed
// BENCH_hotpath.json was recorded with). Every benchmark adds a "mad"
// (median absolute deviation) aggregate to the library's mean, median,
// stddev and cv, and the JSON context carries the source version, build type
// and compiler next to the library's CPU description.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/ml/compiled_forest.h"
#include "src/ml/random_forest.h"
#include "src/obs/decision_log.h"
#include "src/obs/hotspot.h"
#include "src/obs/metrics.h"
#include "src/obs/pressure.h"
#include "src/obs/profiler.h"
#include "src/obs/span_log.h"
#include "src/obs/timeseries.h"
#include "src/sim/cluster.h"
#include "src/stats/rng.h"

namespace optum {
namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The spread statistic tools/bench_diff gates on.
double Mad(const std::vector<double>& v) {
  const double median = Median(v);
  std::vector<double> deviations;
  deviations.reserve(v.size());
  for (const double x : v) {
    deviations.push_back(std::abs(x - median));
  }
  return Median(std::move(deviations));
}

// One random forest trained on contention-style features (utilizations in
// [0, 1], an interference-shaped target) and the rows every forest benchmark
// predicts, slightly past the training range as live hosts are.
struct ForestFixture {
  static constexpr size_t kFeatures = 5;  // Eq. 9 width (LS feature vector)
  static constexpr size_t kRows = 4096;

  ml::RandomForestRegressor forest{ml::ForestParams{}, 7};
  std::vector<double> rows;
  double pointer_checksum = 0.0;

  ForestFixture() {
    Rng rng(2024);
    ml::Dataset data(kFeatures);
    std::vector<double> x(kFeatures);
    for (size_t i = 0; i < 2500; ++i) {
      for (auto& v : x) {
        v = rng.Uniform(0, 1);
      }
      const double y = 0.15 * x[0] + 0.4 * x[0] * x[1] +
                       0.2 * (x[2] > 0.7 ? 1.0 : 0.0) + 0.1 * x[3] +
                       rng.Gaussian(0, 0.02);
      data.Add(x, y);
    }
    forest.Fit(data);
    rows.resize(kRows * kFeatures);
    for (auto& v : rows) {
      v = rng.Uniform(0, 1.2);
    }
    pointer_checksum = PointerPass();
  }

  double PointerPass() const {
    double sum = 0.0;
    for (size_t i = 0; i < kRows; ++i) {
      sum += forest.Predict(std::span<const double>(rows.data() + i * kFeatures, kFeatures));
    }
    return sum;
  }

  void CompiledPass(size_t batch, std::vector<double>& out) const {
    for (size_t begin = 0; begin < kRows; begin += batch) {
      const size_t n = std::min(batch, kRows - begin);
      forest.compiled().PredictBatch(
          std::span<const double>(rows.data() + begin * kFeatures, n * kFeatures),
          kFeatures, std::span<double>(out.data() + begin, n));
    }
  }
};

const ForestFixture& Forest() {
  static const ForestFixture fixture;
  return fixture;
}

void BM_ForestPointer(benchmark::State& state) {
  const ForestFixture& f = Forest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.PointerPass());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(ForestFixture::kRows));
}

void BM_ForestCompiled(benchmark::State& state, size_t batch) {
  const ForestFixture& f = Forest();
  std::vector<double> out(ForestFixture::kRows);
  f.CompiledPass(batch, out);
  double checksum = 0.0;
  for (const double v : out) {
    checksum += v;
  }
  if (checksum != f.pointer_checksum) {
    char msg[128];
    std::snprintf(msg, sizeof(msg), "compiled checksum %.17g != pointer %.17g", checksum,
                  f.pointer_checksum);
    state.SkipWithError(msg);
    return;
  }
  for (auto _ : state) {
    f.CompiledPass(batch, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(ForestFixture::kRows));
}

// Profiles trained on the standard 64-host reference run (the pipeline the
// figure benches use), so scoring reads trained ERO entries and app models.
// Built on first use: a --benchmark_filter=Forest run never trains them.
struct TrainedProfiles {
  Workload reference = WorkloadGenerator(bench::DefaultWorkloadConfig()).Generate();
  core::OptumProfiles profiles;
  std::vector<const AppProfile*> catalog = SchedulableApps(reference);

  TrainedProfiles() {
    AlibabaBaseline policy = bench::MakeReferenceScheduler();
    Simulator sim(reference, bench::DefaultSimConfig(), policy);
    profiles = bench::BuildProfiles(sim.Run().trace);
  }
};

const TrainedProfiles& Trained() {
  static const TrainedProfiles trained;
  return trained;
}

enum class SinkConfig { kMetricsOff, kMetricsOn, kDecisionLog, kSpans, kPressure, kProfile };

template <typename T>
T* Ptr(std::optional<T>& sink) {
  return sink ? &*sink : nullptr;
}

// The steady-state scheduling loop (tests/concurrency_test.cc's
// StreamPlacements runs the same one): 1,000 hosts prefilled with 16 pods
// each; every placement is committed and every third submission removes an
// older pod, so host epochs keep churning. Each repetition places a 4,000-pod
// warm-up stream untimed, then times one placement per iteration (a fixed
// 4,000). The cadences per stream: a series sample every 64 placements, a
// full pressure sweep every 512 (the serve round's cadence, DESIGN.md §13),
// and a profiler round closed after every placement — the worst case, where
// a serve round amortizes one EndRound over dozens of placements.
constexpr int kHosts = 1000;
constexpr int kPrefillPerHost = 16;
constexpr int kStream = 4000;

void BM_Sinks(benchmark::State& state, SinkConfig config) {
  const TrainedProfiles& trained = Trained();
  const std::vector<const AppProfile*>& catalog = trained.catalog;
  std::optional<obs::MetricRegistry> registry;
  std::optional<obs::DecisionLog> decision_log;
  std::optional<obs::SpanLog> span_log;
  std::optional<obs::TimeSeriesRecorder> series;
  std::optional<obs::HotspotLog> hotspot_log;
  std::optional<obs::HostPressureMonitor> pressure;
  std::optional<obs::ProfileLog> profile_log;
  std::optional<obs::RoundProfiler> profiler;
  if (config != SinkConfig::kMetricsOff) {
    registry.emplace();
  }
  switch (config) {
    case SinkConfig::kMetricsOff:
    case SinkConfig::kMetricsOn:
      break;
    case SinkConfig::kDecisionLog:
      decision_log.emplace("/dev/null");
      break;
    case SinkConfig::kSpans:
      // The lifecycle-tracing configuration (`runsim --span-log
      // --series-json`): three spans per placement plus the phase counters
      // AttachMetrics wires, and the scheduler's gauges through the ring.
      span_log.emplace("/dev/null");
      span_log->AttachMetrics(&*registry);
      series.emplace(&*registry, "/dev/null");
      break;
    case SinkConfig::kPressure: {
      // The sensor configuration (`serve_bench --pressure --hotspot-log`).
      hotspot_log.emplace("/dev/null");
      pressure.emplace(static_cast<size_t>(kHosts), obs::HostPressureMonitor::Options{});
      obs::Sinks pressure_sinks;
      pressure_sinks.hotspot_log = &*hotspot_log;
      pressure_sinks.metrics = &*registry;
      pressure->AttachSinks(pressure_sinks, "bench");
      break;
    }
    case SinkConfig::kProfile:
      // The phase-profiling configuration (`serve_bench --profile-json`).
      profile_log.emplace("/dev/null");
      profiler.emplace();  // default 64-round windows
      profiler->set_log(&*profile_log);
      break;
  }

  ClusterState cluster(kHosts, kUnitResources, /*history_window=*/64);
  PodId next_id = 0;
  std::vector<PodRuntime*> live;
  live.reserve(static_cast<size_t>(kHosts) * kPrefillPerHost);
  for (int h = 0; h < kHosts; ++h) {
    for (int k = 0; k < kPrefillPerHost; ++k) {
      const AppProfile& app = *catalog[static_cast<size_t>(next_id) % catalog.size()];
      live.push_back(cluster.Place(MakePodSpec(next_id, app), &app, h, 0));
      ++next_id;
    }
  }
  core::OptumScheduler scheduler(trained.profiles, core::OptumConfig{});
  obs::Sinks sinks;
  sinks.metrics = Ptr(registry);
  sinks.decision_log = Ptr(decision_log);
  sinks.span_log = Ptr(span_log);
  scheduler.AttachSinks(sinks);

  size_t evict_cursor = 0;
  Tick pressure_tick = 0;  // monitor ticks must be strictly increasing
  const auto place_one = [&](int i) {
    const AppProfile& app = *catalog[static_cast<size_t>(next_id) % catalog.size()];
    const PodSpec spec = MakePodSpec(next_id, app);
    ++next_id;
    double score = 0.0;
    PlacementDecision decision;
    {
      // One placement is the round's barrier work here, so it runs under
      // the settle phase and EndRound closes the round below.
      obs::RoundProfiler::Scope settle(Ptr(profiler), obs::ProfilePhase::kFinalizeRevalidate, 0);
      decision = scheduler.PlaceScored(spec, cluster, &score);
    }
    if (decision.placed()) {
      live.push_back(cluster.Place(spec, &app, decision.host, 0));
      if (span_log) {
        // The simulator's serial commit span.
        span_log->Append({.tick = static_cast<Tick>(i), .pod = spec.id,
                          .phase = obs::SpanPhase::kPlaced, .host = decision.host,
                          .wait_ticks = 0});
      }
    }
    if (series && i % 64 == 0) {
      series->Sample(static_cast<Tick>(i));
    }
    if (pressure && i % 512 == 0) {
      // PlacementService::SamplePressure: a serial sweep of every host with
      // the resident-interference term.
      pressure->BeginTick(pressure_tick++);
      for (const Host& host : cluster.hosts()) {
        obs::HostPressureInput in;
        const Resources predicted =
            scheduler.usage_predictor().PredictHost(host, /*incoming=*/nullptr);
        in.cpu_util = host.capacity.cpu > 0.0 ? predicted.cpu / host.capacity.cpu : 0.0;
        in.mem_util = host.capacity.mem > 0.0 ? predicted.mem / host.capacity.mem : 0.0;
        in.pods_be = host.slo_pods[static_cast<size_t>(SloClass::kBe)];
        in.pods_ls = host.slo_pods[static_cast<size_t>(SloClass::kLs)];
        in.pods_lsr = host.slo_pods[static_cast<size_t>(SloClass::kLsr)];
        const int32_t ls_pods = in.pods_ls + in.pods_lsr;
        if (ls_pods > 0) {
          in.interference = scheduler.interference_predictor().ResidentInterference(
                                host, in.cpu_util, in.mem_util, /*weight_ls=*/1.0,
                                /*weight_be=*/0.0, /*lane=*/0) /
                            static_cast<double>(ls_pods);
        }
        pressure->ObserveHost(host.id, in);
      }
      pressure->EndTick();
    }
    if (i % 3 == 0 && !live.empty()) {
      evict_cursor = (evict_cursor + 1) % live.size();
      cluster.Remove(live[evict_cursor]);
      live[evict_cursor] = live.back();
      live.pop_back();
    }
    if (profiler) {
      profiler->EndRound();
    }
  };

  for (int i = 0; i < kStream; ++i) {
    place_one(i);
  }
  int i = 0;
  for (auto _ : state) {
    place_one(i++);
  }
  state.SetItemsProcessed(state.iterations());
}

// `git describe` of the source tree the binary was built from, read when it
// runs so a rebuilt checkout never reports a stale configure-time value.
std::string SourceVersion() {
  const std::string cmd =
      "git -C '" OPTUM_SOURCE_DIR "' describe --always --dirty 2>/dev/null";
  std::string out;
  if (std::FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      out += buf;
    }
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out.empty() ? "unknown (not a git checkout)" : out;
}

int Main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::AddCustomContext("source", SourceVersion());
  benchmark::AddCustomContext("build_type", OPTUM_BUILD_TYPE);
  benchmark::AddCustomContext("compiler", OPTUM_COMPILER);

  const auto with_mad = [](benchmark::internal::Benchmark* b) {
    return b->ComputeStatistics("mad", Mad)->Unit(benchmark::kMicrosecond);
  };
  with_mad(benchmark::RegisterBenchmark("Forest/pointer", BM_ForestPointer));
  for (const size_t batch : {size_t{1}, size_t{8}, size_t{64}, size_t{256}}) {
    const std::string name = "Forest/compiled/batch:" + std::to_string(batch);
    with_mad(benchmark::RegisterBenchmark(name.c_str(), BM_ForestCompiled, batch));
  }
  const std::pair<const char*, SinkConfig> sink_configs[] = {
      {"metrics_off", SinkConfig::kMetricsOff}, {"metrics_on", SinkConfig::kMetricsOn},
      {"decision_log", SinkConfig::kDecisionLog}, {"spans", SinkConfig::kSpans},
      {"pressure", SinkConfig::kPressure},       {"profile", SinkConfig::kProfile}};
  for (const auto& [name, config] : sink_configs) {
    const std::string full = std::string("Sinks/") + name;
    with_mad(benchmark::RegisterBenchmark(full.c_str(), BM_Sinks, config))
        ->Iterations(kStream);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace optum

int main(int argc, char** argv) { return optum::Main(argc, argv); }
