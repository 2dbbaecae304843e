// Hot-path throughput benchmark (not a paper figure): tracks the two loops
// that dominate trace-run wall clock so future PRs can see the trajectory.
//
//   1. Scheduler scoring: pods placed per second through
//      OptumScheduler::PlaceScored on a prefilled cluster, with the
//      incremental host-baseline cache ON vs OFF. The OFF configuration is
//      the pre-change behaviour (full Eq. 8 rescan per candidate), so the
//      ratio is the speedup delivered by the cache.
//   2. Simulator tick: ticks per second of a full reference-scheduler run,
//      one lane (serial) vs hardware_concurrency lanes for the per-tick host
//      and pod passes (bit-identical results; each tick row records the
//      lane count, which is the measured hardware_concurrency).
//   3. Forest inference: ns/row of pointer-tree descent
//      (RandomForestRegressor::Predict) vs the compiled SoA engine
//      (CompiledForest::PredictBatch, DESIGN.md §10) across a batch-size
//      sweep. Outputs are bit-identical; the sweep shows where batching
//      starts paying beyond the layout win.
//   4. Placement service: the open-loop serve layer (DESIGN.md §12) at
//      6,000 hosts — offered load × shard count sweep, reporting
//      deterministic model-time placement-latency percentiles
//      (optum.latency.v1 fields) plus wall-clock placement throughput.
//
// Emits BENCH_hotpath.json (path = argv[1], default ./BENCH_hotpath.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/ml/compiled_forest.h"
#include "src/serve/placement_service.h"
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

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ScoringRow {
  int hosts = 0;
  int pods = 0;
  size_t candidates_per_pod = 0;
  double pods_per_sec_baseline = 0.0;  // cache OFF (pre-change rescan path)
  double pods_per_sec_cached = 0.0;    // cache ON
  double speedup = 0.0;
};

// Steady-state scheduling loop: prefilled cluster, every placement is
// committed, and one older pod is removed every third submission so host
// epochs keep churning (the cache must keep revalidating, as in a real run).
double MeasureScoring(const core::OptumProfiles& profiles,
                      const std::vector<const AppProfile*>& catalog, int num_hosts,
                      int prefill_per_host, int warmup, int stream, bool cached,
                      obs::MetricRegistry* registry = nullptr,
                      obs::DecisionLog* decision_log = nullptr,
                      obs::SpanLog* span_log = nullptr,
                      obs::TimeSeriesRecorder* series = nullptr,
                      obs::HostPressureMonitor* pressure = nullptr,
                      obs::RoundProfiler* profiler = nullptr,
                      core::InterferencePredictor::CacheStats* stats_out = nullptr) {
  ClusterState cluster(num_hosts, kUnitResources, /*history_window=*/64);
  PodId next_id = 0;
  std::vector<PodRuntime*> live;
  live.reserve(static_cast<size_t>(num_hosts) * static_cast<size_t>(prefill_per_host));
  for (int h = 0; h < num_hosts; ++h) {
    for (int k = 0; k < prefill_per_host; ++k) {
      const AppProfile& app = *catalog[static_cast<size_t>(next_id) % catalog.size()];
      live.push_back(cluster.Place(MakePodSpec(next_id, app), &app, h, 0));
      ++next_id;
    }
  }

  core::OptumConfig config;
  config.use_incremental_cache = cached;
  core::OptumScheduler scheduler(profiles, config);
  obs::Sinks sinks;
  sinks.metrics = registry;
  sinks.decision_log = decision_log;
  sinks.span_log = span_log;
  scheduler.AttachSinks(sinks);

  // A simulator tick schedules a few dozen pods, so sampling the series once
  // per kSeriesPeriod placements reproduces the per-tick cadence runsim uses.
  constexpr int kSeriesPeriod = 64;
  // The pressure sweep runs at the placement service's round cadence
  // (DESIGN.md §13): one full host sweep per ~kPressurePeriod placements.
  constexpr int kPressurePeriod = 512;
  size_t evict_cursor = 0;
  Tick pressure_tick = 0;  // monitor ticks must be strictly increasing
  const auto run_segment = [&](int pods) {
    for (int i = 0; i < pods; ++i) {
      const AppProfile& app = *catalog[static_cast<size_t>(next_id) % catalog.size()];
      const PodSpec spec = MakePodSpec(next_id, app);
      ++next_id;
      double score = 0.0;
      PlacementDecision decision;
      {
        // Round-profiler cadence: in this loop one placement IS the round's
        // barrier work, so each PlaceScored runs under the settle phase and
        // EndRound closes at the bottom of the iteration — the worst case
        // for profiler overhead (a serve round amortizes one EndRound over
        // dozens of placements).
        obs::RoundProfiler::Scope settle(
            profiler, obs::ProfilePhase::kFinalizeRevalidate, 0);
        decision = scheduler.PlaceScored(spec, cluster, &score);
      }
      if (decision.placed()) {
        live.push_back(cluster.Place(spec, &app, decision.host, 0));
        if (span_log != nullptr) {
          // The simulator's serial commit span (lifecycle tracing active).
          span_log->Append({.tick = static_cast<Tick>(i), .pod = spec.id,
                            .phase = obs::SpanPhase::kPlaced,
                            .host = decision.host, .wait_ticks = 0});
        }
      }
      if (series != nullptr && i % kSeriesPeriod == 0) {
        series->Sample(static_cast<Tick>(i));
      }
      if (pressure != nullptr && i % kPressurePeriod == 0) {
        // Mirrors PlacementService::SamplePressure: a full serial host sweep
        // with the resident-interference term, once per placement round. The
        // serve layer samples pressure at round granularity (several hundred
        // placements at production offered rates), not per sim tick — the
        // simulator's per-tick sweep rides a tick that already does O(hosts)
        // usage work, so the per-64-placement series cadence would charge
        // the sensor against a baseline that bears none of that cost.
        pressure->BeginTick(pressure_tick++);
        for (const Host& host : cluster.hosts()) {
          obs::HostPressureInput in;
          const Resources predicted =
              scheduler.usage_predictor().PredictHost(host, /*incoming=*/nullptr);
          in.cpu_util = host.capacity.cpu > 0.0
                            ? predicted.cpu / host.capacity.cpu
                            : 0.0;
          in.mem_util = host.capacity.mem > 0.0
                            ? predicted.mem / host.capacity.mem
                            : 0.0;
          int32_t counts[kNumSloClasses];
          CountPodsBySlo(host, counts);
          in.pods_be = counts[static_cast<size_t>(SloClass::kBe)];
          in.pods_ls = counts[static_cast<size_t>(SloClass::kLs)];
          in.pods_lsr = counts[static_cast<size_t>(SloClass::kLsr)];
          const int32_t ls_pods = in.pods_ls + in.pods_lsr;
          if (ls_pods > 0) {
            in.interference = scheduler.interference_predictor()
                                  .ResidentInterference(
                                      host, in.cpu_util, in.mem_util,
                                      /*weight_ls=*/1.0, /*weight_be=*/0.0,
                                      /*lane=*/0) /
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
      if (profiler != nullptr) {
        profiler->EndRound();
      }
    }
  };

  run_segment(warmup);
  // Best of three timed segments: the box this runs on may be noisy, and
  // throughput (not latency) is the metric, so the cleanest segment is the
  // most faithful one.
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    run_segment(stream);
    best = std::max(best, static_cast<double>(stream) / SecondsSince(start));
  }
  if (stats_out != nullptr) {
    *stats_out = scheduler.interference_predictor().cache_stats();
  }
  return best;
}

ScoringRow RunScoringBench(const core::OptumProfiles& profiles,
                           const std::vector<const AppProfile*>& catalog, int num_hosts,
                           int stream) {
  constexpr int kPrefillPerHost = 16;
  // Warm for a full stream length so the measurement reflects steady state:
  // the prediction/slope caches of both configurations start cold, and a
  // long trace run spends almost all its time warm.
  const int warmup = stream;
  ScoringRow row;
  row.hosts = num_hosts;
  row.pods = stream;
  core::OptumConfig defaults;
  row.candidates_per_pod =
      std::max(defaults.min_candidates,
               static_cast<size_t>(defaults.sample_fraction * num_hosts));
  row.pods_per_sec_baseline = MeasureScoring(profiles, catalog, num_hosts,
                                             kPrefillPerHost, warmup, stream,
                                             /*cached=*/false);
  row.pods_per_sec_cached = MeasureScoring(profiles, catalog, num_hosts,
                                           kPrefillPerHost, warmup, stream,
                                           /*cached=*/true);
  row.speedup = row.pods_per_sec_cached / row.pods_per_sec_baseline;
  return row;
}

struct ObsRow {
  int hosts = 0;
  int pods = 0;
  double pods_per_sec_metrics_off = 0.0;  // nullable sinks detached
  double pods_per_sec_metrics_on = 0.0;   // registry + timers + collectors
  double pods_per_sec_decision_log = 0.0; // metrics + per-placement JSONL
  double pods_per_sec_spans = 0.0;        // metrics + span log + series ring
  double pods_per_sec_pressure = 0.0;     // metrics + pressure/hotspot/SLO sensor
  double pods_per_sec_profile = 0.0;      // metrics + round profiler + JSONL log
  double metrics_on_overhead_pct = 0.0;
  double decision_log_overhead_pct = 0.0;
  double spans_overhead_pct = 0.0;             // vs metrics off, like the others
  double spans_incremental_pct = 0.0;          // vs metrics on (the ≤2% budget)
  double pressure_overhead_pct = 0.0;          // vs metrics off
  double pressure_incremental_pct = 0.0;       // vs metrics on (the ≤2% budget)
  double profile_overhead_pct = 0.0;           // vs metrics off
  double profile_incremental_pct = 0.0;        // vs metrics on (the ≤2% budget)
  int64_t profile_windows = 0;
  int64_t span_records = 0;
  int64_t series_samples = 0;
  int64_t hotspot_events = 0;
  int64_t pressure_ticks = 0;
  core::InterferencePredictor::CacheStats cache_stats;
};

// Observability cost on the same steady-state loop. The metrics-off run IS
// the shipped disabled path — every sink is a null pointer, so its
// throughput doubles as the "scoring" section's number for this cluster
// size; comparing the two sections (or this file across commits) bounds the
// disabled-instrumentation overhead, which must stay within ~2%. The
// metrics-on rows quantify what attaching the registry, the decision log,
// the span-log + series-ring pair, and the pressure/hotspot/SLO sensor
// actually cost; the span/series and pressure numbers are also reported
// incrementally against metrics-on, which is the budget each must hold
// (≤2%). Cache hit rates and forest-eval counts come from the metrics-on
// run's predictor tallies.
ObsRow RunObsBench(const core::OptumProfiles& profiles,
                   const std::vector<const AppProfile*>& catalog, int num_hosts,
                   int stream) {
  constexpr int kPrefillPerHost = 16;
  const int warmup = stream;
  ObsRow row;
  row.hosts = num_hosts;
  row.pods = stream;
  // One discarded measurement first: the section's first run pays the
  // allocator/page-cache warm-up for everyone after it and otherwise skews
  // whichever configuration goes first by several percent.
  (void)MeasureScoring(profiles, catalog, num_hosts, kPrefillPerHost, warmup, stream,
                       /*cached=*/true);
  // Interleave the configurations across three passes and keep the best of
  // each: a sustained slowdown of the box (noisy neighbors on a shared
  // container) then biases every configuration equally instead of whichever
  // one it happened to overlap, which matters when the effect under
  // measurement (~2%) is far below the run-to-run noise.
  for (int pass = 0; pass < 3; ++pass) {
    row.pods_per_sec_metrics_off = std::max(
        row.pods_per_sec_metrics_off,
        MeasureScoring(profiles, catalog, num_hosts, kPrefillPerHost, warmup, stream,
                       /*cached=*/true));
    {
      obs::MetricRegistry registry;
      row.pods_per_sec_metrics_on = std::max(
          row.pods_per_sec_metrics_on,
          MeasureScoring(profiles, catalog, num_hosts, kPrefillPerHost, warmup, stream,
                         /*cached=*/true, &registry,
                         /*decision_log=*/nullptr, /*span_log=*/nullptr,
                         /*series=*/nullptr, /*pressure=*/nullptr,
                         /*profiler=*/nullptr, &row.cache_stats));
    }
    {
      obs::MetricRegistry registry;
      obs::DecisionLog log("/dev/null");
      row.pods_per_sec_decision_log = std::max(
          row.pods_per_sec_decision_log,
          MeasureScoring(profiles, catalog, num_hosts, kPrefillPerHost, warmup, stream,
                         /*cached=*/true, &registry, &log));
    }
    {
      // Span log + streaming series on top of the registry: the lifecycle
      // tracing configuration (`runsim --span-log --series-json`). The span
      // log renders three spans per placement (sampled, scored, placed) plus
      // the phase counters/histogram AttachMetrics wires; the recorder
      // collects the scheduler's gauges through the bounded ring.
      obs::MetricRegistry registry;
      obs::SpanLog span_log("/dev/null");
      span_log.AttachMetrics(&registry);
      obs::TimeSeriesRecorder series(&registry, "/dev/null");
      row.pods_per_sec_spans = std::max(
          row.pods_per_sec_spans,
          MeasureScoring(profiles, catalog, num_hosts, kPrefillPerHost, warmup, stream,
                         /*cached=*/true, &registry,
                         /*decision_log=*/nullptr, &span_log, &series));
      span_log.Flush();
      series.Flush();
      row.span_records = span_log.records_written();
      row.series_samples = series.samples_written();
    }
    {
      // Pressure + hotspot + SLO sensing on top of the registry: the sensor
      // configuration (`serve_bench --pressure --hotspot-log`, DESIGN.md
      // §13). Every sampled tick sweeps all hosts through the EWMA tracker,
      // the hysteresis detector, and the sharded SLO accumulators, with the
      // resident-interference term from the lane-0 predictor cache.
      obs::MetricRegistry registry;
      obs::HotspotLog hotspot_log("/dev/null");
      obs::HostPressureMonitor monitor(static_cast<size_t>(num_hosts),
                                       obs::HostPressureMonitor::Options{});
      obs::Sinks pressure_sinks;
      pressure_sinks.hotspot_log = &hotspot_log;
      pressure_sinks.metrics = &registry;
      monitor.AttachSinks(pressure_sinks, "bench");
      row.pods_per_sec_pressure = std::max(
          row.pods_per_sec_pressure,
          MeasureScoring(profiles, catalog, num_hosts, kPrefillPerHost, warmup, stream,
                         /*cached=*/true, &registry,
                         /*decision_log=*/nullptr, /*span_log=*/nullptr,
                         /*series=*/nullptr, &monitor));
      monitor.Finalize();
      row.hotspot_events = monitor.detector().events_emitted();
      row.pressure_ticks = monitor.last_tick() + 1;
    }
    {
      // Round profiler on top of the registry: the phase-profiling
      // configuration (`serve_bench --profile-json`, DESIGN.md §14). Worst
      // case by construction — every placement runs a settle scope (two
      // clock reads) and its own EndRound (the serial merge + critical-path
      // pass), where a serve round amortizes one EndRound over dozens of
      // placements. The budget is the same ≤2% vs metrics-on that spans and
      // pressure hold.
      obs::MetricRegistry registry;
      obs::ProfileLog profile_log("/dev/null");
      obs::RoundProfiler profiler;  // default 64-round windows
      profiler.set_log(&profile_log);
      row.pods_per_sec_profile = std::max(
          row.pods_per_sec_profile,
          MeasureScoring(profiles, catalog, num_hosts, kPrefillPerHost, warmup, stream,
                         /*cached=*/true, &registry,
                         /*decision_log=*/nullptr, /*span_log=*/nullptr,
                         /*series=*/nullptr, /*pressure=*/nullptr, &profiler));
      profiler.Finalize();
      row.profile_windows = profiler.windows_flushed();
    }
  }
  const auto overhead_pct = [&](double with, double base) {
    return base > 0.0 ? (1.0 - with / base) * 100.0 : 0.0;
  };
  row.metrics_on_overhead_pct =
      overhead_pct(row.pods_per_sec_metrics_on, row.pods_per_sec_metrics_off);
  row.decision_log_overhead_pct =
      overhead_pct(row.pods_per_sec_decision_log, row.pods_per_sec_metrics_off);
  row.spans_overhead_pct =
      overhead_pct(row.pods_per_sec_spans, row.pods_per_sec_metrics_off);
  row.spans_incremental_pct =
      overhead_pct(row.pods_per_sec_spans, row.pods_per_sec_metrics_on);
  row.pressure_overhead_pct =
      overhead_pct(row.pods_per_sec_pressure, row.pods_per_sec_metrics_off);
  row.pressure_incremental_pct =
      overhead_pct(row.pods_per_sec_pressure, row.pods_per_sec_metrics_on);
  row.profile_overhead_pct =
      overhead_pct(row.pods_per_sec_profile, row.pods_per_sec_metrics_off);
  row.profile_incremental_pct =
      overhead_pct(row.pods_per_sec_profile, row.pods_per_sec_metrics_on);
  return row;
}

struct ForestBatchRow {
  size_t batch = 0;
  double ns_row_compiled = 0.0;
  double speedup = 0.0;           // vs the pointer-tree ns/row of the same forest
};

struct ForestBench {
  size_t trees = 0;
  size_t nodes = 0;
  size_t features = 0;
  size_t rows = 0;
  double ns_row_pointer = 0.0;
  std::vector<ForestBatchRow> batches;
};

// Forest inference microbench: one RF trained on contention-style features
// (utilizations in [0, 1], interference-shaped target), then ns/row of
// row-at-a-time pointer descent vs the compiled engine at several batch
// sizes. The pointer number is batch-independent, so it is measured once.
// The compiled engine must match the pointer checksum bit-for-bit.
ForestBench RunForestBench() {
  constexpr size_t kFeatures = 5;  // Eq. 9 width (LS feature vector)
  constexpr size_t kTrain = 2500;
  constexpr size_t kRows = 4096;
  constexpr int kPasses = 8;  // dataset passes per timed segment

  Rng rng(2024);
  ml::Dataset data(kFeatures);
  std::vector<double> x(kFeatures);
  for (size_t i = 0; i < kTrain; ++i) {
    for (auto& v : x) {
      v = rng.Uniform(0, 1);
    }
    const double y = 0.15 * x[0] + 0.4 * x[0] * x[1] + 0.2 * (x[2] > 0.7 ? 1.0 : 0.0) +
                     0.1 * x[3] + rng.Gaussian(0, 0.02);
    data.Add(x, y);
  }
  ml::RandomForestRegressor forest(ml::ForestParams{}, 7);
  forest.Fit(data);
  const ml::CompiledForest& compiled = forest.compiled();

  ForestBench bench;
  bench.trees = compiled.num_trees();
  bench.nodes = compiled.num_nodes();
  bench.features = kFeatures;
  bench.rows = kRows;

  std::vector<double> rows(kRows * kFeatures);
  for (auto& v : rows) {
    v = rng.Uniform(0, 1.2);  // slightly past training range, as live hosts are
  }

  // checksum defeats dead-code elimination and doubles as an equivalence
  // probe: the compiled engine must accumulate the same value as pointer
  // descent bit-for-bit.
  double pointer_checksum = 0.0;
  const auto time_ns_per_row = [&](const auto& body) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point start = Clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        body();
      }
      best = std::min(best, SecondsSince(start) * 1e9 /
                                static_cast<double>(kPasses * kRows));
    }
    return best;
  };

  bench.ns_row_pointer = time_ns_per_row([&] {
    double sum = 0.0;
    for (size_t i = 0; i < kRows; ++i) {
      sum += forest.Predict(
          std::span<const double>(rows.data() + i * kFeatures, kFeatures));
    }
    pointer_checksum = sum;
  });

  std::vector<double> out(kRows);
  const auto run_batched = [&](const ml::CompiledForest& engine, size_t batch) {
    for (size_t begin = 0; begin < kRows; begin += batch) {
      const size_t n = std::min(batch, kRows - begin);
      engine.PredictBatch(
          std::span<const double>(rows.data() + begin * kFeatures, n * kFeatures),
          kFeatures, std::span<double>(out.data() + begin, n));
    }
  };
  for (const size_t batch : {size_t{1}, size_t{8}, size_t{64}, size_t{256}}) {
    ForestBatchRow row;
    row.batch = batch;
    row.ns_row_compiled = time_ns_per_row([&] { run_batched(compiled, batch); });
    double compiled_checksum = 0.0;
    for (const double v : out) {
      compiled_checksum += v;
    }
    if (compiled_checksum != pointer_checksum) {
      std::fprintf(stderr,
                   "forest bench: compiled checksum %.17g != pointer %.17g\n",
                   compiled_checksum, pointer_checksum);
    }
    row.speedup = row.ns_row_compiled > 0.0
                      ? bench.ns_row_pointer / row.ns_row_compiled
                      : 0.0;
    bench.batches.push_back(row);
  }
  return bench;
}

struct ServeRow {
  serve::LatencyRow row;           // deterministic model-time telemetry
  size_t pipeline_depth = 1;       // identity key: 1 = serial round loop
  int64_t drain_rounds = 0;
  double pods_per_sec_placed = 0.0;  // wall clock (the only noisy field)
};

// Open-loop placement service at paper scale (§4.4 fleet of parallel
// schedulers against a 6,000-host cluster): offered load × shard count
// sweep, plus pipelined rows (pipeline_depth 2, DESIGN.md §12) at the
// 4-shard points — same latency rows bit-for-bit, higher placements/s.
// Everything in the latency row is model-time round arithmetic and
// therefore bit-deterministic; only pods_per_sec_placed is wall clock, so
// it is the one serve metric the bench_diff threshold actually gates.
std::vector<ServeRow> RunServeBench(const core::OptumProfiles& profiles,
                                    const Workload& workload) {
  constexpr int kHosts = 6000;
  constexpr int kPrefillPerHost = 8;
  constexpr int64_t kRounds = 20;
  const std::vector<const AppProfile*> catalog = SchedulableApps(workload);
  std::vector<ServeRow> rows;
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    for (const double offered : {1000.0, 3000.0}) {
    for (const size_t depth : {size_t{1}, size_t{2}}) {
      // Pipelined rows only where the speedup gate looks: the 4-shard fleet.
      if (depth > 1 && shards != 4) {
        continue;
      }
      std::printf("serve %d hosts, %zu shards, %.0f pods/s offered, depth %zu...\n",
                  kHosts, shards, offered, depth);
      ClusterState cluster(kHosts, kUnitResources, /*history_window=*/64);
      // Prefill ids start far above anything the arrival driver will emit
      // (driver ids are dense from 0).
      PodId prefill_id = 1'000'000'000;
      for (int h = 0; h < kHosts; ++h) {
        for (int k = 0; k < kPrefillPerHost; ++k) {
          const AppProfile& app =
              *catalog[static_cast<size_t>(prefill_id) % catalog.size()];
          cluster.Place(MakePodSpec(prefill_id, app), &app, h, 0);
          ++prefill_id;
        }
      }
      serve::ServeConfig config;
      config.arrival.offered_pods_per_sec = offered;
      config.distributed.num_schedulers = shards;
      config.queue_capacity_per_shard = 4096;
      // Service rate below the 3000/s offered load: that configuration runs
      // saturated, so the sweep covers both an underloaded fleet (waits ~0)
      // and a backlogged one (queueing dominates the tail).
      config.max_schedule_per_round = 1500;
      config.max_requeues = 4;
      config.mean_residency_rounds = 60.0;
      config.pipeline_depth = depth;
      serve::PlacementService service(workload, profiles, &cluster, config);
      const Clock::time_point start = Clock::now();
      service.RunRounds(kRounds);
      ServeRow out;
      out.drain_rounds = service.Drain();
      const double wall = SecondsSince(start);
      out.row = service.MakeLatencyRow();
      out.pipeline_depth = depth;
      out.pods_per_sec_placed =
          wall > 0.0 ? static_cast<double>(service.counters().placed) / wall : 0.0;
      rows.push_back(out);
    }
    }
  }
  return rows;
}

struct TickRow {
  int hosts = 0;
  Tick ticks = 0;
  size_t lanes = 0;
  double ticks_per_sec_serial = 0.0;
  double ticks_per_sec_parallel = 0.0;
  double speedup = 0.0;
};

double MeasureTicks(const Workload& workload, size_t num_lanes) {
  AlibabaBaseline policy = bench::MakeReferenceScheduler();
  SimConfig config = bench::DefaultSimConfig();
  config.num_lanes = num_lanes;
  Simulator sim(workload, config, policy);
  const Clock::time_point start = Clock::now();
  sim.Run();
  return static_cast<double>(workload.config.horizon) / SecondsSince(start);
}

TickRow RunTickBench(int num_hosts, Tick horizon, size_t lanes) {
  const Workload workload =
      WorkloadGenerator(bench::DefaultWorkloadConfig(num_hosts, horizon)).Generate();
  TickRow row;
  row.hosts = num_hosts;
  row.ticks = horizon;
  row.lanes = lanes;
  row.ticks_per_sec_serial = MeasureTicks(workload, 1);
  row.ticks_per_sec_parallel = MeasureTicks(workload, lanes);
  row.speedup = row.ticks_per_sec_parallel / row.ticks_per_sec_serial;
  return row;
}

bool WriteJson(const std::string& path, const std::vector<ScoringRow>& scoring,
               const std::vector<TickRow>& ticks, const std::vector<ObsRow>& obs,
               const std::vector<ServeRow>& serve, const ForestBench& forest,
               unsigned hw_threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"hotpath\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw_threads);
  std::fprintf(f, "  \"scoring\": [\n");
  for (size_t i = 0; i < scoring.size(); ++i) {
    const ScoringRow& r = scoring[i];
    std::fprintf(f,
                 "    {\"hosts\": %d, \"pods\": %d, \"candidates_per_pod\": %zu, "
                 "\"pods_per_sec_baseline\": %.1f, \"pods_per_sec_cached\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 r.hosts, r.pods, r.candidates_per_pod, r.pods_per_sec_baseline,
                 r.pods_per_sec_cached, r.speedup,
                 i + 1 < scoring.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"tick\": [\n");
  for (size_t i = 0; i < ticks.size(); ++i) {
    const TickRow& r = ticks[i];
    std::fprintf(f,
                 "    {\"hosts\": %d, \"ticks\": %lld, \"lanes\": %zu, "
                 "\"ticks_per_sec_serial\": %.2f, \"ticks_per_sec_parallel\": %.2f, "
                 "\"speedup\": %.2f}%s\n",
                 r.hosts, static_cast<long long>(r.ticks), r.lanes,
                 r.ticks_per_sec_serial, r.ticks_per_sec_parallel, r.speedup,
                 i + 1 < ticks.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"observability\": [\n");
  for (size_t i = 0; i < obs.size(); ++i) {
    const ObsRow& r = obs[i];
    const auto rate = [](uint64_t hits, uint64_t misses) {
      const uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    };
    const core::InterferencePredictor::CacheStats& s = r.cache_stats;
    std::fprintf(f,
                 "    {\"hosts\": %d, \"pods\": %d, "
                 "\"pods_per_sec_metrics_off\": %.1f, "
                 "\"pods_per_sec_metrics_on\": %.1f, "
                 "\"pods_per_sec_decision_log\": %.1f, "
                 "\"metrics_on_overhead_pct\": %.2f, "
                 "\"decision_log_overhead_pct\": %.2f,\n"
                 "     \"spans\": {\"pods_per_sec\": %.1f, \"overhead_pct\": %.2f, "
                 "\"incremental_vs_metrics_on_pct\": %.2f, "
                 "\"span_records\": %lld, \"series_samples\": %lld},\n"
                 "     \"pressure\": {\"pods_per_sec\": %.1f, \"overhead_pct\": %.2f, "
                 "\"incremental_vs_metrics_on_pct\": %.2f, "
                 "\"hotspot_events\": %lld, \"ticks_sampled\": %lld},\n"
                 "     \"profile\": {\"pods_per_sec\": %.1f, \"overhead_pct\": %.2f, "
                 "\"incremental_vs_metrics_on_pct\": %.2f, "
                 "\"windows\": %lld},\n"
                 "     \"pred_cache_hit_rate\": %.4f, \"raw_cache_hit_rate\": %.4f, "
                 "\"slope_cache_hit_rate\": %.4f, \"forest_evals\": %llu, "
                 "\"pred_cache_hits\": %llu, \"pred_cache_misses\": %llu, "
                 "\"slope_cache_misses\": %llu}%s\n",
                 r.hosts, r.pods, r.pods_per_sec_metrics_off,
                 r.pods_per_sec_metrics_on, r.pods_per_sec_decision_log,
                 r.metrics_on_overhead_pct, r.decision_log_overhead_pct,
                 r.pods_per_sec_spans, r.spans_overhead_pct,
                 r.spans_incremental_pct,
                 static_cast<long long>(r.span_records),
                 static_cast<long long>(r.series_samples),
                 r.pods_per_sec_pressure, r.pressure_overhead_pct,
                 r.pressure_incremental_pct,
                 static_cast<long long>(r.hotspot_events),
                 static_cast<long long>(r.pressure_ticks),
                 r.pods_per_sec_profile, r.profile_overhead_pct,
                 r.profile_incremental_pct,
                 static_cast<long long>(r.profile_windows),
                 rate(s.predict_hits, s.predict_misses), rate(s.raw_hits, s.raw_misses),
                 rate(s.slope_hits, s.slope_misses),
                 static_cast<unsigned long long>(s.forest_evals()),
                 static_cast<unsigned long long>(s.predict_hits),
                 static_cast<unsigned long long>(s.predict_misses),
                 static_cast<unsigned long long>(s.slope_misses),
                 i + 1 < obs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"serve\": [\n");
  for (size_t i = 0; i < serve.size(); ++i) {
    const serve::LatencyRow& r = serve[i].row;
    std::fprintf(f,
                 "    {\"hosts\": %d, \"shards\": %zu, "
                 "\"pipeline_depth\": %zu, "
                 "\"offered_pods_per_sec\": %.1f, \"process\": \"%s\", "
                 "\"rounds\": %lld, \"round_seconds\": %.3g,\n"
                 "     \"arrivals\": %lld, \"admitted\": %lld, "
                 "\"rejected_full\": %lld, \"placed\": %lld, \"dropped\": %lld, "
                 "\"conflicts\": %lld, \"drain_rounds\": %lld,\n"
                 "     \"latency_s_p50\": %.6g, \"latency_s_p99\": %.6g, "
                 "\"latency_s_p999\": %.6g, \"latency_s_max\": %.6g, "
                 "\"latency_s_mean\": %.6g, \"pods_per_sec_placed\": %.1f}%s\n",
                 r.hosts, r.shards, serve[i].pipeline_depth,
                 r.offered_pods_per_sec, r.process,
                 static_cast<long long>(r.rounds), r.round_seconds,
                 static_cast<long long>(r.arrivals),
                 static_cast<long long>(r.admitted),
                 static_cast<long long>(r.rejected_full),
                 static_cast<long long>(r.placed),
                 static_cast<long long>(r.dropped),
                 static_cast<long long>(r.conflicts),
                 static_cast<long long>(serve[i].drain_rounds),
                 r.latency_s_p50, r.latency_s_p99, r.latency_s_p999,
                 r.latency_s_max, r.latency_s_mean,
                 serve[i].pods_per_sec_placed, i + 1 < serve.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (forest.trees == 0) {
    // Forest section skipped (--serve-only): omit it rather than writing a
    // zeroed object bench_diff would read as a regression to 0 ns/row.
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }
  std::fprintf(f, ",\n  \"forest\": {\n");
  std::fprintf(f,
               "    \"trees\": %zu, \"nodes\": %zu, \"features\": %zu, "
               "\"rows\": %zu,\n    \"ns_row_pointer\": %.1f,\n"
               "    \"batches\": [\n",
               forest.trees, forest.nodes, forest.features, forest.rows,
               forest.ns_row_pointer);
  for (size_t i = 0; i < forest.batches.size(); ++i) {
    const ForestBatchRow& r = forest.batches[i];
    std::fprintf(f,
                 "      {\"batch\": %zu, \"ns_row_compiled\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 r.batch, r.ns_row_compiled, r.speedup,
                 i + 1 < forest.batches.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  bool run_scoring = true;
  bool run_tick = true;
  bool forest_only = false;
  bool serve_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scoring-only") {
      run_tick = false;
    } else if (arg == "--tick-only") {
      run_scoring = false;
    } else if (arg == "--forest-only") {
      // Only the forest-inference microbench: no reference-run training, no
      // cluster sections — a seconds-long loop for descent-kernel iteration
      // (tools/bench_runner.sh --forest-only diffs it against the committed
      // baseline's forest section). Defaults to its own output file so a
      // partial document never overwrites the full committed baseline.
      forest_only = true;
      run_scoring = false;
      run_tick = false;
    } else if (arg == "--serve-only") {
      // Only the open-loop placement-service section (still pays the
      // reference-run profile training, but skips the scoring/tick/forest
      // sections). Defaults to its own output file so a partial document
      // never overwrites the full committed baseline.
      serve_only = true;
      run_scoring = false;
      run_tick = false;
    } else {
      out_path = arg;
    }
  }
  if (forest_only && out_path == "BENCH_hotpath.json") {
    out_path = "BENCH_hotpath_forest.json";
  }
  if (serve_only && out_path == "BENCH_hotpath.json") {
    out_path = "BENCH_hotpath_serve.json";
  }
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  bench::PrintFigureHeader("bench_hotpath", "scheduler-scoring and tick throughput");

  // Profiles come from the standard reference run (same pipeline the figure
  // benches use), so scoring exercises trained ERO entries and app models.
  // The forest microbench trains its own small model, so --forest-only
  // skips this multi-minute step entirely.
  core::OptumProfiles profiles;
  std::vector<const AppProfile*> catalog;
  Workload reference;
  if (run_scoring || run_tick || serve_only) {
    std::printf("training profiles from the 64-host reference run...\n");
    reference = WorkloadGenerator(bench::DefaultWorkloadConfig()).Generate();
    AlibabaBaseline reference_policy = bench::MakeReferenceScheduler();
    Simulator reference_sim(reference, bench::DefaultSimConfig(), reference_policy);
    const SimResult reference_result = reference_sim.Run();
    profiles = bench::BuildProfiles(reference_result.trace);
    catalog = SchedulableApps(reference);
  }

  std::vector<ScoringRow> scoring;
  if (run_scoring) {
    for (const auto& [hosts, stream] : {std::pair<int, int>{1000, 4000}, {6000, 1200}}) {
      std::printf("scoring %d hosts (%d pods, cache off then on)...\n", hosts, stream);
      scoring.push_back(RunScoringBench(profiles, catalog, hosts, stream));
    }
  }

  std::vector<ObsRow> obs;
  if (run_scoring) {
    std::printf(
        "scoring 1000 hosts (metrics off, on, on+decision-log, on+spans, "
        "on+pressure, on+profile)...\n");
    obs.push_back(RunObsBench(profiles, catalog, /*num_hosts=*/1000, /*stream=*/4000));
  }

  std::vector<ServeRow> serve;
  if (serve_only || (run_scoring && run_tick)) {
    serve = RunServeBench(profiles, reference);
  }

  ForestBench forest;
  if (!serve_only) {
    std::printf(
        "forest inference (pointer vs compiled, batch sweep)...\n");
    forest = RunForestBench();
  }

  std::vector<TickRow> ticks;
  if (run_tick) {
    for (int hosts : {1000, 6000}) {
      std::printf("tick %d hosts (1 lane then %u lanes)...\n", hosts, hw_threads);
      ticks.push_back(RunTickBench(hosts, /*horizon=*/3 * kTicksPerHour, hw_threads));
    }
  }

  TablePrinter table({"section", "hosts", "base/s", "opt/s", "speedup"});
  for (const ScoringRow& r : scoring) {
    table.AddRow({"scoring", std::to_string(r.hosts),
                  FormatDouble(r.pods_per_sec_baseline, 1),
                  FormatDouble(r.pods_per_sec_cached, 1), FormatDouble(r.speedup, 2)});
  }
  for (const TickRow& r : ticks) {
    table.AddRow({"tick", std::to_string(r.hosts),
                  FormatDouble(r.ticks_per_sec_serial, 2),
                  FormatDouble(r.ticks_per_sec_parallel, 2), FormatDouble(r.speedup, 2)});
  }
  for (const ObsRow& r : obs) {
    table.AddRow({"obs", std::to_string(r.hosts),
                  FormatDouble(r.pods_per_sec_metrics_off, 1),
                  FormatDouble(r.pods_per_sec_metrics_on, 1),
                  FormatDouble(1.0 - r.metrics_on_overhead_pct / 100.0, 2)});
  }
  table.Print();

  if (!serve.empty()) {
    TablePrinter serve_table({"shards", "depth", "offered/s", "placed",
                              "rejected", "p50 s", "p99 s", "p999 s",
                              "placed/s"});
    for (const ServeRow& r : serve) {
      serve_table.AddRow({std::to_string(r.row.shards),
                          std::to_string(r.pipeline_depth),
                          FormatDouble(r.row.offered_pods_per_sec, 0),
                          std::to_string(r.row.placed),
                          std::to_string(r.row.rejected_full),
                          FormatDouble(r.row.latency_s_p50, 2),
                          FormatDouble(r.row.latency_s_p99, 2),
                          FormatDouble(r.row.latency_s_p999, 2),
                          FormatDouble(r.pods_per_sec_placed, 1)});
    }
    serve_table.Print();
  }

  if (forest.trees > 0) {
    // Forest inference: ns/row, so "base" is pointer descent and lower is
    // better — kept in its own table to avoid mixing units with the above.
    TablePrinter forest_table({"batch", "ptr ns/row", "compiled ns/row", "speedup"});
    for (const ForestBatchRow& r : forest.batches) {
      forest_table.AddRow({std::to_string(r.batch),
                           FormatDouble(forest.ns_row_pointer, 1),
                           FormatDouble(r.ns_row_compiled, 1),
                           FormatDouble(r.speedup, 2)});
    }
    forest_table.Print();
  }

  return WriteJson(out_path, scoring, ticks, obs, serve, forest, hw_threads) ? 0 : 1;
}

}  // namespace
}  // namespace optum

int main(int argc, char** argv) { return optum::Main(argc, argv); }
