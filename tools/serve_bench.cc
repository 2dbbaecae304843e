// serve_bench: runs the open-loop placement service (DESIGN.md §12) at a
// configurable scale and writes optum.latency.v1 rows — the JSONL the serve
// layer exports for dashboards and the bench gate.
//
//   serve_bench [--hosts N] [--shards K] [--offered PODS_PER_SEC]
//               [--rounds R] [--round-seconds S] [--process poisson|diurnal]
//               [--queue-capacity N] [--max-per-round N] [--residency ROUNDS]
//               [--pipeline-depth D] [--ingest-threads T]
//               [--span-log PATH] [--metrics-json PATH] [--out PATH]
//               [--burst-amplitude A --burst-duration D --burst-interval I]
//               [--pressure] [--hotspot-log PATH] [--slo-json PATH]
//               [--series-json PATH] [--hot-onset P] [--hot-clear P]
//               [--hot-dwell T] [--slo-threshold P]
//               [--profile-json PATH] [--profile-collapsed PATH]
//               [--profile-window ROUNDS]
//
// --profile-json attaches the phase-level round profiler (DESIGN.md §14)
// and streams optum.profile.v1 windows; join them with tools/profile_report.
// --profile-collapsed additionally writes folded stacks for flamegraph
// tooling. Profile *counts* are deterministic; the ns fields are wall-clock.
//
// --pipeline-depth D > 1 turns on conflict-round pipelining: each
// coordinator shard keeps its next head pods speculatively scored against
// an epoch-snapshotted host view while the serial resolver commits the
// current round. --ingest-threads 1 moves arrival generation onto a
// producer thread behind a hand-off barrier. Both knobs change wall-clock
// throughput only — every exported row is bit-identical to the serial loop.
//
// The burst flags overlay deterministic anomaly storms on the arrival
// process (DESIGN.md §13); the pressure flags attach the host-pressure
// sensor — hotspot episodes stream to --hotspot-log as optum.hotspot.v1,
// per-class violation seconds land in --slo-json as optum.slo.v1, and
// tools/slo_report joins them with the latency row.
//
// With --out the document goes to PATH (one header line, one row line);
// otherwise rows print to stdout after a human-readable summary. Everything
// in a row is deterministic model-time arithmetic — re-running with the
// same flags reproduces it byte-for-byte; only the printed wall-clock
// throughput varies across machines.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/cli_options.h"
#include "src/common/flags.h"
#include "src/obs/hotspot.h"
#include "src/obs/json_writer.h"
#include "src/obs/pressure.h"
#include "src/obs/profiler.h"
#include "src/obs/sinks.h"
#include "src/obs/span_log.h"
#include "src/obs/timeseries.h"
#include "src/serve/placement_service.h"

namespace optum {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "serve_bench: malformed flags\n");
    return 2;
  }
  const int hosts = static_cast<int>(flags.GetInt("hosts", 1000));
  const std::string process = flags.GetString("process", "poisson");
  const cli::ObsOptions obs_opts = cli::ParseObsOptions(flags);
  const cli::BurstOptions burst_opts = cli::ParseBurstOptions(flags);

  serve::ServeConfig config;
  config.arrival.offered_pods_per_sec = flags.GetDouble("offered", 500.0);
  config.arrival.round_seconds = flags.GetDouble("round-seconds", 1.0);
  if (process == "diurnal") {
    config.arrival.process = serve::ArrivalProcess::kDiurnal;
  } else if (process != "poisson") {
    std::fprintf(stderr, "serve_bench: unknown --process %s\n", process.c_str());
    return 2;
  }
  config.distributed.num_schedulers =
      static_cast<size_t>(flags.GetInt("shards", 4));
  config.queue_capacity_per_shard =
      static_cast<size_t>(flags.GetInt("queue-capacity", 4096));
  config.max_schedule_per_round =
      static_cast<size_t>(flags.GetInt("max-per-round", 512));
  config.mean_residency_rounds = flags.GetDouble("residency", 0.0);
  config.pipeline_depth =
      static_cast<size_t>(flags.GetInt("pipeline-depth", 1));
  config.ingest_threads =
      static_cast<size_t>(flags.GetInt("ingest-threads", 0));
  config.arrival.burst_amplitude = burst_opts.amplitude;
  config.arrival.burst_duration_rounds = burst_opts.duration_rounds;
  config.arrival.burst_interval_rounds = burst_opts.interval_rounds;
  config.arrival.burst_seed = burst_opts.seed;
  const int64_t rounds = flags.GetInt("rounds", 60);

  const bool pressure_on = flags.GetBool("pressure", false) ||
                           obs_opts.wants_pressure() ||
                           !obs_opts.series_json.empty();

  std::printf("training profiles from the 64-host reference run...\n");
  const Workload reference =
      WorkloadGenerator(bench::DefaultWorkloadConfig()).Generate();
  AlibabaBaseline reference_policy = bench::MakeReferenceScheduler();
  Simulator reference_sim(reference, bench::DefaultSimConfig(), reference_policy);
  const core::OptumProfiles profiles =
      bench::BuildProfiles(reference_sim.Run().trace);

  ClusterState cluster(hosts, kUnitResources, /*history_window=*/64);
  // --prefill K seeds every host with K long-lived pods before serving, the
  // same occupancy regime as the committed bench section (ids start far
  // above the arrival driver's dense-from-0 range).
  const int prefill = static_cast<int>(flags.GetInt("prefill", 0));
  if (prefill > 0) {
    const std::vector<const AppProfile*> catalog = SchedulableApps(reference);
    PodId prefill_id = 1'000'000'000;
    for (int h = 0; h < hosts; ++h) {
      for (int k = 0; k < prefill; ++k) {
        const AppProfile& app =
            *catalog[static_cast<size_t>(prefill_id) % catalog.size()];
        cluster.Place(MakePodSpec(prefill_id, app), &app, h, 0);
        ++prefill_id;
      }
    }
  }
  serve::PlacementService service(reference, profiles, &cluster, config);

  // One obs::Sinks surface for everything the bench attaches: open the
  // requested sink files, then hand the same struct to the service
  // (metrics, spans, series) and the pressure monitor (metrics, hotspot
  // log) — each adopts the fields it understands.
  obs::MetricRegistry registry;
  obs::Sinks sinks;
  if (pressure_on || obs_opts.wants_metrics()) {
    sinks.metrics = &registry;
  }
  std::unique_ptr<obs::SpanLog> span_log;
  if (!obs_opts.span_log.empty()) {
    span_log = std::make_unique<obs::SpanLog>(obs_opts.span_log);
    if (!span_log->ok()) {
      std::fprintf(stderr, "serve_bench: cannot open %s\n",
                   obs_opts.span_log.c_str());
      return 2;
    }
    sinks.span_log = span_log.get();
  }
  std::unique_ptr<obs::HotspotLog> hotspot_log;
  if (!obs_opts.hotspot_log.empty()) {
    hotspot_log = std::make_unique<obs::HotspotLog>(obs_opts.hotspot_log);
    if (!hotspot_log->ok()) {
      return 1;  // OpenJsonSink already reported the failure
    }
    sinks.hotspot_log = hotspot_log.get();
  }
  std::unique_ptr<obs::TimeSeriesRecorder> series;
  if (!obs_opts.series_json.empty()) {
    series = std::make_unique<obs::TimeSeriesRecorder>(
        &registry, obs_opts.series_json, obs_opts.series_ring);
    if (!series->ok()) {
      return 1;
    }
    sinks.series = series.get();
  }
  std::unique_ptr<obs::ProfileLog> profile_log;
  std::unique_ptr<obs::RoundProfiler> profiler;
  if (obs_opts.wants_profile()) {
    obs::RoundProfiler::Options popts;
    popts.window_rounds =
        static_cast<size_t>(flags.GetInt("profile-window", 64));
    profiler = std::make_unique<obs::RoundProfiler>(popts);
    if (!obs_opts.profile_json.empty()) {
      profile_log = std::make_unique<obs::ProfileLog>(obs_opts.profile_json);
      if (!profile_log->ok()) {
        return 1;  // OpenJsonSink already reported the failure
      }
      profiler->set_log(profile_log.get());
    }
    sinks.profile = profiler.get();
  }

  // Pressure sensor (DESIGN.md §13). Gauges go through the registry so the
  // optional series recorder picks them up as columns.
  std::unique_ptr<obs::HostPressureMonitor> monitor;
  if (pressure_on) {
    obs::HostPressureMonitor::Options opts;
    const obs::HotspotConfig hotspot_defaults;
    opts.hotspot.onset_threshold =
        flags.GetDouble("hot-onset", hotspot_defaults.onset_threshold);
    opts.hotspot.clear_threshold =
        flags.GetDouble("hot-clear", hotspot_defaults.clear_threshold);
    opts.hotspot.min_onset_ticks = flags.GetInt("hot-dwell", 3);
    opts.hotspot.min_clear_ticks = flags.GetInt("hot-dwell", 3);
    opts.pressure.slo_threshold = flags.GetDouble("slo-threshold", 0.8);
    opts.num_slo_shards = config.distributed.num_schedulers;
    opts.seconds_per_tick = config.arrival.round_seconds;
    monitor = std::make_unique<obs::HostPressureMonitor>(
        static_cast<size_t>(hosts), opts);
    monitor->AttachSinks(sinks, "serve");
    service.set_pressure_monitor(monitor.get());
  }
  service.AttachSinks(sinks);

  std::printf(
      "serving %lld rounds at %.1f pods/s (%s, %zu shards, depth %zu, "
      "%zu ingest threads)...\n",
      static_cast<long long>(rounds), config.arrival.offered_pods_per_sec,
      process.c_str(), config.distributed.num_schedulers,
      config.pipeline_depth, config.ingest_threads);
  const std::chrono::steady_clock::time_point serve_start =
      std::chrono::steady_clock::now();
  service.RunRounds(rounds);
  const int64_t drain_rounds = service.Drain();
  const double serve_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serve_start)
          .count();
  if (monitor != nullptr) {
    monitor->Finalize();
  }
  if (profiler != nullptr) {
    profiler->Finalize();
    if (!obs_opts.profile_collapsed.empty() &&
        !profiler->WriteCollapsed(obs_opts.profile_collapsed)) {
      std::fprintf(stderr, "serve_bench: cannot write %s\n",
                   obs_opts.profile_collapsed.c_str());
      return 1;
    }
  }
  if (span_log != nullptr) {
    span_log->Flush();
  }
  if (hotspot_log != nullptr) {
    hotspot_log->Flush();
  }
  if (series != nullptr) {
    series->Flush();
  }
  if (monitor != nullptr && !obs_opts.slo_json.empty()) {
    if (!monitor->WriteSloJson(obs_opts.slo_json)) {
      return 1;
    }
  }
  if (!obs_opts.metrics_json.empty()) {
    if (!registry.WriteJsonFile(obs_opts.metrics_json)) {
      return 1;
    }
  }

  const serve::LatencyRow row = service.MakeLatencyRow();
  TablePrinter table({"metric", "value"});
  table.AddRow({"arrivals", std::to_string(row.arrivals)});
  table.AddRow({"admitted", std::to_string(row.admitted)});
  table.AddRow({"rejected_full", std::to_string(row.rejected_full)});
  table.AddRow({"placed", std::to_string(row.placed)});
  table.AddRow({"dropped", std::to_string(row.dropped)});
  table.AddRow({"conflicts", std::to_string(row.conflicts)});
  table.AddRow({"drain_rounds", std::to_string(drain_rounds)});
  // Wall clock of the serve phase — the one machine-dependent line here.
  table.AddRow({"serve_wall_s", FormatFixed(serve_wall_s, 3)});
  table.AddRow(
      {"placed_per_wall_s",
       FormatFixed(serve_wall_s > 0.0
                       ? static_cast<double>(row.placed) / serve_wall_s
                       : 0.0,
                   1)});
  table.AddRow({"latency_s_p50", FormatDouble(row.latency_s_p50, 3)});
  table.AddRow({"latency_s_p99", FormatDouble(row.latency_s_p99, 3)});
  table.AddRow({"latency_s_p999", FormatDouble(row.latency_s_p999, 3)});
  table.AddRow({"latency_s_max", FormatDouble(row.latency_s_max, 3)});
  if (config.pipeline_depth > 1) {
    uint64_t memo_hits = 0;
    uint64_t memo_misses = 0;
    for (size_t s = 0; s < service.coordinator().num_schedulers(); ++s) {
      memo_hits += service.coordinator().shard(s).eval_memo_hits();
      memo_misses += service.coordinator().shard(s).eval_memo_misses();
    }
    const uint64_t total = memo_hits + memo_misses;
    table.AddRow({"eval_memo_hits", std::to_string(memo_hits)});
    table.AddRow(
        {"eval_memo_hit_rate",
         FormatDouble(total > 0 ? static_cast<double>(memo_hits) /
                                      static_cast<double>(total)
                                : 0.0,
                      3)});
  }
  if (profiler != nullptr) {
    table.AddRow({"profile_windows",
                  std::to_string(profiler->windows_flushed())});
    table.AddRow({"profile_rounds",
                  std::to_string(profiler->rounds_profiled())});
  }
  if (monitor != nullptr) {
    const obs::SloAccumulator slo = monitor->MergedSlo();
    table.AddRow({"hotspot_episodes",
                  std::to_string(monitor->detector().events_emitted())});
    table.AddRow({"pressure_mean",
                  FormatDouble(monitor->last_mean_pressure(), 4)});
    table.AddRow({"pressure_max",
                  FormatDouble(monitor->last_max_pressure(), 4)});
    table.AddRow(
        {"slo_violation_s_ls",
         FormatFixed(static_cast<double>(slo.violation_ticks(SloClass::kLs)) *
                         monitor->seconds_per_tick(),
                     1)});
    table.AddRow(
        {"slo_violation_s_be",
         FormatFixed(static_cast<double>(slo.violation_ticks(SloClass::kBe)) *
                         monitor->seconds_per_tick(),
                     1)});
  }
  table.Print();

  const std::string document =
      serve::RenderLatencyHeader() + "\n" + serve::RenderLatencyRow(row) + "\n";
  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::fputs(document.c_str(), stdout);
    return 0;
  }
  return obs::WriteJsonDocument(out_path, document) ? 0 : 1;
}

}  // namespace
}  // namespace optum

int main(int argc, char** argv) { return optum::Main(argc, argv); }
