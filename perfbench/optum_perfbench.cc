// optum_perfbench: the repository benchmark (perfbench/README.md).
//
//   optum_perfbench --workload serve_steady|serve_storm|sim_day --seed N
//                   --seconds S --trace 0|1 [--out PATH] [--source ID]
//                   [--workload-seed N] [--arrival-seed N]
//                   [--residency-seed N] [--burst-seed N] [--sim-seed N]
//
// Drives the public APIs from outside — serve::PlacementService,
// Simulator + core::OptumScheduler, core::OfflineProfiler and
// WorkloadGenerator — and adds no instrumentation to the program. A run
// sets the workload up several times (setup_s is the median), then repeats
// a fixed, seed-determined episode until --seconds have passed. Every
// episode of one seed does identical work, so the placement digest, the
// optum.latency.v1 row and the placement-quality metrics must repeat
// exactly; the run checks that, plus pod conservation, and exits 1 when a
// check fails.
//
// --trace 0 reports the end-to-end metrics, measured with every sink
// detached. --trace 1 additionally runs one traced episode (metrics
// registry + round profiler attached, bench-owned timers around the layer
// calls), checks it against the untraced episodes, and reports the per-layer
// ledger instead. The last stdout line is the result object; --out also
// writes it with the run manifest and sample counts.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench_util.h"
#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/pressure.h"
#include "src/obs/profiler.h"
#include "src/sched/baselines.h"
#include "src/serve/placement_service.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"

#ifndef OPTUM_PERFBENCH_BUILD_TYPE
#define OPTUM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace optum::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up repetitions per run; setup_s reports their median.
constexpr int kSetupRepeats = 3;

// Profile training: a 64-host, one-day Alibaba-like reference run (the
// figure benches' standard scale). The generator draws the application
// catalog before anything that depends on fleet size, so the reference and
// the measured workloads of one workload seed share their applications.
constexpr int kReferenceHosts = 64;
constexpr Tick kReferenceHorizon = kTicksPerDay;
constexpr size_t kMaxTrainSamples = 1500;
// The figure benches' workload seed.
constexpr uint64_t kDefaultWorkloadSeed = 42;

// serve_*: the Fig. 22 scale, 4 shards, pipelined conflict rounds, uncapped
// admission so no pod is refused.
constexpr int kServeHosts = 6000;
constexpr int kPrefillPerHost = 8;
constexpr size_t kServeShards = 4;
constexpr size_t kPipelineDepth = 2;
constexpr double kOfferedPodsPerSec = 3000.0;
constexpr double kRoundSeconds = 0.1;
constexpr double kMeanResidencyRounds = 200.0;
constexpr size_t kUncapped = 1'000'000;
// A multiple of the burst interval, so every episode holds the same number
// of storm rounds whatever the burst offsets.
constexpr int64_t kEpisodeRounds = 100;
constexpr double kBurstAmplitude = 4.0;
constexpr int64_t kBurstDurationRounds = 20;
constexpr int64_t kBurstIntervalRounds = 100;
// ArrivalConfig's default burst seed.
constexpr uint64_t kDefaultBurstSeed = 1031;

// sim_day: the paper-figure simulator path.
constexpr int kSimHosts = 1000;
constexpr Tick kSimHorizon = 6 * kTicksPerHour;
// OptumConfig's default sampling seed.
constexpr uint64_t kDefaultSimSeed = 97;

struct Seeds {
  uint64_t workload = 0;
  uint64_t arrival = 0;
  uint64_t residency = 0;
  uint64_t burst = 0;
  uint64_t sim = 0;
};

struct Options {
  std::string workload;
  uint64_t seed = 42;
  int64_t seconds = 10;
  int trace = 0;
  std::string source = "unknown";
  std::string out;
  Seeds seeds;
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool ParseUint(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

// Strict `--name value` parsing: an unknown flag or a malformed number is an
// error, never a silent default.
bool ParseOptions(int argc, char** argv, Options* opts) {
  // The workload seed fixes the application catalog, and with it the
  // reference run and the trained profiles; the burst seed fixes where each
  // storm sits in its window, and so how long storm pods stay resident
  // within an episode; the sim seed moves sim_day's rare hotspot episodes
  // (LS violation seconds spread 4k-25k over ten seeds). Varying any of them
  // moves a metric by far more than the benchmark's bounds (a different
  // catalog moves throughput by ~35%), which would drown any change in seed
  // noise. So they keep fixed defaults, and --seed derives the Poisson
  // counts and residencies.
  Seeds& seeds = opts->seeds;
  seeds.workload = kDefaultWorkloadSeed;
  seeds.burst = kDefaultBurstSeed;
  seeds.sim = kDefaultSimSeed;
  bool have_arrival = false;
  bool have_residency = false;
  const std::pair<const char*, uint64_t*> kSeedFlags[] = {
      {"--workload-seed", &seeds.workload}, {"--arrival-seed", &seeds.arrival},
      {"--residency-seed", &seeds.residency}, {"--burst-seed", &seeds.burst},
      {"--sim-seed", &seeds.sim}};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "optum_perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    uint64_t number = 0;
    bool ok = true;
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--source") {
      opts->source = value;
    } else if (flag == "--out") {
      opts->out = value;
    } else if (flag == "--seed") {
      ok = ParseUint(value, &opts->seed);
    } else if (flag == "--seconds") {
      ok = ParseUint(value, &number) && number >= 1 && number <= 3600;
      opts->seconds = static_cast<int64_t>(number);
    } else if (flag == "--trace") {
      ok = ParseUint(value, &number) && number <= 1;
      opts->trace = static_cast<int>(number);
    } else {
      ok = false;
      for (const auto& [name, target] : kSeedFlags) {
        if (flag == name) {
          ok = ParseUint(value, target);
        }
      }
      have_arrival |= flag == "--arrival-seed";
      have_residency |= flag == "--residency-seed";
    }
    if (!ok) {
      std::fprintf(stderr, "optum_perfbench: bad flag or value: %s %s\n",
                   flag.c_str(), value.c_str());
      return false;
    }
  }
  if (opts->workload != "serve_steady" && opts->workload != "serve_storm" &&
      opts->workload != "sim_day") {
    std::fprintf(stderr,
                 "optum_perfbench: --workload must be serve_steady, "
                 "serve_storm or sim_day\n");
    return false;
  }
  if (!have_arrival) {
    seeds.arrival = DeriveSeed(opts->seed, "arrival");
  }
  if (!have_residency) {
    seeds.residency = DeriveSeed(opts->seed, "residency");
  }
  return true;
}

// The figure benches' simulator settings.
SimConfig MakeSimConfig() {
  SimConfig config;
  config.pod_usage_period = 5;
  config.node_usage_period = 2;
  config.max_attempts_per_tick = 1500;
  return config;
}

// --- Set-up shared by every workload: reference run + profile training. ---

struct Trained {
  Workload reference;
  core::OptumProfiles profiles;
  double generate_s = 0.0;
  double reference_run_s = 0.0;
  double train_s = 0.0;
};

std::unique_ptr<Trained> Train(uint64_t workload_seed) {
  auto out = std::make_unique<Trained>();
  WorkloadConfig config;
  config.num_hosts = kReferenceHosts;
  config.horizon = kReferenceHorizon;
  config.seed = workload_seed;
  Clock::time_point t = Clock::now();
  out->reference = WorkloadGenerator(config).Generate();
  out->generate_s = Since(t);

  AlibabaBaseline reference_policy;
  t = Clock::now();
  SimResult reference = Simulator(out->reference, MakeSimConfig(), reference_policy).Run();
  out->reference_run_s = Since(t);

  core::OfflineProfilerConfig profiler_config;
  profiler_config.max_train_samples = kMaxTrainSamples;
  t = Clock::now();
  out->profiles = core::OfflineProfiler(profiler_config).BuildProfiles(reference.trace);
  out->train_s = Since(t);
  return out;
}

// --- What one episode reports. ---

struct Episode {
  std::vector<double> round_ms;  // serve: per RunRounds(1); sim: per tick
  double busy_s = 0.0;           // wall of the timed loop
  int64_t placed = 0;            // pods placed inside the timed loop
  int64_t rounds = 0;
  PodLedger ledger;
  // Deterministic outputs; identical for every episode of one seed.
  uint64_t digest = 0;
  std::string latency_row;  // serve only
  double cpu_util_nonidle = 0.0;
  double slo_violation_s_ls = 0.0;
  std::string failure;  // empty when every conservation check held
};

bool SameOutputs(const Episode& a, const Episode& b) {
  return a.digest == b.digest && a.latency_row == b.latency_row &&
         a.cpu_util_nonidle == b.cpu_util_nonidle &&
         a.slo_violation_s_ls == b.slo_violation_s_ls &&
         a.ledger.attempted == b.ledger.attempted &&
         a.ledger.failed() == b.ledger.failed() && a.rounds == b.rounds;
}

// Per-layer numbers of one traced episode, named as in BENCHMARK.json.
using Ledger = std::vector<Metric>;

obs::HostPressureMonitor::Options MonitorOptions(size_t slo_shards,
                                                 double seconds_per_tick) {
  obs::HostPressureMonitor::Options options;
  options.num_slo_shards = slo_shards;
  options.seconds_per_tick = seconds_per_tick;
  return options;
}

double LsViolationSeconds(const obs::HostPressureMonitor& monitor) {
  return static_cast<double>(monitor.MergedSlo().violation_ticks(SloClass::kLs)) *
         monitor.seconds_per_tick();
}

// --- serve_steady / serve_storm ---

serve::ServeConfig MakeServeConfig(bool storm, const Seeds& seeds) {
  serve::ServeConfig config;
  config.arrival.offered_pods_per_sec = kOfferedPodsPerSec;
  config.arrival.round_seconds = kRoundSeconds;
  config.arrival.seed = seeds.arrival;
  if (storm) {
    config.arrival.burst_amplitude = kBurstAmplitude;
    config.arrival.burst_duration_rounds = kBurstDurationRounds;
    config.arrival.burst_interval_rounds = kBurstIntervalRounds;
    config.arrival.burst_seed = seeds.burst;
  }
  config.distributed.num_schedulers = kServeShards;
  config.pipeline_depth = kPipelineDepth;
  config.ingest_threads = 0;
  config.queue_capacity_per_shard = kUncapped;
  config.max_schedule_per_round = kUncapped;
  config.mean_residency_rounds = kMeanResidencyRounds;
  config.residency_seed = seeds.residency;
  return config;
}

// One prefilled fleet plus the service placing into it. Members are
// destroyed in reverse order, so the service goes before what it points to.
struct ServeFleet {
  std::unique_ptr<ClusterState> cluster;
  std::unique_ptr<obs::HostPressureMonitor> monitor;
  std::unique_ptr<serve::PlacementService> service;
};

std::unique_ptr<ServeFleet> BuildServeFleet(const Trained& trained,
                                            const serve::ServeConfig& config) {
  auto fleet = std::make_unique<ServeFleet>();
  fleet->cluster =
      std::make_unique<ClusterState>(kServeHosts, kUnitResources, /*history_window=*/64);
  const std::vector<const AppProfile*> catalog = SchedulableApps(trained.reference);
  // Prefill ids start far above the arrival driver's dense-from-0 range.
  PodId prefill_id = 1'000'000'000;
  for (int h = 0; h < kServeHosts; ++h) {
    for (int k = 0; k < kPrefillPerHost; ++k) {
      const AppProfile& app = *catalog[static_cast<size_t>(prefill_id) % catalog.size()];
      fleet->cluster->Place(MakePodSpec(prefill_id, app), &app, h, 0);
      ++prefill_id;
    }
  }
  fleet->monitor = std::make_unique<obs::HostPressureMonitor>(
      static_cast<size_t>(kServeHosts), MonitorOptions(kServeShards, kRoundSeconds));
  fleet->service = std::make_unique<serve::PlacementService>(
      trained.reference, trained.profiles, fleet->cluster.get(), config);
  fleet->service->set_pressure_monitor(fleet->monitor.get());
  return fleet;
}

// Sinks of a traced serve episode; attached before its first round.
struct ServeTracing {
  obs::MetricRegistry registry;
  obs::RoundProfiler profiler;
  std::vector<double> batch_pods;
  double cpu_s = 0.0;
  Ledger ledger;
};

double HistogramSum(obs::MetricRegistry& registry, const std::string& name) {
  return registry.histogram(name)->Sum();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PhaseSeconds(const obs::RoundProfiler& profiler, obs::ProfilePhase phase) {
  return static_cast<double>(profiler.total_ns(phase)) * 1e-9;
}

double Count(uint64_t v) { return static_cast<double>(v); }

// Prediction-cache and forest rows, from the predictors' own tallies.
Ledger CacheLedger(const core::InterferencePredictor::CacheStats& cache) {
  return {
      {"core.pred_cache_hit_rate",
       Ratio(Count(cache.predict_hits), Count(cache.predict_hits + cache.predict_misses)),
       "share"},
      {"core.slope_cache_hit_rate",
       Ratio(Count(cache.slope_hits), Count(cache.slope_hits + cache.slope_misses)), "share"},
      {"ml.forest_evals", Count(cache.forest_evals()), "count"},
  };
}

// Reads the serve/core/ml/obs layers after the timed rounds, before Drain.
Ledger ServeLedger(ServeFleet& fleet, ServeTracing& tracing, const Episode& episode) {
  serve::PlacementService& service = *fleet.service;
  obs::RoundProfiler& profiler = tracing.profiler;
  profiler.Finalize();
  const serve::ServeCounters& counters = service.counters();
  const serve::AdmissionStats admission = service.admission_stats();
  core::DistributedCoordinator& coordinator = service.coordinator();

  double sample_s = 0.0, score_s = 0.0, forest_eval_s = 0.0;
  uint64_t memo_hits = 0, memo_misses = 0;
  core::InterferencePredictor::CacheStats cache;
  for (size_t s = 0; s < coordinator.num_schedulers(); ++s) {
    const std::string prefix = "optum.shard" + std::to_string(s);
    sample_s += HistogramSum(tracing.registry, prefix + ".sample_seconds");
    score_s += HistogramSum(tracing.registry, prefix + ".score_seconds");
    forest_eval_s += HistogramSum(tracing.registry, prefix + ".forest_eval_seconds");
    const core::OptumScheduler& shard = coordinator.shard(s);
    memo_hits += shard.eval_memo_hits();
    memo_misses += shard.eval_memo_misses();
    const core::InterferencePredictor::CacheStats c =
        shard.interference_predictor().cache_stats();
    cache.predict_hits += c.predict_hits;
    cache.predict_misses += c.predict_misses;
    cache.raw_hits += c.raw_hits;
    cache.raw_misses += c.raw_misses;
    cache.slope_hits += c.slope_hits;
    cache.slope_misses += c.slope_misses;
  }

  using P = obs::ProfilePhase;
  const double barrier_s = static_cast<double>(profiler.barrier_ns_total()) * 1e-9;
  const double spec_s = PhaseSeconds(profiler, P::kSpecScore);
  const double finalize_s = PhaseSeconds(profiler, P::kFinalizeRevalidate);
  const double idle_s = PhaseSeconds(profiler, P::kIdle);
  const double resolve_s = PhaseSeconds(profiler, P::kResolve);
  const double commit_s = PhaseSeconds(profiler, P::kCommit);
  const double ingest_s = PhaseSeconds(profiler, P::kIngestWait);
  const double sweep_s = PhaseSeconds(profiler, P::kPressureSweep);
  // Wall-clock reconciliation: the barrier wall (busy + idle of the slowest
  // lane) and the serial phases against the bench's own round timer.
  const double attributed_s = barrier_s + resolve_s + commit_s + ingest_s + sweep_s;
  const double placed = static_cast<double>(counters.placed);
  const double conflict_rounds = static_cast<double>(counters.schedule_rounds);
  const Percentile batch_p50 = NearestRank(tracing.batch_pods, 50.0);
  const double batch_max =
      tracing.batch_pods.empty()
          ? 0.0
          : *std::max_element(tracing.batch_pods.begin(), tracing.batch_pods.end());
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  Ledger ledger = {
      {"serve.rounds", count(counters.rounds), "count"},
      {"serve.round_busy_s", episode.busy_s, "s"},
      {"serve.unattributed_s", episode.busy_s - attributed_s, "s"},
      {"serve.batch_pods_p50", batch_p50.value, "pods", batch_p50.samples},
      {"serve.batch_pods_max", batch_max, "pods"},
      {"serve.queue_depth_max", Count(admission.peak_depth), "pods"},
      {"serve.departed", count(counters.departed), "count"},
      {"serve.dropped", count(counters.dropped), "count"},
      {"serve.rejected_full", count(admission.rejected_full), "count"},
      {"serve.cpu_s", tracing.cpu_s, "s"},
      {"core.conflict_rounds", conflict_rounds, "count"},
      {"core.pods_per_conflict_round", Ratio(placed, conflict_rounds), "pods"},
      {"core.conflicts", count(counters.conflicts), "count"},
      {"core.conflict_ratio", Ratio(count(counters.conflicts), placed), "share"},
      {"core.barrier_s", barrier_s, "s"},
      {"core.spec_score_s", spec_s, "s"},
      {"core.finalize_revalidate_s", finalize_s, "s"},
      {"core.resolve_s", resolve_s, "s"},
      {"core.commit_s", commit_s, "s"},
      {"core.idle_s", idle_s, "s"},
      {"core.idle_share", Ratio(idle_s, spec_s + finalize_s + idle_s), "share"},
      {"core.sample_s", sample_s, "s"},
      {"core.score_s", score_s, "s"},
      {"core.eval_memo_hits", Count(memo_hits), "count"},
      {"core.eval_memo_hit_rate", Ratio(Count(memo_hits), Count(memo_hits + memo_misses)),
       "share"},
      {"ml.forest_eval_s", forest_eval_s, "s"},
      {"obs.pressure_sweep_s", sweep_s, "s"},
  };
  const Ledger caches = CacheLedger(cache);
  ledger.insert(ledger.end(), caches.begin(), caches.end());
  return ledger;
}

// Checks, then fills the deterministic outputs of a finished serve episode.
void FinishServeEpisode(ServeFleet& fleet, Episode* episode) {
  serve::PlacementService& service = *fleet.service;
  const serve::AdmissionStats before_drain = service.admission_stats();
  if (service.counters().arrivals != before_drain.admitted + before_drain.rejected_full) {
    episode->failure = "arrivals != admitted + rejected_full";
  }
  service.Drain();
  fleet.monitor->Finalize();
  const serve::ServeCounters& counters = service.counters();
  const serve::AdmissionStats admission = service.admission_stats();
  if (admission.admitted != counters.placed + counters.dropped) {
    episode->failure = "after Drain: admitted != placed + dropped";
  }
  if (service.queue_depth() != 0) {
    episode->failure = "after Drain: admission queue not empty";
  }
  episode->ledger.attempted = counters.arrivals;
  episode->ledger.rejected = admission.rejected_full;
  episode->ledger.dropped = counters.dropped;
  episode->ledger.never_scheduled = static_cast<int64_t>(service.queue_depth());

  Digest digest;
  for (const PodId id : service.PlacedPodIds()) {
    digest.Add(static_cast<uint64_t>(id));
  }
  const core::ResourceUsagePredictor& usage =
      service.coordinator().shard(0).usage_predictor();
  double util_sum = 0.0;
  int64_t busy_hosts = 0;
  for (const Host& host : fleet.cluster->hosts()) {
    // Where each resident pod sits, so the digest covers host choice too.
    for (const PodRuntime* pod : host.pods) {
      digest.Add(static_cast<uint64_t>(host.id));
      digest.Add(static_cast<uint64_t>(pod->spec.id));
    }
    // Eq. 6 predicted usage — the basis the feasibility gate and the
    // pressure monitor use in the service (there is no usage simulation).
    if (host.HasSloWorkload()) {
      util_sum += usage.PredictHost(host, /*incoming=*/nullptr).cpu / host.capacity.cpu;
      ++busy_hosts;
    }
  }
  episode->digest = digest.value();
  episode->latency_row = serve::RenderLatencyRow(service.MakeLatencyRow());
  episode->cpu_util_nonidle = Ratio(util_sum, static_cast<double>(busy_hosts));
  episode->slo_violation_s_ls = LsViolationSeconds(*fleet.monitor);
}

Episode RunServeEpisode(ServeFleet& fleet, ServeTracing* tracing) {
  Episode episode;
  serve::PlacementService& service = *fleet.service;
  if (tracing != nullptr) {
    obs::Sinks sinks;
    sinks.metrics = &tracing->registry;
    sinks.profile = &tracing->profiler;
    service.AttachSinks(sinks);
    fleet.monitor->AttachSinks(sinks, "serve");
  }
  episode.round_ms.reserve(kEpisodeRounds);
  size_t depth = service.queue_depth();
  int64_t admitted = service.admission_stats().admitted;
  const double cpu_start = ProcessCpuSeconds();
  for (int64_t r = 0; r < kEpisodeRounds; ++r) {
    const Clock::time_point t = Clock::now();
    service.RunRounds(1);
    const double dt = Since(t);
    episode.round_ms.push_back(dt * 1e3);
    episode.busy_s += dt;
    if (tracing != nullptr) {
      // The uncapped round pops everything queued: last round's leftovers
      // plus this round's admissions.
      const int64_t now_admitted = service.admission_stats().admitted;
      tracing->batch_pods.push_back(static_cast<double>(depth) +
                                    static_cast<double>(now_admitted - admitted));
      admitted = now_admitted;
      depth = service.queue_depth();
    }
  }
  episode.rounds = kEpisodeRounds;
  episode.placed = service.counters().placed;
  if (tracing != nullptr) {
    tracing->cpu_s = ProcessCpuSeconds() - cpu_start;
    tracing->ledger = ServeLedger(fleet, *tracing, episode);
  }
  FinishServeEpisode(fleet, &episode);
  if (tracing != nullptr) {
    tracing->ledger.push_back({"obs.hotspot_episodes",
                               static_cast<double>(fleet.monitor->detector().events_emitted()),
                               "count"});
  }
  return episode;
}

// --- sim_day ---

// Bench-owned wrapper that times every OptumScheduler::Place call of the
// traced simulator run.
class TimedPolicy : public PlacementPolicy {
 public:
  explicit TimedPolicy(core::OptumScheduler* inner) : inner_(inner) {}

  PlacementDecision Place(const PodSpec& pod, const AppProfile& app,
                          const ClusterState& cluster) override {
    const Clock::time_point t = Clock::now();
    const PlacementDecision decision = inner_->Place(pod, app, cluster);
    place_us_.push_back(Since(t) * 1e6);
    return decision;
  }
  void OnPodPlaced(const PodRuntime& pod, const ClusterState& cluster) override {
    inner_->OnPodPlaced(pod, cluster);
  }
  void OnPodFinished(const PodRuntime& pod, const ClusterState& cluster) override {
    inner_->OnPodFinished(pod, cluster);
  }
  void AttachSinks(const obs::Sinks& sinks) override {
    PlacementPolicy::AttachSinks(sinks);
    inner_->AttachSinks(sinks);
  }
  std::string name() const override { return inner_->name(); }

  const std::vector<double>& place_us() const { return place_us_; }

 private:
  core::OptumScheduler* inner_;
  std::vector<double> place_us_;
};

struct SimTracing {
  obs::MetricRegistry registry;
  obs::RoundProfiler profiler;
  Ledger ledger;
};

Episode RunSimEpisode(const Workload& workload, const core::OptumProfiles& profiles,
                      const Seeds& seeds, SimTracing* tracing) {
  Episode episode;
  // The simulator's own draws are per-pod streams keyed by pod id, so the
  // sim seed drives the scheduler's host sampling instead.
  core::OptumConfig optum_config;
  optum_config.seed = seeds.sim;
  core::OptumScheduler optum(profiles, optum_config);
  obs::HostPressureMonitor monitor(static_cast<size_t>(kSimHosts),
                                   MonitorOptions(1, kSecondsPerTick));
  SimConfig config = MakeSimConfig();
  config.pressure = &monitor;
  config.pressure_interference = [&optum](const Host& host, double cpu_util,
                                          double mem_util) {
    return optum.interference_predictor().ResidentInterference(
        host, cpu_util, mem_util, /*weight_ls=*/1.0, /*weight_be=*/0.0, /*lane=*/0);
  };
  std::vector<Clock::time_point> tick_end;
  tick_end.reserve(static_cast<size_t>(kSimHorizon));
  double observe_s = 0.0;
  config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
    if (tracing != nullptr) {
      const Clock::time_point t = Clock::now();
      optum.ObserveColocation(cluster, now);
      observe_s += Since(t);
    } else {
      optum.ObserveColocation(cluster, now);
    }
    tick_end.push_back(Clock::now());
  };
  TimedPolicy timed(&optum);
  PlacementPolicy* policy = &optum;
  if (tracing != nullptr) {
    obs::Sinks sinks;
    sinks.metrics = &tracing->registry;
    sinks.profile = &tracing->profiler;
    config.sinks = sinks;
    monitor.AttachSinks(sinks, "sim");
    timed.AttachSinks(sinks);
    policy = &timed;
  }

  Simulator simulator(workload, config, *policy);
  const Clock::time_point start = Clock::now();
  const SimResult result = simulator.Run();
  episode.busy_s = Since(start);

  Clock::time_point prev = start;
  for (const Clock::time_point t : tick_end) {
    episode.round_ms.push_back(std::chrono::duration<double>(t - prev).count() * 1e3);
    prev = t;
  }
  episode.rounds = static_cast<int64_t>(tick_end.size());
  episode.placed = result.scheduled_pods;
  episode.ledger.attempted = static_cast<int64_t>(workload.pods.size());
  episode.ledger.never_scheduled = result.never_scheduled_pods;
  if (result.scheduled_pods + result.never_scheduled_pods != episode.ledger.attempted) {
    episode.failure = "scheduled + never_scheduled != workload pods";
  }
  if (episode.rounds != kSimHorizon) {
    episode.failure = "tick hook ran " + std::to_string(episode.rounds) + " times";
  }
  Digest digest;
  for (const PodLifecycleRecord& pod : result.trace.lifecycles) {
    digest.Add(static_cast<uint64_t>(pod.pod_id));
    digest.Add(static_cast<uint64_t>(pod.host));
    digest.Add(static_cast<uint64_t>(pod.schedule_tick));
  }
  episode.digest = digest.value();
  episode.cpu_util_nonidle = result.MeanCpuUtilNonIdle();
  episode.slo_violation_s_ls = LsViolationSeconds(monitor);

  if (tracing != nullptr) {
    using P = obs::ProfilePhase;
    const obs::RoundProfiler& profiler = tracing->profiler;
    const Percentile p50 = NearestRank(timed.place_us(), 50.0);
    const Percentile p99 = NearestRank(timed.place_us(), 99.0);
    double place_s = 0.0;
    for (const double us : timed.place_us()) {
      place_s += us * 1e-6;
    }
    tracing->ledger = CacheLedger(optum.interference_predictor().cache_stats());
    const Ledger sim_rows = {
        {"core.sample_s", HistogramSum(tracing->registry, "optum.sample_seconds"), "s"},
        {"core.score_s", HistogramSum(tracing->registry, "optum.score_seconds"), "s"},
        {"core.place_calls", static_cast<double>(p50.samples), "count"},
        {"core.place_us_p50", p50.value, "us", p50.samples},
        {"core.place_us_p99", p99.value, "us", p99.samples},
        {"core.observe_s", observe_s, "s"},
        {"ml.forest_eval_s", HistogramSum(tracing->registry, "optum.forest_eval_seconds"),
         "s"},
        {"sim.ticks", static_cast<double>(episode.rounds), "count"},
        {"sim.run_s", episode.busy_s, "s"},
        {"sim.self_s", episode.busy_s - place_s - observe_s, "s"},
        {"sim.usage_update_s", PhaseSeconds(profiler, P::kResolve), "s"},
        {"sim.completions_s", PhaseSeconds(profiler, P::kCommit), "s"},
        {"obs.pressure_sweep_s", PhaseSeconds(profiler, P::kPressureSweep), "s"},
        {"obs.hotspot_episodes", static_cast<double>(monitor.detector().events_emitted()),
         "count"},
    };
    tracing->ledger.insert(tracing->ledger.end(), sim_rows.begin(), sim_rows.end());
  }
  return episode;
}

Workload GenerateSimWorkload(const Seeds& seeds) {
  WorkloadConfig config;
  config.num_hosts = kSimHosts;
  config.horizon = kSimHorizon;
  config.seed = seeds.workload;
  return WorkloadGenerator(config).Generate();
}

// The per-layer names every traced run reports, in BENCHMARK.json order;
// a layer idle on the workload reads 0.
const std::vector<std::pair<std::string, std::string>>& LedgerSchema() {
  static const std::vector<std::pair<std::string, std::string>> kSchema = {
      {"serve.rounds", "count"},
      {"serve.round_busy_s", "s"},
      {"serve.unattributed_s", "s"},
      {"serve.batch_pods_p50", "pods"},
      {"serve.batch_pods_max", "pods"},
      {"serve.queue_depth_max", "pods"},
      {"serve.departed", "count"},
      {"serve.dropped", "count"},
      {"serve.rejected_full", "count"},
      {"serve.cpu_s", "s"},
      {"core.conflict_rounds", "count"},
      {"core.pods_per_conflict_round", "pods"},
      {"core.conflicts", "count"},
      {"core.conflict_ratio", "share"},
      {"core.barrier_s", "s"},
      {"core.spec_score_s", "s"},
      {"core.finalize_revalidate_s", "s"},
      {"core.resolve_s", "s"},
      {"core.commit_s", "s"},
      {"core.idle_s", "s"},
      {"core.idle_share", "share"},
      {"core.sample_s", "s"},
      {"core.score_s", "s"},
      {"core.eval_memo_hits", "count"},
      {"core.eval_memo_hit_rate", "share"},
      {"core.pred_cache_hit_rate", "share"},
      {"core.slope_cache_hit_rate", "share"},
      {"core.place_calls", "count"},
      {"core.place_us_p50", "us"},
      {"core.place_us_p99", "us"},
      {"core.observe_s", "s"},
      {"ml.forest_evals", "count"},
      {"ml.forest_eval_s", "s"},
      {"ml.train_s", "s"},
      {"sim.ticks", "count"},
      {"sim.run_s", "s"},
      {"sim.self_s", "s"},
      {"sim.usage_update_s", "s"},
      {"sim.completions_s", "s"},
      {"sim.reference_run_s", "s"},
      {"trace.generate_s", "s"},
      {"obs.pressure_sweep_s", "s"},
      {"obs.hotspot_episodes", "count"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kSchema;
}

// Orders the measured ledger by the schema and fills idle layers with 0.
Ledger CompleteLedger(const Ledger& measured) {
  Ledger out;
  for (const auto& [name, unit] : LedgerSchema()) {
    Metric m{name, 0.0, unit};
    for (const Metric& got : measured) {
      if (got.name == name) {
        m = got;
      }
    }
    out.push_back(m);
  }
  return out;
}

bool SameCatalog(const Workload& a, const Workload& b) {
  if (a.apps.size() != b.apps.size()) {
    return false;
  }
  for (size_t i = 0; i < a.apps.size(); ++i) {
    if (a.apps[i].id != b.apps[i].id || a.apps[i].slo != b.apps[i].slo) {
      return false;
    }
  }
  return true;
}

Manifest MakeManifest(const Options& opts, bool sim, bool storm) {
  Manifest m;
  m.nproc = static_cast<int>(std::thread::hardware_concurrency());
  m.build_type = OPTUM_PERFBENCH_BUILD_TYPE;
  m.source = opts.source;
  m.compiler = "g++ " __VERSION__;
  m.workload = opts.workload;
  m.run_seconds = opts.seconds;
  m.trace = opts.trace;
  m.params.emplace_back("setup_repeats", std::to_string(kSetupRepeats));
  m.params.emplace_back("reference", std::to_string(kReferenceHosts) + " hosts, " +
                                         std::to_string(kReferenceHorizon) + " ticks");
  if (sim) {
    m.params.emplace_back("hosts", std::to_string(kSimHosts));
    m.params.emplace_back("ticks", std::to_string(kSimHorizon));
    m.params.emplace_back("scheduler", "OptumScheduler, ObserveColocation per tick");
  } else {
    m.params.emplace_back("hosts", std::to_string(kServeHosts));
    m.params.emplace_back("prefill_per_host", std::to_string(kPrefillPerHost));
    m.params.emplace_back("shards", std::to_string(kServeShards));
    m.params.emplace_back("pipeline_depth", std::to_string(kPipelineDepth));
    m.params.emplace_back("offered_pods_per_s", FormatNumber(kOfferedPodsPerSec));
    m.params.emplace_back("round_seconds", FormatNumber(kRoundSeconds));
    m.params.emplace_back("mean_residency_rounds", FormatNumber(kMeanResidencyRounds));
    m.params.emplace_back("episode_rounds", std::to_string(kEpisodeRounds));
    if (storm) {
      m.params.emplace_back("burst", "x" + FormatNumber(kBurstAmplitude) + " for " +
                                         std::to_string(kBurstDurationRounds) + " of " +
                                         std::to_string(kBurstIntervalRounds) + " rounds");
    }
  }
  m.seeds = {{"seed", opts.seed},
             {"workload", opts.seeds.workload},
             {"arrival", opts.seeds.arrival},
             {"residency", opts.seeds.residency},
             {"burst", opts.seeds.burst},
             {"sim", opts.seeds.sim}};
  return m;
}

int Run(const Options& opts) {
  const bool sim = opts.workload == "sim_day";
  const bool storm = opts.workload == "serve_storm";
  const serve::ServeConfig serve_config = MakeServeConfig(storm, opts.seeds);
  std::vector<std::string> failures;

  // Set-up, repeated from scratch; the last repetition's objects are used.
  std::vector<double> setup_s, generate_s, reference_run_s, train_s;
  std::unique_ptr<Trained> trained;
  std::unique_ptr<ServeFleet> fleet;
  Workload sim_workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fleet.reset();
    trained.reset();
    sim_workload = Workload{};
    const Clock::time_point start = Clock::now();
    trained = Train(opts.seeds.workload);
    double generate = trained->generate_s;
    if (sim) {
      const Clock::time_point t = Clock::now();
      sim_workload = GenerateSimWorkload(opts.seeds);
      generate += Since(t);
    } else {
      fleet = BuildServeFleet(*trained, serve_config);
    }
    setup_s.push_back(Since(start));
    generate_s.push_back(generate);
    reference_run_s.push_back(trained->reference_run_s);
    train_s.push_back(trained->train_s);
  }
  if (sim && !SameCatalog(sim_workload, trained->reference)) {
    failures.push_back("sim workload and reference have different catalogs");
  }

  // Untraced episodes until the measuring time is spent (at least one).
  std::vector<Episode> episodes;
  const Clock::time_point measure_start = Clock::now();
  do {
    if (sim) {
      episodes.push_back(RunSimEpisode(sim_workload, trained->profiles, opts.seeds, nullptr));
    } else {
      if (fleet == nullptr) {
        fleet = BuildServeFleet(*trained, serve_config);
      }
      episodes.push_back(RunServeEpisode(*fleet, nullptr));
      fleet.reset();
    }
  } while (Since(measure_start) < static_cast<double>(opts.seconds));

  std::vector<double> episode_busy_s;
  for (const Episode& e : episodes) {
    episode_busy_s.push_back(e.busy_s);
  }
  Ledger ledger;
  Episode traced;
  if (opts.trace == 1) {
    if (sim) {
      SimTracing tracing;
      traced = RunSimEpisode(sim_workload, trained->profiles, opts.seeds, &tracing);
      ledger = tracing.ledger;
    } else {
      ServeTracing tracing;
      fleet = BuildServeFleet(*trained, serve_config);
      traced = RunServeEpisode(*fleet, &tracing);
      ledger = tracing.ledger;
      fleet.reset();
    }
    ledger.push_back({"ml.train_s", Median(train_s), "s", kSetupRepeats});
    ledger.push_back({"sim.reference_run_s", Median(reference_run_s), "s", kSetupRepeats});
    ledger.push_back({"trace.generate_s", Median(generate_s), "s", kSetupRepeats});
    ledger.push_back({"obs.trace_overhead_pct",
                      (traced.busy_s / Median(episode_busy_s) - 1.0) * 100.0, "%"});
    ledger = CompleteLedger(ledger);
    if (!SameOutputs(traced, episodes.front())) {
      failures.push_back("traced episode differs from the untraced ones");
    }
    if (!traced.failure.empty()) {
      failures.push_back("traced: " + traced.failure);
    }
  }

  // Correctness: conservation per episode, identical outputs across them.
  int64_t attempted = 0;
  int64_t failed = 0;
  double placed_total = 0.0;
  double rounds_total = 0.0;
  double busy_total = 0.0;
  std::vector<double> round_ms;
  for (const Episode& e : episodes) {
    if (!e.failure.empty()) {
      failures.push_back(e.failure);
    }
    if (!SameOutputs(e, episodes.front())) {
      failures.push_back("episodes of one seed differ");
    }
    attempted += e.ledger.attempted;
    failed += e.ledger.failed();
    placed_total += static_cast<double>(e.placed);
    rounds_total += static_cast<double>(e.rounds);
    busy_total += e.busy_s;
    round_ms.insert(round_ms.end(), e.round_ms.begin(), e.round_ms.end());
  }
  if (opts.trace == 1) {
    attempted += traced.ledger.attempted;
    failed += traced.ledger.failed();
  }

  const Episode& first = episodes.front();
  const Percentile p50 = NearestRank(round_ms, 50.0);
  const Percentile p95 = NearestRank(round_ms, 95.0);
  const std::vector<Metric> end_to_end = {
      {"placements_per_s", placed_total / busy_total, "pods/s",
       static_cast<int64_t>(episodes.size())},
      {"round_ms_p50", p50.value, "ms", p50.samples},
      {"round_ms_p95", p95.value, "ms", p95.samples},
      {"sim_ticks_per_s", rounds_total / busy_total, "1/s",
       static_cast<int64_t>(episodes.size())},
      {"setup_s", Median(setup_s), "s", kSetupRepeats},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"placed_share", first.ledger.placed_share(), "share"},
      {"cpu_util_nonidle", first.cpu_util_nonidle, "share"},
      {"slo_violation_s_ls", first.slo_violation_s_ls, "pod_s"},
  };
  const std::vector<Metric>& reported = opts.trace == 1 ? ledger : end_to_end;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      failures.push_back("metric " + m.name + " is not finite");
    }
  }
  const bool correct = failures.empty();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "optum_perfbench: check failed: %s\n", f.c_str());
  }

  // Detail line (manifest, sample counts, episodes), then the result line.
  const std::string manifest = RenderManifest(MakeManifest(opts, sim, storm));
  obs::JsonWriter detail;
  detail.BeginObject();
  detail.Key("manifest").RawValue(manifest);
  detail.KV("episodes", static_cast<int64_t>(episodes.size()));
  detail.KV("placement_digest", std::to_string(first.digest));
  detail.KV("failed_share", first.ledger.failed_share());
  detail.KV("round_ms_p95_beyond", p95.beyond);
  detail.Key("samples").BeginObject();
  for (const Metric& m : reported) {
    if (m.samples > 0) {
      detail.KV(m.name, m.samples);
    }
  }
  detail.EndObject();
  detail.Key("failures").BeginArray();
  for (const std::string& f : failures) {
    detail.Value(f);
  }
  detail.EndArray();
  detail.EndObject();
  const std::string result = RenderResultLine(correct, attempted, failed, reported);
  if (!opts.out.empty()) {
    // The result file also keeps every round time, episode by episode.
    obs::JsonWriter rounds;
    rounds.BeginArray();
    for (const Episode& e : episodes) {
      rounds.BeginArray();
      for (const double ms : e.round_ms) {
        rounds.RawValue(FormatNumber(ms));
      }
      rounds.EndArray();
    }
    rounds.EndArray();
    if (!obs::WriteJsonDocument(opts.out, "{\"detail\":" + detail.str() +
                                              ",\"result\":" + result +
                                              ",\"round_ms\":" + rounds.str() + "}")) {
      return 1;
    }
  }
  std::printf("%s\n%s\n", detail.str().c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace optum::perfbench

int main(int argc, char** argv) {
  optum::perfbench::Options opts;
  if (!optum::perfbench::ParseOptions(argc, argv, &opts)) {
    return 2;
  }
  return optum::perfbench::Run(opts);
}
