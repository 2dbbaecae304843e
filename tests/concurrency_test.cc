// Thread-count invariance of Optum's scheduling. The §4.4 coordinator runs
// one scheduler per shard on its own thread, all built from one profile set
// and reading one cluster; a scheduler must therefore decide exactly as it
// would alone, however many others run beside it. These tests run 1, 2 and
// 8 copies of a placement stream at once on a >= 1,000-host cluster and
// require bit-identical decisions, Eq. 11 scores, metrics, decision logs,
// span bytes and cluster state against a lone serial run; end to end, a
// full simulation with Optum produces a bit-identical TraceBundle for every
// SimConfig::num_lanes, and the online ERO refresh on the simulator's crew
// leaves the table a serial refresh would. Run them under the `tsan` preset
// (tools/sanitize_runner.sh) to also prove the absence of data races, not
// just of nondeterminism.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ero_table.h"
#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/obs/decision_log.h"
#include "src/obs/metrics.h"
#include "src/obs/span_log.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"
#include "tests/golden_digest.h"
#include "tests/sim_test_util.h"

namespace optum {
namespace {

using core::OptumConfig;
using core::OptumProfiles;
using core::OptumScheduler;
using core::ScoreMode;

Workload MakeWorkload(int hosts, Tick horizon, uint64_t seed) {
  WorkloadConfig config;
  config.num_hosts = hosts;
  config.horizon = horizon;
  config.seed = seed;
  return WorkloadGenerator(config).Generate();
}

SimConfig MakeSimConfig() {
  SimConfig config;
  config.pod_usage_period = 5;
  config.max_attempts_per_tick = 1500;
  return config;
}

OptumProfiles TrainProfiles(const Workload& workload, const SimConfig& sim_config) {
  AlibabaBaseline reference;
  const SimResult ref = Simulator(workload, sim_config, reference).Run();
  core::OfflineProfilerConfig prof;
  prof.max_train_samples = 600;
  return core::OfflineProfiler(prof).BuildProfiles(ref.trace);
}

// Runs body(i) for every i in [0, n) on n threads at once.
void RunOnThreads(size_t n, const std::function<void(size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back(body, i);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

constexpr size_t kThreadCounts[] = {1, 2, 8};

// --- Scheduler-level thread-count invariance ---------------------------------

// Everything a placement stream can observably produce: the decision and
// Eq. 11 score per pod, plus the final per-host cluster aggregates the
// stream's commits built up.
struct StreamResult {
  std::vector<HostId> hosts;
  std::vector<WaitReason> reasons;
  std::vector<double> scores;
  std::vector<size_t> pods_per_host;
  std::vector<double> request_cpu_per_host;
  std::vector<uint64_t> change_epochs;
};

// Steady-state scheduling loop on a prefilled cluster: every placement is
// committed, and one older pod is removed every third submission so host
// epochs churn and the incremental caches keep revalidating. bench_hotpath's
// Sinks/* benchmarks time the same loop, so the tested path is the
// benchmarked path.
StreamResult StreamPlacements(const OptumProfiles& profiles,
                              const std::vector<const AppProfile*>& catalog,
                              int num_hosts, int prefill_per_host, int stream,
                              ScoreMode score_mode,
                              obs::MetricRegistry* registry = nullptr,
                              obs::DecisionLog* decision_log = nullptr,
                              obs::SpanLog* span_log = nullptr) {
  ClusterState cluster(num_hosts, kUnitResources, /*history_window=*/64);
  PodId next_id = 0;
  std::vector<PodRuntime*> live;
  for (int h = 0; h < num_hosts; ++h) {
    for (int k = 0; k < prefill_per_host; ++k) {
      const AppProfile& app = *catalog[static_cast<size_t>(next_id) % catalog.size()];
      live.push_back(cluster.Place(MakePodSpec(next_id, app), &app, h, 0));
      ++next_id;
    }
  }

  OptumConfig config;
  config.score_mode = score_mode;
  OptumScheduler scheduler(profiles, config);
  obs::Sinks sinks;
  sinks.metrics = registry;
  sinks.decision_log = decision_log;
  sinks.span_log = span_log;
  scheduler.AttachSinks(sinks);

  StreamResult result;
  size_t evict_cursor = 0;
  for (int i = 0; i < stream; ++i) {
    const AppProfile& app = *catalog[static_cast<size_t>(next_id) % catalog.size()];
    const PodSpec spec = MakePodSpec(next_id, app);
    ++next_id;
    double score = 0.0;
    const PlacementDecision decision = scheduler.PlaceScored(spec, cluster, &score);
    result.hosts.push_back(decision.host);
    result.reasons.push_back(decision.reason);
    result.scores.push_back(decision.placed() ? score : 0.0);
    if (decision.placed()) {
      live.push_back(cluster.Place(spec, &app, decision.host, 0));
    }
    if (i % 3 == 0 && !live.empty()) {
      evict_cursor = (evict_cursor + 1) % live.size();
      cluster.Remove(live[evict_cursor]);
      live[evict_cursor] = live.back();
      live.pop_back();
    }
  }

  for (const Host& host : cluster.hosts()) {
    result.pods_per_host.push_back(host.pods.size());
    result.request_cpu_per_host.push_back(host.request_sum.cpu);
    result.change_epochs.push_back(host.change_epoch);
  }
  return result;
}

// Bit-identical: EXPECT_EQ on doubles is exact equality, not ULP-tolerant.
void ExpectIdenticalStreams(const StreamResult& a, const StreamResult& b,
                            size_t num_threads) {
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (size_t i = 0; i < a.hosts.size(); ++i) {
    ASSERT_EQ(a.hosts[i], b.hosts[i])
        << "placement diverged at pod " << i << " with " << num_threads << " threads";
    ASSERT_EQ(a.reasons[i], b.reasons[i]) << "at pod " << i;
    ASSERT_EQ(a.scores[i], b.scores[i])
        << "score diverged at pod " << i << " with " << num_threads << " threads";
  }
  ASSERT_EQ(a.pods_per_host, b.pods_per_host);
  ASSERT_EQ(a.request_cpu_per_host, b.request_cpu_per_host);
  ASSERT_EQ(a.change_epochs, b.change_epochs);
}

class ThreadCountInvarianceTest : public ::testing::TestWithParam<ScoreMode> {};

TEST_P(ThreadCountInvarianceTest, PlaceScoredBitIdenticalAcrossThreadCounts) {
  const ScoreMode score_mode = GetParam();
  // Profiles train on a small reference run; the scoring cluster is
  // paper-scale-ish (>= 1,000 hosts, 60 candidates per pod).
  const Workload workload = MakeWorkload(64, 3 * kTicksPerHour, 23);
  const SimConfig sim_config = MakeSimConfig();
  const OptumProfiles profiles = TrainProfiles(workload, sim_config);
  const std::vector<const AppProfile*> catalog = SchedulableApps(workload);
  ASSERT_FALSE(catalog.empty());

  constexpr int kHosts = 1200;
  constexpr int kPrefillPerHost = 4;
  constexpr int kStream = 400;
  const StreamResult serial = StreamPlacements(profiles, catalog, kHosts,
                                               kPrefillPerHost, kStream, score_mode);
  // The stream must actually schedule for the equivalence to mean anything.
  size_t placed = 0;
  for (HostId h : serial.hosts) {
    placed += h != kInvalidHostId ? 1 : 0;
  }
  ASSERT_GT(placed, static_cast<size_t>(kStream) / 2);

  for (const size_t num_threads : kThreadCounts) {
    std::vector<StreamResult> threaded(num_threads);
    RunOnThreads(num_threads, [&](size_t t) {
      threaded[t] = StreamPlacements(profiles, catalog, kHosts, kPrefillPerHost,
                                     kStream, score_mode);
    });
    for (const StreamResult& r : threaded) {
      ExpectIdenticalStreams(serial, r, num_threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothScoreModes, ThreadCountInvarianceTest,
                         ::testing::Values(ScoreMode::kMarginal,
                                           ScoreMode::kPaperAbsolute));

// Attaching the full observability stack — registry counters/timers,
// predictor-cache gauges, and the per-placement decision log — must not
// perturb a single placement or score, alone or with other observed
// schedulers running at once: metric updates never feed back into Eq. 11,
// and the decision log is rendered on the reduction path. Baseline is a
// lone metrics-OFF run.
TEST(ThreadCountInvarianceTest, MetricsOnBitIdenticalAcrossThreadCounts) {
  const Workload workload = MakeWorkload(64, 3 * kTicksPerHour, 23);
  const SimConfig sim_config = MakeSimConfig();
  const OptumProfiles profiles = TrainProfiles(workload, sim_config);
  const std::vector<const AppProfile*> catalog = SchedulableApps(workload);
  ASSERT_FALSE(catalog.empty());

  constexpr int kHosts = 1200;
  constexpr int kPrefillPerHost = 4;
  constexpr int kStream = 400;
  const StreamResult bare = StreamPlacements(profiles, catalog, kHosts,
                                             kPrefillPerHost, kStream, ScoreMode::kMarginal);
  size_t placed = 0;
  for (HostId h : bare.hosts) {
    placed += h != kInvalidHostId ? 1 : 0;
  }
  ASSERT_GT(placed, static_cast<size_t>(kStream) / 2);

  for (const size_t num_threads : kThreadCounts) {
    std::vector<std::string> log_paths;
    std::vector<std::unique_ptr<obs::MetricRegistry>> registries;
    std::vector<std::unique_ptr<obs::DecisionLog>> decision_logs;
    for (size_t t = 0; t < num_threads; ++t) {
      log_paths.push_back(::testing::TempDir() + "/concurrency_decisions_" +
                          std::to_string(t) + ".jsonl");
      registries.push_back(std::make_unique<obs::MetricRegistry>());
      decision_logs.push_back(std::make_unique<obs::DecisionLog>(log_paths.back()));
      ASSERT_TRUE(decision_logs.back()->ok());
    }
    std::vector<StreamResult> observed(num_threads);
    RunOnThreads(num_threads, [&](size_t t) {
      observed[t] = StreamPlacements(profiles, catalog, kHosts, kPrefillPerHost,
                                     kStream, ScoreMode::kMarginal,
                                     registries[t].get(), decision_logs[t].get());
    });
    for (size_t t = 0; t < num_threads; ++t) {
      ExpectIdenticalStreams(bare, observed[t], num_threads);
      // The instrumentation must have actually been live, not silently off.
      obs::MetricRegistry& registry = *registries[t];
      EXPECT_EQ(registry.counter("optum.placements")->Value(), placed)
          << num_threads << " threads";
      EXPECT_EQ(registry.counter("optum.rejections")->Value(), kStream - placed);
      EXPECT_EQ(registry.histogram("optum.sample_seconds")->Count(),
                static_cast<uint64_t>(kStream));
      EXPECT_EQ(decision_logs[t]->records_written(), kStream);
    }
    decision_logs.clear();
    for (const std::string& path : log_paths) {
      std::remove(path.c_str());
    }
  }
}

// The span log renders on the reduction path from deterministic fields only
// (ticks, ids, counts, scores — never wall clock), so the JSONL byte stream
// must be identical however many schedulers run at once. This is the
// load-bearing guarantee that makes span files diffable across runs.
TEST(ThreadCountInvarianceTest, SpanLogBitIdenticalAcrossThreadCounts) {
  const Workload workload = MakeWorkload(64, 3 * kTicksPerHour, 23);
  const SimConfig sim_config = MakeSimConfig();
  const OptumProfiles profiles = TrainProfiles(workload, sim_config);
  const std::vector<const AppProfile*> catalog = SchedulableApps(workload);
  ASSERT_FALSE(catalog.empty());

  constexpr int kHosts = 1200;
  constexpr int kPrefillPerHost = 4;
  constexpr int kStream = 400;
  const auto read_file = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string contents;
    char buf[1 << 14];
    size_t n;
    while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.append(buf, n);
    }
    if (f != nullptr) {
      std::fclose(f);
    }
    return contents;
  };

  const auto spans_path = [](const std::string& tag) {
    return ::testing::TempDir() + "/concurrency_spans_" + tag + ".jsonl";
  };
  // Two spans per PlaceScored call: sampled + scored.
  const auto stream_spans = [&](const std::string& path) {
    obs::SpanLog span_log(path);
    EXPECT_TRUE(span_log.ok());
    StreamPlacements(profiles, catalog, kHosts, kPrefillPerHost, kStream,
                     ScoreMode::kMarginal, /*registry=*/nullptr,
                     /*decision_log=*/nullptr, &span_log);
    EXPECT_EQ(span_log.records_written(), 2 * kStream);
  };

  const std::string baseline_path = spans_path("serial");
  stream_spans(baseline_path);
  const std::string baseline_bytes = read_file(baseline_path);
  std::remove(baseline_path.c_str());
  ASSERT_FALSE(baseline_bytes.empty());
  // Sanity: the stream starts with the schema header line.
  EXPECT_EQ(baseline_bytes.rfind(obs::SpanLog::RenderHeader() + "\n", 0), 0u);

  for (const size_t num_threads : kThreadCounts) {
    RunOnThreads(num_threads, [&](size_t t) {
      stream_spans(spans_path(std::to_string(num_threads) + "_" + std::to_string(t)));
    });
    for (size_t t = 0; t < num_threads; ++t) {
      const std::string path =
          spans_path(std::to_string(num_threads) + "_" + std::to_string(t));
      const std::string bytes = read_file(path);
      std::remove(path.c_str());
      ASSERT_EQ(bytes, baseline_bytes)
          << "span stream " << t << " diverged with " << num_threads << " threads";
    }
  }
}

// --- Profile building on a crew ------------------------------------------------

// OfflineProfiler::BuildProfiles fits every forest's trees on a ShardCrew.
// Each tree's seed and bootstrap are drawn serially, so the profiles must
// match, bit for bit, the goldens recorded from the serial trainer, at every
// crew size. With the default min_samples only LS apps get a model; with 10,
// BE apps both pass and fail the MAPE gate, and each outcome decides what
// the next app draws from the shared seed stream.
TEST(ProfileBuildTest, DigestMatchesSerialGoldenForEveryCrewSize) {
  const Workload workload = MakeWorkload(64, 3 * kTicksPerHour, 23);
  AlibabaBaseline reference;
  const SimResult ref = Simulator(workload, MakeSimConfig(), reference).Run();
  struct Case {
    size_t min_samples;
    uint64_t golden;
  };
  for (const Case c : {Case{40, 11520544703766457467ULL}, Case{10, 4093536356880073817ULL}}) {
    SCOPED_TRACE(::testing::Message() << "min_samples=" << c.min_samples);
    core::OfflineProfilerConfig prof;
    prof.max_train_samples = 600;
    prof.min_samples = c.min_samples;
    const core::OfflineProfiler profiler(prof);
    for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      ShardCrew crew(lanes);
      EXPECT_EQ(testing_golden::ProfilesDigest(profiler.BuildProfiles(ref.trace, crew)),
                c.golden)
          << lanes << " lanes";
    }
    const OptumProfiles profiles = profiler.BuildProfiles(ref.trace);
    EXPECT_EQ(testing_golden::ProfilesDigest(profiles), c.golden) << "hardware-sized crew";
    size_t gated = 0;
    size_t be_models = 0;
    for (const auto& [id, app] : profiles.apps) {
      gated += !app.usable() && app.holdout_mape > prof.be_mape_gate ? 1 : 0;
      be_models += app.usable() && app.stats.slo == SloClass::kBe ? 1 : 0;
    }
    if (c.min_samples == 10) {
      EXPECT_GT(gated, 0u);
      EXPECT_GT(be_models, 0u);
    }
  }
}

// --- End-to-end simulator equivalence ----------------------------------------

SimResult RunOptum(const Workload& workload, const SimConfig& sim_config,
                   OptumProfiles profiles, const OptumConfig& optum_config,
                   size_t sim_lanes) {
  OptumScheduler optum(std::move(profiles), optum_config);
  SimConfig config = sim_config;
  config.num_lanes = sim_lanes;
  // Online ERO observation churns EroTable::version mid-run, so the test
  // also covers cache invalidation while the tick's crew threads are alive.
  config.on_tick_end = [&optum](const ClusterState& cluster, Tick now) {
    optum.ObserveColocation(cluster, now);
  };
  return Simulator(workload, config, optum).Run();
}

// --- SimResult golden --------------------------------------------------------

// Digests of the two over-commit runs, recorded from the four-phase tick
// (demand pass, serial OOM pass, usage pass, serial reduce) that the fused
// one-pass tick replaced. The lane-invariance tests compare lane counts
// with each other; these pin the output itself, so any change to a draw,
// to a summation order, or to the order of OOM kills, completions and
// records shows up here.
constexpr uint64_t kBaselineOvercommitDigest = 2587803618061190015ULL;
constexpr uint64_t kOptumOvercommitDigest = 11642768509986040065ULL;

TEST(SimResultGoldenTest, OvercommitRunsMatchRecordedDigests) {
  const Workload workload = testing_sim::OvercommitWorkload();
  const SimConfig sim_config = MakeSimConfig();

  BaselineOptions options;
  options.mem_guard = 1.4;
  AlibabaBaseline baseline(options);
  const SimResult baseline_result = Simulator(workload, sim_config, baseline).Run();
  EXPECT_GT(baseline_result.oom_kills, 0);
  EXPECT_GT(baseline_result.preemptions, 0);
  // pod_usage spans more than one ChunkedRows chunk, so the digest covers
  // rows the crew wrote on both sides of a chunk boundary.
  EXPECT_GT(baseline_result.trace.pod_usage.size(), ChunkedRows<PodUsageRecord>::kChunkRows);
  EXPECT_EQ(testing_sim::SimResultDigest(baseline_result), kBaselineOvercommitDigest);

  OptumConfig optum_config;
  optum_config.mem_util_limit = 1.01;
  const SimResult optum_result =
      RunOptum(workload, sim_config, TrainProfiles(workload, sim_config), optum_config,
               sim_config.num_lanes);
  EXPECT_GT(optum_result.oom_kills, 0);
  EXPECT_GT(optum_result.preemptions, 0);
  EXPECT_GT(optum_result.trace.pod_usage.size(), ChunkedRows<PodUsageRecord>::kChunkRows);
  EXPECT_EQ(testing_sim::SimResultDigest(optum_result), kOptumOvercommitDigest);
}

TEST(ThreadCountInvarianceTest, FullSimulationMatchesSerial) {
  // Optum may fill predicted memory just past capacity, so OOM kills and
  // LSR preemptions both fire on the serial path between crew rounds.
  const Workload workload = testing_sim::OvercommitWorkload();
  const SimConfig sim_config = MakeSimConfig();
  const OptumProfiles profiles = TrainProfiles(workload, sim_config);
  OptumConfig optum_config;
  optum_config.mem_util_limit = 1.01;

  const SimResult serial = RunOptum(workload, sim_config, profiles, optum_config, 1);
  EXPECT_GT(serial.scheduled_pods, 0);
  EXPECT_GT(serial.oom_kills, 0);
  EXPECT_GT(serial.preemptions, 0);
  for (const size_t lanes : {size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "SimConfig::num_lanes=" << lanes);
    testing_sim::ExpectIdenticalSimResults(
        serial, RunOptum(workload, sim_config, profiles, optum_config, lanes));
  }
}

// --- Online ERO refresh on the lent crew ------------------------------------

// An ERO table read over every application of a workload: each pair's
// Contains/Get and each triple's GetTriple (a < b < c), plus the counters.
struct EroSnapshot {
  uint64_t version = 0;
  size_t size = 0;
  size_t triple_size = 0;
  std::vector<double> pairs;    // Get, or -1 when not Contains
  std::vector<double> triples;  // GetTriple
  bool operator==(const EroSnapshot&) const = default;
};

EroSnapshot Snapshot(const EroTable& ero, size_t num_apps, bool triples) {
  EroSnapshot snap{ero.version(), ero.size(), ero.triple_size(), {}, {}};
  const AppId n = static_cast<AppId>(num_apps);
  for (AppId a = 0; a < n; ++a) {
    for (AppId b = a; b < n; ++b) {
      snap.pairs.push_back(ero.Contains(a, b) ? ero.Get(a, b) : -1.0);
      for (AppId c = b + 1; triples && c < n; ++c) {
        snap.triples.push_back(ero.GetTriple(a, b, c));
      }
    }
  }
  return snap;
}

struct ObservedRun {
  EroSnapshot ero;
  uint64_t sim_digest = 0;
};

// Runs Optum with ObserveColocation from on_tick_end on `lanes` simulator
// lanes. With `inline_refresh` the refresh reads a copy of the cluster,
// which carries no crew, so the collect-then-apply pass runs on the
// caller. At every refresh (ticks 0, observe_period, ...) a copy of the
// table takes the same hosts serially, in host order, through
// ColocationGroup::ObserveInto, the refresh the crew split replaced, and
// must end equal to the scheduler's.
ObservedRun RunObserving(const Workload& workload, const SimConfig& sim_config,
                         OptumProfiles profiles, const OptumConfig& optum_config,
                         size_t lanes, bool inline_refresh) {
  OptumScheduler optum(std::move(profiles), optum_config);
  const EroTable& ero = optum.profiles().ero;
  const uint64_t initial_version = ero.version();
  const size_t triple_cap = optum_config.use_triple_ero ? SIZE_MAX : 0;
  ColocationGroup group;
  EroTable serial;
  SimConfig config = sim_config;
  config.num_lanes = lanes;
  config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
    EXPECT_NE(cluster.crew(), nullptr);
    const bool refresh = now % optum_config.observe_period == 0;
    if (refresh) {
      serial = ero;
      for (const Host& host : cluster.hosts()) {
        group.Reset();
        for (const PodRuntime* pod : host.pods) {
          group.Add(pod->spec.app, pod->cpu_usage, pod->spec.request.cpu);
        }
        group.ObserveInto(&serial, triple_cap);
      }
    }
    if (inline_refresh) {
      const ClusterState copy = cluster;  // its hosts point at the same pods
      EXPECT_EQ(copy.crew(), nullptr);
      optum.ObserveColocation(copy, now);
    } else {
      optum.ObserveColocation(cluster, now);
    }
    if (refresh) {
      ASSERT_EQ(ero.version(), serial.version()) << "tick " << now;
      ASSERT_EQ(ero.size(), serial.size()) << "tick " << now;
      ASSERT_EQ(ero.triple_size(), serial.triple_size()) << "tick " << now;
    }
  };
  ObservedRun run;
  run.sim_digest = testing_sim::SimResultDigest(Simulator(workload, config, optum).Run());
  EXPECT_GT(ero.version(), initial_version);  // the refresh raised the table
  run.ero = Snapshot(ero, workload.apps.size(), optum_config.use_triple_ero);
  EXPECT_TRUE(run.ero == Snapshot(serial, workload.apps.size(), optum_config.use_triple_ero))
      << "the last refresh differs from the serial one";
  return run;
}

// ObserveColocation splits its hosts across the crew the simulator lends
// its cluster; the table it leaves, and so every placement after it, must
// equal the serial refresh's and must not depend on the lane count or on
// whether a crew was lent at all.
TEST(ThreadCountInvarianceTest, OnlineEroRefreshBitIdenticalForEveryLaneCount) {
  const Workload workload = testing_sim::OvercommitWorkload();
  const SimConfig sim_config = MakeSimConfig();
  const OptumProfiles profiles = TrainProfiles(workload, sim_config);
  for (const bool triples : {false, true}) {
    SCOPED_TRACE(triples ? "triple-wise" : "pairwise");
    OptumConfig optum_config;
    optum_config.use_triple_ero = triples;
    const ObservedRun inline_run =
        RunObserving(workload, sim_config, profiles, optum_config, 1, /*inline_refresh=*/true);
    EXPECT_EQ(inline_run.ero.triple_size > 0, triples);
    for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      SCOPED_TRACE(::testing::Message() << "SimConfig::num_lanes=" << lanes);
      const ObservedRun run =
          RunObserving(workload, sim_config, profiles, optum_config, lanes, false);
      EXPECT_EQ(run.ero.version, inline_run.ero.version);
      EXPECT_EQ(run.ero.size, inline_run.ero.size);
      EXPECT_EQ(run.ero.triple_size, inline_run.ero.triple_size);
      EXPECT_TRUE(run.ero.pairs == inline_run.ero.pairs);
      EXPECT_TRUE(run.ero.triples == inline_run.ero.triples);
      EXPECT_EQ(run.sim_digest, inline_run.sim_digest);
    }
  }
}

}  // namespace
}  // namespace optum
