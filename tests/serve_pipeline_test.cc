// Pipelined serve rounds (DESIGN.md §12): the two-stage round loop —
// speculative shard scoring against an epoch-snapshotted host view plus the
// multi-threaded ingest hand-off — must be a pure wall-clock optimization.
// These tests pin the contract: optum.latency.v1 rows, placed-pod sets,
// admission accounting, serve counters, and SLO-violation accounting match
// recorded goldens for every {pipeline_depth} × {ingest_threads}
// combination and across repeated runs, and so do the shards' decision-log
// bytes; a 4-shard run beside busy threads, which deschedule crew lanes so
// other lanes steal their shards, matches the quiet run's goldens down to
// the per-shard profile counts; the admission queue survives genuinely
// concurrent offers; and a speculative score finalized after cluster
// mutation equals a fresh PlaceScored. Labeled `concurrency` so the suite
// also runs under TSan / ASan+UBSan via tools/sanitize_runner.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/obs/decision_log.h"
#include "src/obs/metrics.h"
#include "src/obs/pressure.h"
#include "src/obs/profiler.h"
#include "src/obs/span_log.h"
#include "src/sched/baselines.h"
#include "src/serve/placement_service.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"
#include "tests/golden_digest.h"

namespace optum {
namespace {

using core::OptumProfiles;
using core::OptumScheduler;

Workload MakeWorkload(int hosts, Tick horizon, uint64_t seed) {
  WorkloadConfig config;
  config.num_hosts = hosts;
  config.horizon = horizon;
  config.seed = seed;
  return WorkloadGenerator(config).Generate();
}

// Shared world: profiles trained once, reused by every test below.
struct ServeWorld {
  Workload workload;
  OptumProfiles profiles;
};

const ServeWorld& World() {
  static const ServeWorld* world = [] {
    auto* w = new ServeWorld;
    w->workload = MakeWorkload(64, 3 * kTicksPerHour, 23);
    SimConfig sim_config;
    sim_config.pod_usage_period = 5;
    sim_config.max_attempts_per_tick = 1500;
    AlibabaBaseline reference;
    const SimResult ref = Simulator(w->workload, sim_config, reference).Run();
    core::OfflineProfilerConfig prof;
    prof.max_train_samples = 600;
    w->profiles = core::OfflineProfiler(prof).BuildProfiles(ref.trace);
    return w;
  }();
  return *world;
}

// Everything a pipelined run can observably produce.
struct RunResult {
  std::string row;              // RenderLatencyRow — the exported JSONL row
  std::vector<PodId> placed;    // placed-pod set, ascending
  std::string slo_json;         // merged optum.slo.v1 document
  serve::AdmissionStats stats;
  serve::ServeCounters counters;
  // Speculative evaluations kept at finalize because the host's epoch did
  // not move (eval_memo_hits()), summed over shards.
  uint64_t kept_evals = 0;
  // Each shard's decision-log bytes, in shard order; empty unless the run
  // attached decision logs.
  std::vector<std::string> decision_logs;
  // RoundProfiler::RenderCounts (per-window, per-shard, per-phase scope
  // counts); empty unless the run attached a profiler.
  std::string profile_counts;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// One service run in a mild-overload regime with departures, so requeues,
// waits, epoch churn, and SLO violations all occur — the paths speculation
// has to get right. With `log_decisions`, every shard writes a decision log;
// with `profile`, a RoundProfiler is attached.
RunResult RunPipelined(size_t pipeline_depth, size_t ingest_threads,
                       bool log_decisions = false, size_t num_shards = 2,
                       bool profile = false) {
  const ServeWorld& world = World();
  serve::ServeConfig config;
  config.arrival.offered_pods_per_sec = 120.0;
  config.arrival.round_seconds = 1.0;
  config.distributed.num_schedulers = num_shards;
  config.distributed.max_attempts_per_pod = 8;
  config.queue_capacity_per_shard = 1024;
  config.max_schedule_per_round = 48;  // mild overload: nonzero waits
  config.max_requeues = 8;
  config.mean_residency_rounds = 12.0;  // departures churn host epochs
  config.keep_exact_latencies = true;
  config.pipeline_depth = pipeline_depth;
  config.ingest_threads = ingest_threads;

  obs::HostPressureMonitor::Options mopts;
  mopts.num_slo_shards = config.distributed.num_schedulers;
  mopts.seconds_per_tick = config.arrival.round_seconds;
  mopts.pressure.slo_threshold = 0.5;  // low bar so violation time accrues
  obs::HostPressureMonitor monitor(300, mopts);

  ClusterState cluster(300, kUnitResources, /*history_window=*/64);
  serve::PlacementService service(world.workload, world.profiles, &cluster,
                                  config);
  service.set_pressure_monitor(&monitor);
  obs::RoundProfiler::Options popts;
  popts.window_rounds = 8;
  obs::RoundProfiler profiler(popts);
  if (profile) {
    obs::Sinks sinks;
    sinks.profile = &profiler;
    service.AttachSinks(sinks);
  }
  std::vector<std::string> log_paths;
  std::vector<std::unique_ptr<obs::DecisionLog>> logs;
  if (log_decisions) {
    for (size_t s = 0; s < service.coordinator().num_schedulers(); ++s) {
      log_paths.push_back(::testing::TempDir() + "/pipeline_decisions_d" +
                          std::to_string(pipeline_depth) + "_i" +
                          std::to_string(ingest_threads) + "_s" +
                          std::to_string(s) + ".jsonl");
      logs.push_back(std::make_unique<obs::DecisionLog>(log_paths.back()));
      EXPECT_TRUE(logs.back()->ok());
      obs::Sinks shard_sinks;
      shard_sinks.decision_log = logs.back().get();
      service.coordinator().shard(s).AttachSinks(shard_sinks);
    }
  }
  service.RunRounds(10);
  service.Drain();
  monitor.Finalize();
  profiler.Finalize();

  RunResult out;
  logs.clear();  // closes (flushes) the files
  for (const std::string& path : log_paths) {
    out.decision_logs.push_back(ReadFile(path));
    std::remove(path.c_str());
  }
  if (profile) {
    out.profile_counts = profiler.RenderCounts();
  }
  out.row = serve::RenderLatencyRow(service.MakeLatencyRow());
  out.placed = service.PlacedPodIds();
  out.slo_json = monitor.MergedSlo().RenderJson(monitor.seconds_per_tick());
  out.stats = service.admission_stats();
  out.counters = service.counters();
  for (size_t s = 0; s < service.coordinator().num_schedulers(); ++s) {
    out.kept_evals += service.coordinator().shard(s).eval_memo_hits();
  }
  return out;
}

// Goldens for RunPipelined, recorded from the task-queue coordinator with
// intra-shard scoring threads 0, 1, 2 and 8 across this same matrix (every
// combination agreed).
constexpr char kGoldenRow[] =
    R"({"hosts":300,"shards":2,"offered_pods_per_sec":120,"process":"poisson",)"
    R"("rounds":25,"round_seconds":1,"arrivals":1184,"admitted":1184,)"
    R"("rejected_full":0,"placed":1184,"dropped":0,"conflicts":28,)"
    R"("latency_s_p50":6.870325498,"latency_s_p99":14.99705894,)"
    R"("latency_s_p999":14.99705894,"latency_s_max":15,)"
    R"("latency_s_mean":7.379222973})";
constexpr char kGoldenSlo[] =
    R"({"schema":"optum.slo.v1","seconds_per_tick":1,"classes":[)"
    R"({"class":"BE","observed_ticks":5074,"violation_ticks":2245,)"
    R"("observed_seconds":5074,"violation_seconds":2245},)"
    R"({"class":"LS","observed_ticks":2881,"violation_ticks":1244,)"
    R"("observed_seconds":2881,"violation_seconds":1244},)"
    R"({"class":"LSR","observed_ticks":837,"violation_ticks":427,)"
    R"("observed_seconds":837,"violation_seconds":427}]})";
constexpr size_t kGoldenPlacedCount = 1184;
constexpr uint64_t kGoldenPlacedDigest = 11355238919070054595ULL;

void ExpectGoldens(const RunResult& r) {
  EXPECT_EQ(r.row, kGoldenRow);
  EXPECT_EQ(r.slo_json, kGoldenSlo);
  EXPECT_EQ(r.placed.size(), kGoldenPlacedCount);
  EXPECT_EQ(testing_golden::PlacedSetDigest(r.placed), kGoldenPlacedDigest);
  EXPECT_EQ(r.counters.placed, 1184);
  EXPECT_EQ(r.counters.dropped, 0);
  EXPECT_EQ(r.counters.departed, 696);
  EXPECT_EQ(r.counters.conflicts, 28);
  EXPECT_EQ(r.counters.rounds, 25);
  EXPECT_EQ(r.counters.schedule_rounds, 616);
  EXPECT_EQ(r.stats.requeued, 0);
  EXPECT_EQ(r.stats.peak_depth, 752u);
}

void ExpectSameRun(const RunResult& r, const RunResult& base) {
  EXPECT_EQ(r.row, base.row);
  EXPECT_EQ(r.placed, base.placed);
  EXPECT_EQ(r.slo_json, base.slo_json);
  EXPECT_EQ(r.stats.offered, base.stats.offered);
  EXPECT_EQ(r.stats.admitted, base.stats.admitted);
  EXPECT_EQ(r.stats.rejected_full, base.stats.rejected_full);
  EXPECT_EQ(r.stats.requeued, base.stats.requeued);
  EXPECT_EQ(r.stats.peak_depth, base.stats.peak_depth);
  EXPECT_EQ(r.counters.rounds, base.counters.rounds);
  EXPECT_EQ(r.counters.arrivals, base.counters.arrivals);
  EXPECT_EQ(r.counters.placed, base.counters.placed);
  EXPECT_EQ(r.counters.dropped, base.counters.dropped);
  EXPECT_EQ(r.counters.departed, base.counters.departed);
  EXPECT_EQ(r.counters.conflicts, base.counters.conflicts);
  EXPECT_EQ(r.counters.schedule_rounds, base.counters.schedule_rounds);
}

// The tentpole invariant: the depth-1 inline-ingest loop and every
// pipelined/threaded variant export the goldens' bytes.
TEST(PipelinedServeTest, RowsPlacedSetsAndSloBitIdenticalAcrossMatrix) {
  const RunResult base = RunPipelined(/*pipeline_depth=*/1,
                                      /*ingest_threads=*/0);
  ExpectGoldens(base);
  EXPECT_GT(base.counters.conflicts, 0);
  EXPECT_EQ(base.kept_evals, 0u);  // depth 1 never speculates

  uint64_t pipelined_kept_evals = 0;
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t ingest : {size_t{0}, size_t{1}}) {
      if (depth == 1 && ingest == 0) {
        continue;  // the baseline itself
      }
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " ingest=" + std::to_string(ingest));
      const RunResult r = RunPipelined(depth, ingest);
      ExpectGoldens(r);
      ExpectSameRun(r, base);
      if (depth > 1) {
        pipelined_kept_evals += r.kept_evals;
      }
    }
  }
  // The pipeline must actually be working, not silently degrading to the
  // serial path: finalize keeps speculative evaluations of unmoved hosts.
  EXPECT_GT(pipelined_kept_evals, 0u);

  // Same-process repeat: a second identical service exports the same
  // bytes and keeps the same number of evaluations.
  const RunResult first = RunPipelined(2, 1);
  const RunResult repeat = RunPipelined(2, 1);
  ExpectSameRun(repeat, first);
  EXPECT_EQ(repeat.kept_evals, first.kept_evals);
}

// Every evaluation keeps its Eq. 11 breakdown, so FinalizeSpeculative
// writes exactly the records PlaceScored would: each shard's decision log
// has the same bytes for every {pipeline_depth} × {ingest_threads}
// combination, and logging moves no placement.
TEST(PipelinedServeTest, DecisionLogBytesIdenticalAcrossMatrix) {
  const RunResult base = RunPipelined(/*pipeline_depth=*/1,
                                      /*ingest_threads=*/0,
                                      /*log_decisions=*/true);
  ExpectGoldens(base);
  ASSERT_EQ(base.decision_logs.size(), 2u);
  for (const std::string& log : base.decision_logs) {
    // The header line plus records.
    EXPECT_GT(std::count(log.begin(), log.end(), '\n'), 1);
  }

  uint64_t pipelined_kept_evals = 0;
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t ingest : {size_t{0}, size_t{1}}) {
      if (depth == 1 && ingest == 0) {
        continue;  // the baseline itself
      }
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " ingest=" + std::to_string(ingest));
      const RunResult r = RunPipelined(depth, ingest, /*log_decisions=*/true);
      ExpectGoldens(r);
      ExpectSameRun(r, base);
      EXPECT_EQ(r.decision_logs, base.decision_logs);
      if (depth > 1) {
        pipelined_kept_evals += r.kept_evals;
      }
    }
  }
  // The logged shards really speculated.
  EXPECT_GT(pipelined_kept_evals, 0u);
}

// Goldens for the 4-shard RunPipelined with a profiler attached, recorded
// on a quiet box from the crew that ran every shard on its own lane.
constexpr char kGolden4Row[] =
    R"({"hosts":300,"shards":4,"offered_pods_per_sec":120,"process":"poisson",)"
    R"("rounds":25,"round_seconds":1,"arrivals":1184,"admitted":1184,)"
    R"("rejected_full":0,"placed":1184,"dropped":0,"conflicts":95,)"
    R"("latency_s_p50":6.870325498,"latency_s_p99":14.99705894,)"
    R"("latency_s_p999":14.99705894,"latency_s_max":15,)"
    R"("latency_s_mean":7.379222973})";
constexpr size_t kGolden4CountsSize = 28759;
constexpr uint64_t kGolden4CountsDigest = 3732232214040287075ULL;

// Busy-spinning threads beside the test body: on a box with few cores they
// deschedule crew lanes mid-round, so a lane that is free steals a late
// lane's shard. Joined on destruction.
class BusyThreads {
 public:
  explicit BusyThreads(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~BusyThreads() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      t.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Shards run by threads other than their own leave every export as it is:
// placements, latency rows and each shard's profile scope counts.
TEST(PipelinedServeTest, FourShardRunBitIdenticalBesideBusyThreads) {
  const RunResult quiet = RunPipelined(/*pipeline_depth=*/1, /*ingest_threads=*/0,
                                       /*log_decisions=*/false, /*num_shards=*/4,
                                       /*profile=*/true);
  EXPECT_EQ(quiet.row, kGolden4Row);
  EXPECT_EQ(testing_golden::PlacedSetDigest(quiet.placed), kGoldenPlacedDigest);
  EXPECT_EQ(quiet.profile_counts.size(), kGolden4CountsSize);
  EXPECT_EQ(testing_golden::Fnv1a64(quiet.profile_counts), kGolden4CountsDigest);

  // One busy thread per core (at most 8) outnumbers the crew's lanes.
  const BusyThreads busy(std::clamp<size_t>(std::thread::hardware_concurrency(), 2, 8));
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t ingest : {size_t{0}, size_t{1}}) {
      SCOPED_TRACE("depth=" + std::to_string(depth) + " ingest=" + std::to_string(ingest));
      const RunResult r = RunPipelined(depth, ingest, /*log_decisions=*/false,
                                       /*num_shards=*/4, /*profile=*/true);
      ExpectSameRun(r, quiet);
      EXPECT_EQ(r.profile_counts, quiet.profile_counts);
    }
  }
}

// BeginSpeculative → cluster mutation → FinalizeSpeculative must equal a
// fresh PlaceScored issued at finalize time, including when the mutation
// invalidates candidates the speculation already scored — down to the
// decision records both write.
TEST(SpeculativeSchedulerTest, FinalizeMatchesFreshPlaceScoredAfterMutation) {
  const ServeWorld& world = World();
  const std::vector<const AppProfile*> catalog =
      SchedulableApps(world.workload);
  ASSERT_FALSE(catalog.empty());

  core::OptumConfig config;
  config.sample_fraction = 0.25;
  config.min_candidates = 16;
  OptumScheduler speculative(world.profiles, config);
  OptumScheduler fresh(world.profiles, config);
  const std::string spec_log_path =
      ::testing::TempDir() + "/speculative_decisions.jsonl";
  const std::string fresh_log_path = ::testing::TempDir() + "/fresh_decisions.jsonl";
  auto spec_log = std::make_unique<obs::DecisionLog>(spec_log_path);
  auto fresh_log = std::make_unique<obs::DecisionLog>(fresh_log_path);
  ASSERT_TRUE(spec_log->ok());
  ASSERT_TRUE(fresh_log->ok());
  speculative.AttachSinks(obs::Sinks{.decision_log = spec_log.get()});
  fresh.AttachSinks(obs::Sinks{.decision_log = fresh_log.get()});

  // A small app rotation over a small cluster, so most candidates are
  // untouched between speculation and finalize.
  const size_t num_apps = catalog.size() < 3 ? catalog.size() : size_t{3};

  constexpr int kHosts = 64;
  ClusterState cluster(kHosts, kUnitResources, /*history_window=*/64);
  PodId next_id = 0;
  std::vector<PodRuntime*> live;
  for (int h = 0; h < kHosts; ++h) {
    for (int k = 0; k < 4; ++k) {
      const AppProfile& app =
          *catalog[static_cast<size_t>(next_id) % num_apps];
      live.push_back(cluster.Place(MakePodSpec(next_id, app), &app, h, 0));
      ++next_id;
    }
  }

  OptumScheduler::SpeculativeScore spec;
  int agreements = 0;
  for (int i = 0; i < 120; ++i) {
    const AppProfile& app = *catalog[static_cast<size_t>(next_id) % num_apps];
    const PodSpec pod = MakePodSpec(next_id, app);
    ++next_id;

    speculative.BeginSpeculative(pod, cluster, &spec);

    // Mutate the cluster between speculation and finalize: place one filler
    // pod and evict one old pod, bumping the touched hosts' change epochs.
    const AppProfile& filler_app =
        *catalog[static_cast<size_t>(next_id) % num_apps];
    const PodSpec filler = MakePodSpec(next_id, filler_app);
    ++next_id;
    live.push_back(
        cluster.Place(filler, &filler_app, static_cast<HostId>(i % kHosts), 0));
    if (i % 3 == 0 && !live.empty()) {
      cluster.Remove(live.front());
      live.erase(live.begin());
    }

    // Both schedulers share one sampling-stream history (one draw per pod),
    // so the fresh scheduler sees the identical candidate sample — and the
    // post-mutation cluster, exactly what FinalizeSpeculative must match.
    double fresh_score = 0.0;
    const PlacementDecision fresh_decision =
        fresh.PlaceScored(pod, cluster, &fresh_score);
    double spec_score = 0.0;
    const PlacementDecision spec_decision =
        speculative.FinalizeSpeculative(pod, cluster, &spec, &spec_score);

    EXPECT_EQ(spec_decision.host, fresh_decision.host) << "pod " << pod.id;
    EXPECT_EQ(spec_decision.reason, fresh_decision.reason) << "pod " << pod.id;
    EXPECT_EQ(spec_score, fresh_score) << "pod " << pod.id;
    if (spec_decision.host != kInvalidHostId) {
      live.push_back(cluster.Place(pod, &app, spec_decision.host, 0));
      ++agreements;
    }
    spec.Clear();
  }
  EXPECT_GT(agreements, 0);
  // Finalize kept the speculative evaluations of unmoved hosts.
  EXPECT_GT(speculative.eval_memo_hits(), 0u);
  EXPECT_EQ(spec_log->records_written(), 120);
  spec_log.reset();  // closes (flushes) the files
  fresh_log.reset();
  EXPECT_EQ(ReadFile(spec_log_path), ReadFile(fresh_log_path));
  std::remove(spec_log_path.c_str());
  std::remove(fresh_log_path.c_str());
}

// The queue's counters were plain ints once; under concurrent Offer they
// must neither lose increments nor admit past capacity.
TEST(AdmissionQueueConcurrencyTest, ConcurrentOffersAccountExactly) {
  constexpr size_t kShards = 4;
  constexpr size_t kCapacity = 64;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  serve::AdmissionQueue queue(kCapacity, kShards);

  std::deque<serve::ServePod> pods;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    serve::ServePod pod;
    pod.spec.id = i;
    pods.push_back(pod);
  }

  std::atomic<int64_t> admitted{0};
  std::atomic<int64_t> rejected{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        serve::ServePod* pod = &pods[static_cast<size_t>(t * kPerThread + i)];
        if (queue.Offer(pod)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  const serve::AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.offered, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.rejected_full, rejected.load());
  EXPECT_EQ(stats.admitted + stats.rejected_full, stats.offered);
  EXPECT_EQ(queue.depth(), static_cast<size_t>(admitted.load()));
  EXPECT_LE(queue.depth(), kShards * kCapacity);
  EXPECT_GE(stats.peak_depth, queue.depth());
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_LE(queue.shard_depth(s), kCapacity) << "shard " << s;
  }

  // Single-consumer drain sees exactly the admitted pods.
  std::vector<serve::ServePod*> batch;
  size_t drained = 0;
  while (queue.PopBatch(128, &batch) > 0) {
    drained += batch.size();
    batch.clear();
  }
  EXPECT_EQ(drained, static_cast<size_t>(admitted.load()));
  EXPECT_TRUE(queue.empty());
}

// AttachSinks semantics: one call attaches every slot at once and all stay
// live together; re-attaching with a field nulled detaches just that sink.
TEST(SinksAttachTest, FullBundleAttachesAndNulledFieldDetaches) {
  const ServeWorld& world = World();
  const std::vector<const AppProfile*> catalog =
      SchedulableApps(world.workload);
  ASSERT_FALSE(catalog.empty());

  core::OptumConfig config;
  config.sample_fraction = 0.5;
  OptumScheduler scheduler(world.profiles, config);
  ClusterState cluster(32, kUnitResources, /*history_window=*/64);

  const std::string span_path =
      ::testing::TempDir() + "/forwarder_spans.jsonl";
  obs::SpanLog span_log(span_path);
  ASSERT_TRUE(span_log.ok());
  obs::MetricRegistry registry;

  obs::DecisionLog decision_log("/dev/null");
  ASSERT_TRUE(decision_log.ok());
  obs::Sinks sinks;
  sinks.span_log = &span_log;
  sinks.metrics = &registry;
  sinks.decision_log = &decision_log;
  scheduler.AttachSinks(sinks);
  EXPECT_EQ(scheduler.attached_sinks().span_log, &span_log);

  PodId id = 0;
  int placed = 0;
  auto place_some = [&] {
    for (int i = 0; i < 16; ++i) {
      const AppProfile& app = *catalog[static_cast<size_t>(id) % catalog.size()];
      const PodSpec pod = MakePodSpec(id, app);
      ++id;
      double score = 0.0;
      const PlacementDecision decision = scheduler.PlaceScored(pod, cluster, &score);
      if (decision.host != kInvalidHostId) {
        cluster.Place(pod, &app, decision.host, 0);
        ++placed;
      }
    }
  };
  place_some();
  span_log.Flush();
  ASSERT_GT(placed, 0);
  EXPECT_GT(span_log.records_written(), 0);         // span slot live
  EXPECT_GT(decision_log.records_written(), 0);     // decision slot live
  EXPECT_EQ(registry.counter("optum.placements")->Value(),
            static_cast<uint64_t>(placed));         // metrics slot live

  // Re-attach with the span log nulled: that sink detaches, the rest stay.
  const int64_t spans_before = span_log.records_written();
  const int64_t decisions_before = decision_log.records_written();
  obs::Sinks without_spans = scheduler.attached_sinks();
  without_spans.span_log = nullptr;
  scheduler.AttachSinks(without_spans);
  place_some();
  span_log.Flush();
  EXPECT_EQ(span_log.records_written(), spans_before);   // detached
  EXPECT_GT(decision_log.records_written(), decisions_before);  // still live
  EXPECT_EQ(registry.counter("optum.placements")->Value(),
            static_cast<uint64_t>(placed));
  std::remove(span_path.c_str());
}

}  // namespace
}  // namespace optum
