// End-to-end tests for the open-loop placement service (src/serve,
// DESIGN.md §12): deterministic open-loop replay, bounded-admission
// backpressure accounting, shutdown-drains-the-queue semantics, and the two
// invariances the serve layer exports rows under — latency rows and placed
// sets pinned to goldens across pipeline depth × ingest mode and repeated
// runs, and placed-pod sets stable across scheduler shard counts. Labeled
// `concurrency` so the whole suite
// also runs under TSan / ASan+UBSan via tools/sanitize_runner.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/offline_profiler.h"
#include "src/obs/metrics.h"
#include "src/obs/span_log.h"
#include "src/sched/baselines.h"
#include "src/serve/placement_service.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"
#include "tests/golden_digest.h"

namespace optum {
namespace {

using core::OptumProfiles;

Workload MakeWorkload(int hosts, Tick horizon, uint64_t seed) {
  WorkloadConfig config;
  config.num_hosts = hosts;
  config.horizon = horizon;
  config.seed = seed;
  return WorkloadGenerator(config).Generate();
}

// Shared world: profiles are trained once (a reference simulator run plus
// the offline profiler) and reused by every service test below.
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

serve::ServeConfig BaseConfig() {
  serve::ServeConfig config;
  config.arrival.offered_pods_per_sec = 40.0;
  config.arrival.round_seconds = 1.0;
  config.distributed.num_schedulers = 2;
  config.distributed.max_attempts_per_pod = 8;
  config.queue_capacity_per_shard = 1024;
  config.max_schedule_per_round = 256;
  config.max_requeues = 8;
  config.keep_exact_latencies = true;
  return config;
}

// --- Admission queue unit tests ---------------------------------------------

serve::ServePod MakeQueuePod(PodId id) {
  serve::ServePod pod;
  pod.spec.id = id;
  return pod;
}

TEST(AdmissionQueueTest, BoundsAndBackpressureAccounting) {
  serve::AdmissionQueue queue(/*capacity_per_shard=*/2, /*num_shards=*/2);
  std::vector<serve::ServePod> pods;
  pods.reserve(8);
  for (PodId id = 0; id < 6; ++id) {
    pods.push_back(MakeQueuePod(id));
  }
  // Shard 0 gets ids {0,2,4}, shard 1 gets {1,3,5}; capacity 2 each, so the
  // third offer to each shard bounces.
  EXPECT_TRUE(queue.Offer(&pods[0]));
  EXPECT_TRUE(queue.Offer(&pods[1]));
  EXPECT_TRUE(queue.Offer(&pods[2]));
  EXPECT_TRUE(queue.Offer(&pods[3]));
  EXPECT_FALSE(queue.Offer(&pods[4]));
  EXPECT_FALSE(queue.Offer(&pods[5]));
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.shard_depth(0), 2u);
  EXPECT_EQ(queue.shard_depth(1), 2u);
  const serve::AdmissionStats& stats = queue.stats();
  EXPECT_EQ(stats.offered, 6);
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.rejected_full, 2);
  EXPECT_EQ(stats.peak_depth, 4u);

  // Requeue is capacity-exempt: already-admitted work re-enters even when
  // the shard is nominally full.
  pods.push_back(MakeQueuePod(6));
  queue.Requeue(&pods[6]);
  EXPECT_EQ(queue.shard_depth(0), 3u);
  EXPECT_EQ(queue.stats().requeued, 1);
  EXPECT_EQ(queue.stats().peak_depth, 5u);
}

TEST(AdmissionQueueTest, PopBatchRoundRobinsAcrossShards) {
  serve::AdmissionQueue queue(/*capacity_per_shard=*/8, /*num_shards=*/2);
  std::vector<serve::ServePod> pods;
  pods.reserve(6);
  // Shard 0: ids 0,2,4. Shard 1: id 1 only — a deep shard must not
  // monopolize the batch.
  for (const PodId id : {0, 2, 4, 1}) {
    pods.push_back(MakeQueuePod(id));
  }
  for (serve::ServePod& pod : pods) {
    ASSERT_TRUE(queue.Offer(&pod));
  }
  std::vector<serve::ServePod*> batch;
  EXPECT_EQ(queue.PopBatch(3, &batch), 3u);
  ASSERT_EQ(batch.size(), 3u);
  // Round-robin starting at shard 0: 0 (s0), 1 (s1), 2 (s0).
  EXPECT_EQ(batch[0]->spec.id, 0);
  EXPECT_EQ(batch[1]->spec.id, 1);
  EXPECT_EQ(batch[2]->spec.id, 2);
  batch.clear();
  EXPECT_EQ(queue.PopBatch(8, &batch), 1u);
  EXPECT_EQ(batch[0]->spec.id, 4);
  EXPECT_TRUE(queue.empty());
}

// --- Arrival driver ----------------------------------------------------------

TEST(ArrivalDriverTest, PoissonDrawMatchesMean) {
  Rng rng(5);
  const double lambda = 2000.0;
  int64_t total = 0;
  const int draws = 200;
  for (int i = 0; i < draws; ++i) {
    total += serve::PoissonDraw(rng, lambda);
  }
  const double mean = static_cast<double>(total) / draws;
  // Mean of 200 draws has sd sqrt(lambda/200) ~= 3.2; allow 5 sd.
  EXPECT_NEAR(mean, lambda, 16.0);
  EXPECT_EQ(serve::PoissonDraw(rng, 0.0), 0);
  EXPECT_EQ(serve::PoissonDraw(rng, -1.0), 0);
}

TEST(ArrivalDriverTest, EqualConfigsReplayIdenticalStreams) {
  const ServeWorld& world = World();
  serve::ArrivalConfig config;
  config.offered_pods_per_sec = 50.0;
  serve::ArrivalDriver a(world.workload, config);
  serve::ArrivalDriver b(world.workload, config);
  std::vector<PodSpec> out_a;
  std::vector<PodSpec> out_b;
  for (int64_t round = 0; round < 20; ++round) {
    a.EmitRound(round, &out_a);
    b.EmitRound(round, &out_b);
  }
  EXPECT_GT(out_a.size(), 0u);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i].id, out_b[i].id);
    EXPECT_EQ(out_a[i].app, out_b[i].app);
    EXPECT_EQ(out_a[i].submit_tick, out_b[i].submit_tick);
  }
  // Ids are dense from 0 and submit_tick is the emitting round.
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i].id, static_cast<PodId>(i));
  }
}

TEST(ArrivalDriverTest, DiurnalRateAveragesToOfferedLoad) {
  const ServeWorld& world = World();
  serve::ArrivalConfig config;
  config.process = serve::ArrivalProcess::kDiurnal;
  config.offered_pods_per_sec = 100.0;
  config.round_seconds = 30.0;  // one day = 2880 rounds at 30 s
  serve::ArrivalDriver driver(world.workload, config);
  double sum = 0.0;
  double lo = 1e300;
  double hi = 0.0;
  const int64_t day_rounds = 2880;
  for (int64_t round = 0; round < day_rounds; ++round) {
    const double rate = driver.RoundRate(round);
    sum += rate;
    lo = std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  // Normalized to the configured day-average rate, and actually modulated.
  EXPECT_NEAR(sum / static_cast<double>(day_rounds), 100.0, 2.0);
  EXPECT_LT(lo, 80.0);
  EXPECT_GT(hi, 120.0);
}

// --- Placement service -------------------------------------------------------

TEST(PlacementServiceTest, DeterministicOpenLoopReplay) {
  const ServeWorld& world = World();
  const serve::ServeConfig config = BaseConfig();

  std::string first_row;
  std::vector<PodId> first_placed;
  for (int run = 0; run < 2; ++run) {
    ClusterState cluster(200, kUnitResources, /*history_window=*/64);
    serve::PlacementService service(world.workload, world.profiles, &cluster,
                                    config);
    service.RunRounds(15);
    service.Drain();
    const std::string row = serve::RenderLatencyRow(service.MakeLatencyRow());
    const std::vector<PodId> placed = service.PlacedPodIds();
    if (run == 0) {
      first_row = row;
      first_placed = placed;
      EXPECT_GT(service.counters().placed, 0);
    } else {
      EXPECT_EQ(row, first_row);
      EXPECT_EQ(placed, first_placed);
    }
  }
}

TEST(PlacementServiceTest, ShutdownDrainsQueueAndBalancesAccounting) {
  const ServeWorld& world = World();
  serve::ServeConfig config = BaseConfig();
  // Saturated regime: offered load far above the per-round service cap with
  // a small bounded queue, so backpressure must engage.
  config.arrival.offered_pods_per_sec = 300.0;
  config.max_schedule_per_round = 60;
  config.queue_capacity_per_shard = 64;
  config.mean_residency_rounds = 20.0;

  ClusterState cluster(400, kUnitResources, /*history_window=*/64);
  serve::PlacementService service(world.workload, world.profiles, &cluster,
                                  config);
  service.RunRounds(12);
  EXPECT_GT(service.queue_depth(), 0u);
  const int64_t drain_rounds = service.Drain();
  EXPECT_GT(drain_rounds, 0);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_TRUE(service.counters().rounds >= 12 + drain_rounds);

  // Conservation: every arrival is admitted or rejected; every admitted pod
  // ends placed or dropped once the queue is drained.
  const serve::AdmissionStats& stats = service.admission_stats();
  const serve::ServeCounters& counters = service.counters();
  EXPECT_EQ(counters.arrivals, stats.admitted + stats.rejected_full);
  EXPECT_GT(stats.rejected_full, 0);
  EXPECT_EQ(stats.admitted, counters.placed + counters.dropped);
  EXPECT_LE(counters.departed, counters.placed);
  EXPECT_LE(stats.peak_depth,
            config.queue_capacity_per_shard * 2 +
                static_cast<size_t>(config.max_schedule_per_round));

  // Saturation shows up in the tail: queue waits are nonzero, and the
  // histogram percentiles agree with the exact ring within the documented
  // bucket contract.
  const serve::LatencyRow row = service.MakeLatencyRow();
  EXPECT_GT(row.latency_s_max, 0.0);
  const serve::ExactLatencyRing* exact = service.exact_latencies();
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->count(), counters.placed);
  const serve::LatencyHistogram merged = service.MergedLatency();
  const double bound = std::sqrt(merged.options().growth) - 1.0 + 1e-9;
  for (const double q : {50.0, 99.0, 99.9}) {
    const double truth = exact->Percentile(q);
    const double estimate = merged.Percentile(q);
    if (truth < merged.options().min_value) {
      EXPECT_EQ(estimate, 0.0) << "q=" << q;
    } else {
      EXPECT_NEAR(estimate / truth, 1.0, bound) << "q=" << q;
    }
  }
}

// Goldens for the mild-overload run below, recorded from the task-queue
// coordinator with intra-shard scoring threads 0, 1, 2 and 8 (all four
// agreed). The shard crew must reproduce them for every pipeline depth and
// ingest mode.
constexpr char kGoldenRow[] =
    R"({"hosts":300,"shards":2,"offered_pods_per_sec":120,"process":"poisson",)"
    R"("rounds":25,"round_seconds":1,"arrivals":1184,"admitted":1184,)"
    R"("rejected_full":0,"placed":1184,"dropped":0,"conflicts":31,)"
    R"("latency_s_p50":6.870325498,"latency_s_p99":14.99705894,)"
    R"("latency_s_p999":14.99705894,"latency_s_max":15,)"
    R"("latency_s_mean":7.379222973})";
constexpr size_t kGoldenPlacedCount = 1184;
constexpr uint64_t kGoldenPlacedDigest = 11355238919070054595ULL;

struct OverloadRun {
  std::string row;
  std::vector<PodId> placed;
};

OverloadRun RunMildOverload(size_t pipeline_depth, size_t ingest_threads) {
  const ServeWorld& world = World();
  serve::ServeConfig config = BaseConfig();
  config.arrival.offered_pods_per_sec = 120.0;
  config.max_schedule_per_round = 48;  // mild overload: nonzero waits
  config.pipeline_depth = pipeline_depth;
  config.ingest_threads = ingest_threads;
  ClusterState cluster(300, kUnitResources, /*history_window=*/64);
  serve::PlacementService service(world.workload, world.profiles, &cluster,
                                  config);
  service.RunRounds(10);
  service.Drain();
  return {serve::RenderLatencyRow(service.MakeLatencyRow()),
          service.PlacedPodIds()};
}

TEST(PlacementServiceTest, LatencyRowsMatchGoldensAcrossPipelineMatrix) {
  OverloadRun last;
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t ingest : {size_t{0}, size_t{1}}) {
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " ingest=" + std::to_string(ingest));
      last = RunMildOverload(depth, ingest);
      EXPECT_EQ(last.row, kGoldenRow);
      EXPECT_EQ(last.placed.size(), kGoldenPlacedCount);
      EXPECT_EQ(testing_golden::PlacedSetDigest(last.placed), kGoldenPlacedDigest);
    }
  }
  // Same-process repeat: no state leaks from one service into the next.
  const OverloadRun again = RunMildOverload(3, 1);
  EXPECT_EQ(again.row, last.row);
  EXPECT_EQ(again.placed, last.placed);
}

TEST(PlacementServiceTest, PlacedSetStableAcrossShardCounts) {
  const ServeWorld& world = World();
  std::set<PodId> reference;
  bool first = true;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    serve::ServeConfig config = BaseConfig();
    // Ample capacity: every arrival can place, so the *set* of placed pods
    // must not depend on how the fleet is sharded (individual host choices
    // may differ — shard streams are salted by shard id).
    config.arrival.offered_pods_per_sec = 25.0;
    config.max_schedule_per_round = 512;
    config.distributed.num_schedulers = shards;
    ClusterState cluster(300, kUnitResources, /*history_window=*/64);
    serve::PlacementService service(world.workload, world.profiles, &cluster,
                                    config);
    service.RunRounds(12);
    service.Drain();
    EXPECT_EQ(service.counters().dropped, 0) << "shards=" << shards;
    EXPECT_EQ(service.admission_stats().rejected_full, 0) << "shards=" << shards;
    EXPECT_EQ(service.num_shards(), shards);
    const std::vector<PodId> placed_vec = service.PlacedPodIds();
    std::set<PodId> placed(placed_vec.begin(), placed_vec.end());
    EXPECT_EQ(placed.size(), placed_vec.size());  // no duplicates, sorted
    if (first) {
      reference = placed;
      first = false;
      EXPECT_EQ(static_cast<int64_t>(placed.size()),
                service.counters().arrivals);
    } else {
      EXPECT_EQ(placed, reference) << "shards=" << shards;
    }
  }
}

TEST(PlacementServiceTest, DeparturesFreeCapacityAndEmitFinishedSpans) {
  const ServeWorld& world = World();
  serve::ServeConfig config = BaseConfig();
  config.arrival.offered_pods_per_sec = 60.0;
  config.mean_residency_rounds = 5.0;  // short-lived pods

  const std::string span_path = testing::TempDir() + "/serve_spans.jsonl";
  obs::SpanLog span_log(span_path);
  ASSERT_TRUE(span_log.ok());
  obs::MetricRegistry registry(/*num_lanes=*/1);
  span_log.AttachMetrics(&registry);

  ClusterState cluster(200, kUnitResources, /*history_window=*/64);
  serve::PlacementService service(world.workload, world.profiles, &cluster,
                                  config);
  obs::Sinks sinks;
  sinks.span_log = &span_log;
  sinks.metrics = &registry;
  service.AttachSinks(sinks);
  service.RunRounds(40);
  service.Drain();
  span_log.Flush();

  const serve::ServeCounters& counters = service.counters();
  EXPECT_GT(counters.departed, 0);
  EXPECT_LE(counters.departed, counters.placed);

  // Span stream mirrors the counters exactly: one submitted per arrival,
  // one placed per placement, one finished per departure.
  EXPECT_EQ(registry.counter("spans.submitted")->Value(),
            static_cast<uint64_t>(counters.arrivals));
  EXPECT_EQ(registry.counter("spans.placed")->Value(),
            static_cast<uint64_t>(counters.placed));
  EXPECT_EQ(registry.counter("spans.finished")->Value(),
            static_cast<uint64_t>(counters.departed));

  // serve.* counters match the service's own view.
  EXPECT_EQ(registry.counter("serve.arrivals")->Value(),
            static_cast<uint64_t>(counters.arrivals));
  EXPECT_EQ(registry.counter("serve.placed")->Value(),
            static_cast<uint64_t>(counters.placed));
  EXPECT_EQ(registry.counter("serve.departed")->Value(),
            static_cast<uint64_t>(counters.departed));
}

TEST(PlacementServiceTest, ResidencyDrawsAreIndependentOfPlacementOrder) {
  const ServeWorld& world = World();
  // Two runs whose scheduling differs (different shard counts ⇒ different
  // placement order and hosts) must still depart pods on the same schedule:
  // residency is seeded per pod id, not per placement event. Under ample
  // capacity every pod places in its submit round in both runs, so the
  // departed count after the same horizon must match exactly.
  int64_t reference_departed = -1;
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    serve::ServeConfig config = BaseConfig();
    config.arrival.offered_pods_per_sec = 20.0;
    config.max_schedule_per_round = 512;
    config.distributed.num_schedulers = shards;
    config.mean_residency_rounds = 8.0;
    ClusterState cluster(300, kUnitResources, /*history_window=*/64);
    serve::PlacementService service(world.workload, world.profiles, &cluster,
                                    config);
    service.RunRounds(30);
    EXPECT_GT(service.counters().departed, 0);
    if (reference_departed < 0) {
      reference_departed = service.counters().departed;
    } else {
      EXPECT_EQ(service.counters().departed, reference_departed)
          << "shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace optum
