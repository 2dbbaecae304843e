// Tests for the host-pressure sensing / hotspot detection / SLO accounting
// subsystem (src/obs/pressure.h, hotspot.h, slo.h — DESIGN.md §13) and the
// arrival driver's anomaly-storm overlay (DESIGN.md §12):
//
//   * hysteresis properties — a pressure signal oscillating inside the
//     [clear, onset) band or spiking/dipping for less than the dwell never
//     starts, ends, or chatters an episode;
//   * SLO tick conservation (compliant + violation == observed) and
//     merge-order invariance, byte-equal through RenderJson;
//   * golden optum.hotspot.v1 / optum.slo.v1 renders;
//   * serve-layer integration — hotspot and SLO exports pinned to goldens
//     across pipeline depth × ingest mode, storms produce episodes, a calm
//     run produces none;
//   * burst overlay determinism (pure function of the round, equal configs
//     replay identical streams, disabled by default).
//
// Labeled `observability` so the suite also runs under TSan / ASan+UBSan
// via tools/sanitize_runner.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/offline_profiler.h"
#include "src/obs/hotspot.h"
#include "src/obs/pressure.h"
#include "src/obs/slo.h"
#include "src/sched/baselines.h"
#include "src/serve/placement_service.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"
#include "tests/golden_digest.h"

namespace optum {
namespace {

using obs::HostPressureInput;
using obs::HostPressureMonitor;
using obs::HotspotConfig;
using obs::HotspotDetector;
using obs::HotspotEvent;
using obs::HotspotLog;
using obs::PressureConfig;
using obs::PressureTracker;
using obs::RawPressure;
using obs::SloAccumulator;

std::string ReadFileOrDie(const std::string& path) {
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
}

// --- Pressure signal --------------------------------------------------------

TEST(PressureTest, RawPressureCombinesCapacityAndInterference) {
  PressureConfig config;  // mem_weight 0.7, interference_weight 0.5
  HostPressureInput in;
  in.cpu_util = 0.6;
  in.mem_util = 0.5;
  // CPU dominates 0.7 * 0.5 = 0.35.
  EXPECT_DOUBLE_EQ(RawPressure(config, in), 0.6);
  in.mem_util = 1.0;  // now memory dominates: 0.7 > 0.6
  EXPECT_DOUBLE_EQ(RawPressure(config, in), 0.7);
  in.interference = 0.4;
  EXPECT_DOUBLE_EQ(RawPressure(config, in), 0.7 + 0.5 * 0.4);
}

TEST(PressureTest, TrackerSeedsThenSmoothsWithEwma) {
  PressureConfig config;
  config.ewma_alpha = 0.5;
  config.interference_weight = 0.0;
  PressureTracker tracker(/*num_hosts=*/2, config);
  HostPressureInput in;
  in.cpu_util = 0.8;
  // First observation seeds the EWMA with the raw value.
  EXPECT_DOUBLE_EQ(tracker.Observe(0, in), 0.8);
  in.cpu_util = 0.4;
  EXPECT_DOUBLE_EQ(tracker.Observe(0, in), 0.5 * 0.4 + 0.5 * 0.8);
  // Host 1 is independent state.
  EXPECT_DOUBLE_EQ(tracker.Observe(1, in), 0.4);
  EXPECT_DOUBLE_EQ(tracker.signal(0).raw, 0.4);
}

// --- Hotspot hysteresis -----------------------------------------------------

HotspotConfig TightConfig() {
  HotspotConfig config;
  config.onset_threshold = 0.85;
  config.clear_threshold = 0.70;
  config.min_onset_ticks = 3;
  config.min_clear_ticks = 3;
  return config;
}

TEST(HotspotDetectorTest, BandOscillationNeverChatters) {
  // Property: any signal that stays inside [clear, onset) can neither start
  // nor end an episode, no matter how wildly it oscillates.
  HotspotDetector detector(1, TightConfig());
  for (Tick t = 0; t < 200; ++t) {
    const double p = (t % 2 == 0) ? 0.7049 : 0.8499;  // full band sweep
    detector.Observe(0, t, p, 1, 1, 0);
    EXPECT_EQ(detector.hosts_hot(), 0) << "tick " << t;
  }
  detector.Finalize(199);
  EXPECT_TRUE(detector.events().empty());
}

TEST(HotspotDetectorTest, ShortSpikesAndDipsAreIgnored) {
  HotspotDetector detector(1, TightConfig());
  Tick t = 0;
  // Two-tick spikes never reach min_onset_ticks = 3.
  for (int rep = 0; rep < 10; ++rep) {
    detector.Observe(0, t++, 0.9, 0, 1, 0);
    detector.Observe(0, t++, 0.9, 0, 1, 0);
    detector.Observe(0, t++, 0.1, 0, 1, 0);
  }
  EXPECT_EQ(detector.hosts_hot(), 0);
  // Qualify an onset, then dip for two ticks at a time: the episode must
  // stay open (min_clear_ticks = 3 never reached).
  for (int i = 0; i < 3; ++i) {
    detector.Observe(0, t++, 0.95, 0, 1, 0);
  }
  EXPECT_EQ(detector.hosts_hot(), 1);
  for (int rep = 0; rep < 10; ++rep) {
    detector.Observe(0, t++, 0.1, 0, 1, 0);
    detector.Observe(0, t++, 0.1, 0, 1, 0);
    detector.Observe(0, t++, 0.9, 0, 1, 0);
  }
  EXPECT_EQ(detector.hosts_hot(), 1);
  EXPECT_TRUE(detector.events().empty());
  detector.Finalize(t - 1);
  ASSERT_EQ(detector.events().size(), 1u);
  EXPECT_TRUE(detector.events()[0].open);
}

TEST(HotspotDetectorTest, EpisodeCarriesOnsetClearPeakAndPodMix) {
  HotspotDetector detector(2, TightConfig());
  // Host 0: 4 ticks cold, 5 ticks hot (peak 0.97 at tick 6), then cold.
  const double signal[] = {0.2, 0.2, 0.2, 0.2, 0.9, 0.9, 0.97, 0.9, 0.9,
                           0.1, 0.1, 0.1, 0.1};
  for (Tick t = 0; t < static_cast<Tick>(std::size(signal)); ++t) {
    detector.Observe(0, t, signal[t], /*pods_be=*/static_cast<int32_t>(t),
                     /*pods_ls=*/2, /*pods_lsr=*/1);
    detector.Observe(1, t, 0.0, 0, 0, 0);  // never hot
  }
  ASSERT_EQ(detector.events().size(), 1u);
  const HotspotEvent& e = detector.events()[0];
  EXPECT_EQ(e.host, 0);
  EXPECT_EQ(e.onset_tick, 4);   // first tick of the qualifying run
  EXPECT_EQ(e.clear_tick, 9);   // first tick of the qualifying cool-down
  EXPECT_EQ(e.duration_ticks(), 5);
  EXPECT_DOUBLE_EQ(e.peak_pressure, 0.97);
  EXPECT_EQ(e.peak_tick, 6);
  EXPECT_EQ(e.pods_be, 6);  // pod mix snapshot at the peak tick
  EXPECT_EQ(e.pods_ls, 2);
  EXPECT_EQ(e.pods_lsr, 1);
  EXPECT_FALSE(e.open);
  EXPECT_EQ(detector.hosts_hot(), 0);
}

TEST(HotspotLogTest, GoldenHeaderAndEventRender) {
  EXPECT_EQ(HotspotLog::RenderHeader(),
            "{\"schema\":\"optum.hotspot.v1\",\"clock\":\"ticks\"}");
  HotspotEvent e;
  e.host = 7;
  e.onset_tick = 40;
  e.clear_tick = 55;
  e.peak_pressure = 0.9375;
  e.peak_tick = 44;
  e.pods_be = 3;
  e.pods_ls = 12;
  e.pods_lsr = 2;
  EXPECT_EQ(HotspotLog::Render(e),
            "{\"host\":7,\"onset\":40,\"clear\":55,\"duration\":15,"
            "\"peak_pressure\":0.9375,\"peak_tick\":44,\"pods_be\":3,"
            "\"pods_ls\":12,\"pods_lsr\":2}");
  e.open = true;
  EXPECT_EQ(HotspotLog::Render(e),
            "{\"host\":7,\"onset\":40,\"clear\":55,\"duration\":15,"
            "\"peak_pressure\":0.9375,\"peak_tick\":44,\"pods_be\":3,"
            "\"pods_ls\":12,\"pods_lsr\":2,\"open\":true}");
}

TEST(HotspotLogTest, FileCarriesHeaderThenOneLinePerEpisode) {
  const std::string path = ::testing::TempDir() + "/hotspots_roundtrip.jsonl";
  HotspotEvent e;
  e.host = 1;
  e.onset_tick = 2;
  e.clear_tick = 6;
  e.peak_pressure = 0.5;
  e.peak_tick = 3;
  {
    HotspotLog log(path);
    ASSERT_TRUE(log.ok());
    log.Append(e);
    log.Append(e);
    EXPECT_EQ(log.events_written(), 2);
  }
  const std::string contents = ReadFileOrDie(path);
  std::remove(path.c_str());
  const std::string line = HotspotLog::Render(e) + "\n";
  EXPECT_EQ(contents, HotspotLog::RenderHeader() + "\n" + line + line);
}

// --- SLO accounting ---------------------------------------------------------

TEST(SloAccumulatorTest, TickConservationPerClass) {
  SloAccumulator slo;
  // Deterministic pseudo-random observation mix.
  uint64_t x = 12345;
  int64_t expect_observed[kNumSloClasses] = {};
  int64_t expect_violation[kNumSloClasses] = {};
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const SloClass slo_class = static_cast<SloClass>((x >> 33) % 3);
    const int64_t ticks = static_cast<int64_t>((x >> 20) % 7);
    const bool violated = (x >> 50) % 4 == 0;
    slo.Observe(slo_class, ticks, violated);
    expect_observed[static_cast<size_t>(slo_class)] += ticks;
    if (violated) {
      expect_violation[static_cast<size_t>(slo_class)] += ticks;
    }
  }
  int64_t total = 0;
  for (const SloClass c : {SloClass::kBe, SloClass::kLs, SloClass::kLsr}) {
    const size_t i = static_cast<size_t>(c);
    EXPECT_EQ(slo.observed_ticks(c), expect_observed[i]);
    EXPECT_EQ(slo.violation_ticks(c), expect_violation[i]);
    // Conservation: compliant + violation == observed, per class.
    EXPECT_EQ(slo.compliant_ticks(c) + slo.violation_ticks(c),
              slo.observed_ticks(c));
    total += expect_observed[i];
  }
  EXPECT_EQ(slo.total_observed_ticks(), total);
}

TEST(SloAccumulatorTest, MergeIsOrderInvariant) {
  // Three shards with distinct tallies: every merge order must agree, both
  // structurally and byte-for-byte through RenderJson.
  SloAccumulator a, b, c;
  a.Observe(SloClass::kBe, 10, true);
  a.Observe(SloClass::kLs, 7, false);
  b.Observe(SloClass::kLs, 3, true);
  b.Observe(SloClass::kLsr, 20, false);
  c.Observe(SloClass::kBe, 1, false);
  c.Observe(SloClass::kLsr, 2, true);

  SloAccumulator abc = a;
  abc.Merge(b);
  abc.Merge(c);
  SloAccumulator cba = c;
  cba.Merge(b);
  cba.Merge(a);
  SloAccumulator bca = b;
  bca.Merge(c);
  bca.Merge(a);
  EXPECT_TRUE(abc == cba);
  EXPECT_TRUE(abc == bca);
  EXPECT_EQ(abc.RenderJson(30.0), cba.RenderJson(30.0));
  EXPECT_EQ(abc.RenderJson(30.0), bca.RenderJson(30.0));
  EXPECT_EQ(abc.total_observed_ticks(), 43);
  EXPECT_EQ(abc.total_violation_ticks(), 15);
}

TEST(SloAccumulatorTest, GoldenRenderJson) {
  SloAccumulator slo;
  slo.Observe(SloClass::kBe, 4, true);
  slo.Observe(SloClass::kBe, 6, false);
  slo.Observe(SloClass::kLs, 5, false);
  EXPECT_EQ(slo.RenderJson(2.0),
            "{\"schema\":\"optum.slo.v1\",\"seconds_per_tick\":2,\"classes\":["
            "{\"class\":\"BE\",\"observed_ticks\":10,\"violation_ticks\":4,"
            "\"observed_seconds\":20,\"violation_seconds\":8},"
            "{\"class\":\"LS\",\"observed_ticks\":5,\"violation_ticks\":0,"
            "\"observed_seconds\":10,\"violation_seconds\":0},"
            "{\"class\":\"LSR\",\"observed_ticks\":0,\"violation_ticks\":0,"
            "\"observed_seconds\":0,\"violation_seconds\":0}]}");
  // Classes beyond BE/LS/LSR appear only once observed.
  slo.Observe(SloClass::kSystem, 3, true);
  EXPECT_NE(slo.RenderJson(2.0).find("\"class\":\"SYSTEM\""), std::string::npos);
}

// --- Monitor: sharded accounting behind the per-tick API --------------------

TEST(HostPressureMonitorTest, MergedSloInvariantAcrossShardCounts) {
  // The same observation stream accounted under 1, 2, and 5 SLO shards must
  // merge to the same totals (shard of a host is id % num_slo_shards).
  std::vector<SloAccumulator> merged;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{5}}) {
    HostPressureMonitor::Options options;
    options.pressure.ewma_alpha = 1.0;  // no smoothing: direct control
    options.pressure.interference_weight = 0.0;
    options.num_slo_shards = shards;
    HostPressureMonitor monitor(/*num_hosts=*/10, options);
    for (Tick t = 0; t < 20; ++t) {
      monitor.BeginTick(t);
      for (HostId h = 0; h < 10; ++h) {
        HostPressureInput in;
        // Hosts 7..9 run violated (cpu 0.9 >= slo_threshold 0.8).
        in.cpu_util = h >= 7 ? 0.9 : 0.3;
        in.pods_be = 1;
        in.pods_ls = 2;
        in.pods_lsr = h % 2;
        monitor.ObserveHost(h, in);
      }
      monitor.EndTick();
    }
    monitor.Finalize();
    EXPECT_EQ(monitor.num_slo_shards(), shards);
    merged.push_back(monitor.MergedSlo());
  }
  EXPECT_TRUE(merged[0] == merged[1]);
  EXPECT_TRUE(merged[0] == merged[2]);
  // 3 violated hosts × 20 ticks × 2 LS pods.
  EXPECT_EQ(merged[0].violation_ticks(SloClass::kLs), 3 * 20 * 2);
  // All hosts observed: 10 × 20 × 2 LS pod-ticks.
  EXPECT_EQ(merged[0].observed_ticks(SloClass::kLs), 10 * 20 * 2);
}

// --- Burst overlay ----------------------------------------------------------

Workload SmallWorkload() {
  WorkloadConfig config;
  config.num_hosts = 16;
  config.horizon = kTicksPerHour;
  config.seed = 5;
  return WorkloadGenerator(config).Generate();
}

TEST(ArrivalBurstTest, DisabledByDefaultAndPureFunctionOfRound) {
  const Workload workload = SmallWorkload();
  serve::ArrivalConfig config;
  config.offered_pods_per_sec = 50.0;
  serve::ArrivalDriver plain(workload, config);
  EXPECT_FALSE(config.burst_enabled());
  for (int64_t round = 0; round < 50; ++round) {
    EXPECT_FALSE(plain.InBurst(round));
    EXPECT_DOUBLE_EQ(plain.RoundRate(round), 50.0);
  }

  config.burst_amplitude = 6.0;
  config.burst_duration_rounds = 4;
  config.burst_interval_rounds = 20;
  serve::ArrivalDriver stormy(workload, config);
  ASSERT_TRUE(config.burst_enabled());
  // Every window holds exactly one storm of exactly duration rounds, and
  // the rate inside it is amplitude × base.
  for (int64_t window = 0; window < 5; ++window) {
    int64_t in_burst = 0;
    for (int64_t r = window * 20; r < (window + 1) * 20; ++r) {
      if (stormy.InBurst(r)) {
        ++in_burst;
        EXPECT_DOUBLE_EQ(stormy.RoundRate(r), 6.0 * 50.0);
      } else {
        EXPECT_DOUBLE_EQ(stormy.RoundRate(r), 50.0);
      }
    }
    EXPECT_EQ(in_burst, 4) << "window " << window;
  }
  // Pure function of (config, round): a second driver agrees round by round.
  serve::ArrivalDriver replay(workload, config);
  for (int64_t round = 0; round < 100; ++round) {
    EXPECT_EQ(stormy.InBurst(round), replay.InBurst(round)) << round;
  }
}

TEST(ArrivalBurstTest, EqualConfigsReplayIdenticalStreams) {
  const Workload workload = SmallWorkload();
  serve::ArrivalConfig config;
  config.offered_pods_per_sec = 30.0;
  config.burst_amplitude = 5.0;
  config.burst_duration_rounds = 3;
  config.burst_interval_rounds = 12;
  serve::ArrivalDriver a(workload, config);
  serve::ArrivalDriver b(workload, config);
  std::vector<PodSpec> out_a, out_b;
  for (int64_t round = 0; round < 36; ++round) {
    out_a.clear();
    out_b.clear();
    a.EmitRound(round, &out_a);
    b.EmitRound(round, &out_b);
    ASSERT_EQ(out_a.size(), out_b.size()) << round;
    for (size_t i = 0; i < out_a.size(); ++i) {
      EXPECT_EQ(out_a[i].id, out_b[i].id);
      EXPECT_EQ(out_a[i].app, out_b[i].app);
    }
  }
  EXPECT_GT(a.pods_emitted(), 0);
}

// --- Serve-layer integration ------------------------------------------------

struct ServeWorld {
  Workload workload;
  core::OptumProfiles profiles;
};

const ServeWorld& World() {
  static const ServeWorld* world = [] {
    auto* w = new ServeWorld;
    WorkloadConfig config;
    config.num_hosts = 64;
    config.horizon = 3 * kTicksPerHour;
    config.seed = 23;
    w->workload = WorkloadGenerator(config).Generate();
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

struct StormRun {
  std::string hotspot_bytes;
  std::string slo_json;
  int64_t episodes = 0;
  int64_t placed = 0;
};

// One stormy overloaded run against a small cluster: arrivals outpace the
// service during the bursts, request utilization saturates, and hotspot
// episodes appear. Neither pipelining nor threaded ingest may leak into any
// exported byte.
StormRun RunStorm(size_t pipeline_depth, size_t ingest_threads) {
  const ServeWorld& world = World();
  serve::ServeConfig config;
  config.arrival.offered_pods_per_sec = 150.0;
  config.arrival.seed = 11;
  config.arrival.burst_amplitude = 8.0;
  config.arrival.burst_duration_rounds = 6;
  config.arrival.burst_interval_rounds = 15;
  config.distributed.num_schedulers = 2;
  config.pipeline_depth = pipeline_depth;
  config.ingest_threads = ingest_threads;
  config.queue_capacity_per_shard = 4096;
  config.max_schedule_per_round = 256;
  config.mean_residency_rounds = 0.0;  // pods stay: pressure builds
  ClusterState cluster(40, kUnitResources, /*history_window=*/64);
  serve::PlacementService service(world.workload, world.profiles, &cluster,
                                  config);

  HostPressureMonitor::Options options;
  options.pressure.ewma_alpha = 0.5;
  options.num_slo_shards = config.distributed.num_schedulers;
  options.seconds_per_tick = config.arrival.round_seconds;
  HostPressureMonitor monitor(40, options);
  const std::string path = ::testing::TempDir() + "/storm_hotspots_" +
                           std::to_string(pipeline_depth) + "_" +
                           std::to_string(ingest_threads) + ".jsonl";
  StormRun run;
  {
    HotspotLog log(path);
    EXPECT_TRUE(log.ok());
    obs::Sinks sinks;
    sinks.hotspot_log = &log;
    monitor.AttachSinks(sinks, "serve");
    service.set_pressure_monitor(&monitor);
    service.RunRounds(40);
    service.Drain();
    monitor.Finalize();
  }
  run.hotspot_bytes = ReadFileOrDie(path);
  std::remove(path.c_str());
  run.slo_json = monitor.MergedSlo().RenderJson(monitor.seconds_per_tick());
  run.episodes = monitor.detector().events_emitted();
  run.placed = service.counters().placed;
  return run;
}

// Goldens for RunStorm, recorded from the task-queue coordinator with
// intra-shard scoring threads 0, 1, 2 and 8 (all four agreed). The hotspot
// stream is pinned by size and FNV-1a digest.
constexpr size_t kGoldenHotspotSize = 5731;
constexpr uint64_t kGoldenHotspotDigest = 5970851562297582022ULL;
constexpr char kGoldenStormSlo[] =
    R"({"schema":"optum.slo.v1","seconds_per_tick":1,"classes":[)"
    R"({"class":"BE","observed_ticks":374002,"violation_ticks":363699,)"
    R"("observed_seconds":374002,"violation_seconds":363699},)"
    R"({"class":"LS","observed_ticks":194102,"violation_ticks":186911,)"
    R"("observed_seconds":194102,"violation_seconds":186911},)"
    R"({"class":"LSR","observed_ticks":56653,"violation_ticks":54596,)"
    R"("observed_seconds":56653,"violation_seconds":54596}]})";
constexpr int64_t kGoldenEpisodes = 38;
constexpr int64_t kGoldenPlaced = 2128;

TEST(ServePressureTest, StormExportsMatchGoldensAcrossPipelineMatrix) {
  StormRun last;
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t ingest : {size_t{0}, size_t{1}}) {
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " ingest=" + std::to_string(ingest));
      last = RunStorm(depth, ingest);
      EXPECT_EQ(last.hotspot_bytes.size(), kGoldenHotspotSize);
      EXPECT_EQ(testing_golden::Fnv1a64(last.hotspot_bytes), kGoldenHotspotDigest);
      EXPECT_EQ(last.slo_json, kGoldenStormSlo);
      EXPECT_EQ(last.episodes, kGoldenEpisodes);
      EXPECT_EQ(last.placed, kGoldenPlaced);
    }
  }
  // Same-process repeat: a second identical storm exports the same bytes.
  const StormRun again = RunStorm(3, 1);
  EXPECT_EQ(again.hotspot_bytes, last.hotspot_bytes);
  EXPECT_EQ(again.slo_json, last.slo_json);
  EXPECT_EQ(again.episodes, last.episodes);
}

// --- Simulator-layer storm acceptance --------------------------------------

// Runs one simulator pass with the pressure monitor riding the tick loop
// (the runsim wiring) and returns the monitor for inspection.
struct SimPressureRun {
  int64_t episodes = 0;
  int64_t violation_ticks = 0;
  int64_t observed_ticks = 0;
  double max_pressure = 0.0;
};

SimPressureRun RunSimWithMonitor(const Workload& workload) {
  SimConfig sim_config;
  sim_config.pod_usage_period = 5;
  HostPressureMonitor monitor(
      static_cast<size_t>(workload.config.num_hosts),
      HostPressureMonitor::Options{});
  sim_config.pressure = &monitor;
  AlibabaBaseline policy;
  Simulator(workload, sim_config, policy).Run();
  SimPressureRun run;
  run.episodes = monitor.detector().events_emitted();
  const SloAccumulator slo = monitor.MergedSlo();
  run.violation_ticks = slo.total_violation_ticks();
  run.observed_ticks = slo.total_observed_ticks();
  run.max_pressure = monitor.last_max_pressure();
  return run;
}

TEST(SimStormTest, OverlayCreatesHotspotsWhileCalmStaysSilent) {
  // The acceptance scenario in miniature: identical workload generation,
  // one copy with the anomaly-storm overlay injected. Storm pods carry
  // inflated CPU-demand behaviors (requests untouched), so the admission
  // gate lets them through and colocated hosts' demand — the sim-side
  // pressure basis — spikes past the detector onset. Calm demand plateaus
  // in the high-0.8s at worst, under the 0.95 default onset.
  WorkloadConfig config;
  config.num_hosts = 64;
  config.horizon = 2 * kTicksPerHour;
  config.seed = 31;
  const Workload calm = WorkloadGenerator(config).Generate();
  Workload stormy = WorkloadGenerator(config).Generate();

  serve::ArrivalConfig burst;
  burst.offered_pods_per_sec = 0.5;  // ~15 extra pods/tick while storming
  burst.round_seconds = kSecondsPerTick;
  burst.seed = 7;
  burst.burst_amplitude = 6.0;
  burst.burst_duration_rounds = 10;
  burst.burst_interval_rounds = 60;
  const int64_t added =
      serve::AppendStormOverlay(burst, config.horizon, /*cpu_scale=*/4.0,
                                &stormy);
  ASSERT_GT(added, 0);
  ASSERT_EQ(stormy.pods.size(), calm.pods.size() + static_cast<size_t>(added));

  // The overlay must preserve the simulator's workload invariants: dense
  // pod ids (wait bookkeeping indexes by id) and submit_tick order.
  std::vector<bool> seen(stormy.pods.size(), false);
  for (size_t i = 0; i < stormy.pods.size(); ++i) {
    const PodSpec& pod = stormy.pods[i];
    ASSERT_GE(pod.id, 0);
    ASSERT_LT(static_cast<size_t>(pod.id), stormy.pods.size());
    ASSERT_FALSE(seen[static_cast<size_t>(pod.id)]);
    seen[static_cast<size_t>(pod.id)] = true;
    if (i > 0) {
      ASSERT_LE(stormy.pods[i - 1].submit_tick, pod.submit_tick);
    }
  }

  // Equal configs inject identical overlays (determinism of the storm).
  Workload stormy_again = WorkloadGenerator(config).Generate();
  serve::AppendStormOverlay(burst, config.horizon, /*cpu_scale=*/4.0,
                            &stormy_again);
  ASSERT_EQ(stormy_again.pods.size(), stormy.pods.size());
  for (size_t i = 0; i < stormy.pods.size(); ++i) {
    EXPECT_EQ(stormy_again.pods[i].id, stormy.pods[i].id);
    EXPECT_EQ(stormy_again.pods[i].submit_tick, stormy.pods[i].submit_tick);
    EXPECT_EQ(stormy_again.pods[i].behavior.cpu_scale,
              stormy.pods[i].behavior.cpu_scale);
  }

  const SimPressureRun calm_run = RunSimWithMonitor(calm);
  EXPECT_EQ(calm_run.episodes, 0);
  EXPECT_LT(calm_run.max_pressure, 0.95);
  EXPECT_GT(calm_run.observed_ticks, 0);

  const SimPressureRun storm_run = RunSimWithMonitor(stormy);
  EXPECT_GT(storm_run.episodes, 0);
  EXPECT_GT(storm_run.max_pressure, 0.95);
  EXPECT_GT(storm_run.violation_ticks, calm_run.violation_ticks);
}

TEST(ServePressureTest, CalmRunEmitsNoEpisodes) {
  // Storms off, light load on an ample cluster: the detector stays armed but
  // silent, and no SLO-violation time accrues.
  const ServeWorld& world = World();
  serve::ServeConfig config;
  config.arrival.offered_pods_per_sec = 20.0;
  config.distributed.num_schedulers = 2;
  config.max_schedule_per_round = 512;
  config.mean_residency_rounds = 10.0;
  ClusterState cluster(200, kUnitResources, /*history_window=*/64);
  serve::PlacementService service(world.workload, world.profiles, &cluster,
                                  config);
  HostPressureMonitor::Options options;
  options.num_slo_shards = 2;
  HostPressureMonitor monitor(200, options);
  service.set_pressure_monitor(&monitor);
  service.RunRounds(30);
  service.Drain();
  monitor.Finalize();
  EXPECT_GT(service.counters().placed, 0);
  EXPECT_EQ(monitor.detector().events_emitted(), 0);
  const SloAccumulator slo = monitor.MergedSlo();
  EXPECT_GT(slo.total_observed_ticks(), 0);
  EXPECT_EQ(slo.total_violation_ticks(), 0);
  EXPECT_LT(monitor.last_max_pressure(), 0.85);
}

}  // namespace
}  // namespace optum
