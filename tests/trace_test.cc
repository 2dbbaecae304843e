// Tests for src/trace: application models, the calibrated workload
// generator, and CSV trace I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/trace/app_model.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload_generator.h"
#include "tests/sim_test_util.h"

namespace optum {
namespace {

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.num_hosts = 24;
  config.horizon = kTicksPerDay / 4;
  config.seed = 7;
  return config;
}

TEST(AppModelTest, PodBehaviorUnitMeanScales) {
  AppProfile app;
  app.slo = SloClass::kBe;
  app.cpu_pod_cov = 0.3;
  app.work_mean_ticks = 50;
  app.work_cov = 0.2;
  Rng rng(1);
  OnlineStats cpu_scales, works;
  for (int i = 0; i < 5000; ++i) {
    const PodBehavior b = SamplePodBehavior(app, rng);
    cpu_scales.Add(b.cpu_scale);
    works.Add(b.work_ticks);
  }
  EXPECT_NEAR(cpu_scales.mean(), 1.0, 0.05);
  EXPECT_NEAR(cpu_scales.stddev(), 0.3, 0.05);
  EXPECT_NEAR(works.mean(), 50.0, 2.0);
}

TEST(AppModelTest, CpuDemandRespectsCeiling) {
  AppProfile app;
  app.slo = SloClass::kLs;
  app.request = {0.1, 0.05};
  app.cpu_usage_fraction = 0.3;
  app.cpu_usage_ceiling = 0.5;
  Rng rng(2);
  PodBehavior b = SamplePodBehavior(app, rng);
  b.cpu_scale = 10.0;  // extreme pod: ceiling must clamp
  Rng noise(3);
  for (Tick t = 0; t < 200; ++t) {
    EXPECT_LE(PodCpuDemand(app, b, app.qps_pattern.At(t), noise), 0.5 * 0.1 + 1e-12);
  }
}

TEST(AppModelTest, LsCpuFollowsDiurnalQps) {
  AppProfile app;
  app.slo = SloClass::kLs;
  app.request = {0.1, 0.05};
  app.cpu_usage_fraction = 0.3;
  app.cpu_usage_ceiling = 1.0;
  app.qps_base = 100;
  app.qps_pattern = DiurnalPattern(0.2, 0.0);
  Rng rng(4);
  const PodBehavior b = SamplePodBehavior(app, rng);
  // Average demand at the peak vs the trough.
  auto mean_demand = [&](Tick t) {
    Rng noise(5);
    double acc = 0;
    for (int i = 0; i < 500; ++i) {
      acc += PodCpuDemand(app, b, app.qps_pattern.At(t), noise);
    }
    return acc / 500;
  };
  EXPECT_GT(mean_demand(0), 2.0 * mean_demand(kTicksPerDay / 2));
}

TEST(AppModelTest, MemoryIsStable) {
  AppProfile app;
  app.slo = SloClass::kBe;
  app.request = {0.05, 0.04};
  app.mem_usage_fraction = 0.9;
  Rng rng(6);
  const PodBehavior b = SamplePodBehavior(app, rng);
  Rng noise(7);
  std::vector<double> series;
  for (Tick t = 0; t < 500; ++t) {
    series.push_back(PodMemDemand(app, b, app.qps_pattern.At(t), noise));
  }
  EXPECT_LT(CoefficientOfVariation(series), 0.02);
}

TEST(AppModelTest, QpsZeroForBatch) {
  AppProfile app;
  app.slo = SloClass::kBe;
  Rng rng(8);
  const PodBehavior b = SamplePodBehavior(app, rng);
  Rng noise(9);
  EXPECT_DOUBLE_EQ(PodQps(app, b, app.qps_pattern.At(100), noise), 0.0);
}

// The simulator draws every pod's demand from one per-app pattern value
// per tick (QpsPatternValues); it must equal DiurnalPattern::At bit for
// bit at every tick of a day and across the day boundary, whatever each
// app's phase shift.
TEST(AppModelTest, PerTickPatternValuesMatchDiurnalPatternBitForBit) {
  std::vector<AppProfile> apps = WorkloadGenerator(SmallConfig()).Generate().apps;
  for (const double phase : {0.0, 0.25, -0.15, 0.5, 0.999}) {
    AppProfile app;
    app.qps_pattern = DiurnalPattern(0.3, phase);
    apps.push_back(app);
  }
  std::vector<double> values;
  for (Tick t = 0; t <= kTicksPerDay + 2; ++t) {
    QpsPatternValues(apps, t, values);
    ASSERT_EQ(values.size(), apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(values[i]),
                std::bit_cast<uint64_t>(apps[i].qps_pattern.At(t)))
          << "app " << i << " tick " << t;
    }
  }
  // The shifts are real: apps do not all peak together.
  QpsPatternValues(apps, 0, values);
  EXPECT_NE(*std::min_element(values.begin(), values.end()),
            *std::max_element(values.begin(), values.end()));
}

TEST(WorkloadGeneratorTest, PodsSortedBySubmitTick) {
  const Workload w = WorkloadGenerator(SmallConfig()).Generate();
  for (size_t i = 1; i < w.pods.size(); ++i) {
    EXPECT_LE(w.pods[i - 1].submit_tick, w.pods[i].submit_tick);
  }
}

TEST(WorkloadGeneratorTest, PodIdsDenseAndAppIdsValid) {
  const Workload w = WorkloadGenerator(SmallConfig()).Generate();
  std::vector<bool> seen(w.pods.size(), false);
  for (const PodSpec& pod : w.pods) {
    ASSERT_GE(pod.id, 0);
    ASSERT_LT(static_cast<size_t>(pod.id), w.pods.size());
    EXPECT_FALSE(seen[static_cast<size_t>(pod.id)]);
    seen[static_cast<size_t>(pod.id)] = true;
    ASSERT_GE(pod.app, 0);
    ASSERT_LT(static_cast<size_t>(pod.app), w.apps.size());
    EXPECT_EQ(AppOf(w, pod.app).id, pod.app);
    EXPECT_EQ(AppOf(w, pod.app).slo, pod.slo);
  }
}

TEST(WorkloadGeneratorTest, DeterministicForSeed) {
  const Workload a = WorkloadGenerator(SmallConfig()).Generate();
  const Workload b = WorkloadGenerator(SmallConfig()).Generate();
  ASSERT_EQ(a.pods.size(), b.pods.size());
  for (size_t i = 0; i < a.pods.size(); i += 97) {
    EXPECT_EQ(a.pods[i].app, b.pods[i].app);
    EXPECT_EQ(a.pods[i].submit_tick, b.pods[i].submit_tick);
    EXPECT_DOUBLE_EQ(a.pods[i].behavior.cpu_scale, b.pods[i].behavior.cpu_scale);
  }
}

TEST(WorkloadGeneratorTest, SloMixMatchesFig2b) {
  // BE+LS+LSR should dominate (~70% in Fig. 2b) and BE pods far outnumber
  // LS pods (Fig. 3a).
  WorkloadConfig config = SmallConfig();
  config.horizon = kTicksPerDay;
  const Workload w = WorkloadGenerator(config).Generate();
  std::map<SloClass, int> counts;
  for (const PodSpec& pod : w.pods) {
    ++counts[pod.slo];
  }
  const double total = static_cast<double>(w.pods.size());
  const double explicit_slo =
      counts[SloClass::kBe] + counts[SloClass::kLs] + counts[SloClass::kLsr];
  EXPECT_GT(explicit_slo / total, 0.6);
  EXPECT_GT(counts[SloClass::kBe], 3 * (counts[SloClass::kLs] + counts[SloClass::kLsr]));
  EXPECT_GT(counts[SloClass::kUnknown], 0);
}

TEST(WorkloadGeneratorTest, RequestsExceedTypicalUsage) {
  // Fig. 6: requests are a multiple of actual usage.
  const Workload w = WorkloadGenerator(SmallConfig()).Generate();
  for (const AppProfile& app : w.apps) {
    EXPECT_LE(app.cpu_usage_fraction, 0.75) << "app " << app.id;
    EXPECT_GE(app.request.cpu, 0.0);
    EXPECT_GE(app.limit.cpu, app.request.cpu);
    EXPECT_GE(app.limit.mem, app.request.mem * 0.999);
  }
}

TEST(WorkloadGeneratorTest, LsSubmissionRateNearConstantBeBursty) {
  WorkloadConfig config = SmallConfig();
  config.num_hosts = 48;
  config.horizon = kTicksPerDay;
  const Workload w = WorkloadGenerator(config).Generate();
  // Per-10-minute bins, skipping the t=0 initial fleet.
  const Tick bin = 20;
  std::map<Tick, int> ls_bins, be_bins;
  for (const PodSpec& pod : w.pods) {
    if (pod.submit_tick == 0) {
      continue;
    }
    if (IsLatencySensitive(pod.slo)) {
      ++ls_bins[pod.submit_tick / bin];
    } else if (pod.slo == SloClass::kBe) {
      ++be_bins[pod.submit_tick / bin];
    }
  }
  std::vector<double> ls_counts, be_counts;
  for (Tick b = 0; b < config.horizon / bin; ++b) {
    ls_counts.push_back(ls_bins.count(b) ? ls_bins[b] : 0);
    be_counts.push_back(be_bins.count(b) ? be_bins[b] : 0);
  }
  EXPECT_GT(Mean(be_counts), 10 * Mean(ls_counts));
  // BE is burstier than LS in relative terms.
  EXPECT_GT(Max(be_counts) / std::max(1.0, Mean(be_counts)), 1.5);
}

TEST(WorkloadGeneratorTest, AffinityLimitsSet) {
  const Workload w = WorkloadGenerator(SmallConfig()).Generate();
  int limited = 0;
  for (const AppProfile& app : w.apps) {
    if (IsLatencySensitive(app.slo)) {
      EXPECT_GE(app.max_pods_per_host, 2);
      EXPECT_LE(app.max_pods_per_host, 4);
      ++limited;
    }
    if (app.slo == SloClass::kSystem || app.slo == SloClass::kVmEnv) {
      EXPECT_EQ(app.max_pods_per_host, 1);  // daemon-like
    }
  }
  EXPECT_GT(limited, 0);
}

TEST(WorkloadGeneratorTest, ScalesWithClusterSize) {
  WorkloadConfig small = SmallConfig();
  WorkloadConfig big = SmallConfig();
  big.num_hosts = 96;
  const size_t n_small = WorkloadGenerator(small).Generate().pods.size();
  const size_t n_big = WorkloadGenerator(big).Generate().pods.size();
  EXPECT_GT(n_big, 2 * n_small);
}

// One record per table, as the CSV round-trip and the reader's rejection
// tests write it.
TraceBundle SampleBundle() {
  TraceBundle bundle;
  bundle.nodes.push_back(NodeMeta{3, {1.0, 1.0}});
  PodMeta pod;
  pod.pod_id = 42;
  pod.app_id = 7;
  pod.slo = SloClass::kLs;
  pod.request = {0.25, 0.125};
  pod.limit = {0.5, 0.25};
  pod.submit_tick = 100;
  pod.original_machine_id = 3;
  bundle.pods.push_back(pod);
  bundle.node_usage.push_back(NodeUsageRecord{3, 100, 0.5, 0.25, 0.1, 0.05});
  PodUsageRecord usage;
  usage.pod_id = 42;
  usage.host = 3;
  usage.collect_tick = 100;
  usage.cpu_usage = 0.2;
  usage.mem_usage = 0.1;
  usage.cpu_psi_60 = 0.15;
  usage.qps = 120;
  usage.response_time = 9.5;
  bundle.pod_usage.push_back(usage);
  PodLifecycleRecord life;
  life.pod_id = 42;
  life.app_id = 7;
  life.slo = SloClass::kLs;
  life.submit_tick = 100;
  life.schedule_tick = 102;
  life.finish_tick = -1;
  life.host = 3;
  life.waiting_seconds = 60;
  life.max_cpu_psi = 0.3;
  bundle.lifecycles.push_back(life);

  return bundle;
}

TEST(TraceIoTest, RoundTripPreservesRecords) {
  const TraceBundle bundle = SampleBundle();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "optum_trace_io_test").string();
  ASSERT_TRUE(WriteTraceBundle(bundle, dir));
  TraceBundle loaded;
  ASSERT_TRUE(ReadTraceBundle(dir, &loaded));

  ASSERT_EQ(loaded.nodes.size(), 1u);
  EXPECT_EQ(loaded.nodes[0].machine_id, 3);
  ASSERT_EQ(loaded.pods.size(), 1u);
  EXPECT_EQ(loaded.pods[0].pod_id, 42);
  EXPECT_EQ(loaded.pods[0].slo, SloClass::kLs);
  EXPECT_DOUBLE_EQ(loaded.pods[0].request.cpu, 0.25);
  ASSERT_EQ(loaded.node_usage.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.node_usage[0].cpu_usage, 0.5);
  ASSERT_EQ(loaded.pod_usage.size(), 1u);
  EXPECT_EQ(loaded.pod_usage[0].host, 3);
  EXPECT_NEAR(loaded.pod_usage[0].cpu_psi_60, 0.15, 1e-6);
  EXPECT_NEAR(loaded.pod_usage[0].response_time, 9.5, 1e-6);
  ASSERT_EQ(loaded.lifecycles.size(), 1u);
  EXPECT_EQ(loaded.lifecycles[0].finish_tick, -1);
  EXPECT_NEAR(loaded.lifecycles[0].waiting_seconds, 60, 1e-6);
  std::filesystem::remove_all(dir);
}

TEST(TraceIoTest, WidestPodUsageRowFitsTheReaderLine) {
  // Every field at its widest %.17g or integer rendering that the reader
  // accepts (a host id is non-negative): the row still fits the reader's
  // 512-byte line buffer and reads back exactly.
  constexpr double kWidest = -2.2250738585072014e-308;  // 24 characters
  TraceBundle bundle;
  PodUsageRecord r;
  r.pod_id = std::numeric_limits<PodId>::min();
  r.host = std::numeric_limits<HostId>::max();
  r.collect_tick = std::numeric_limits<Tick>::min();
  for (double* v : {&r.cpu_usage, &r.mem_usage, &r.disk_usage, &r.cpu_psi_10, &r.cpu_psi_60,
                    &r.cpu_psi_300, &r.mem_psi_some_60, &r.mem_psi_full_60, &r.qps,
                    &r.response_time}) {
    *v = kWidest;
  }
  bundle.pod_usage.push_back(r);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "optum_trace_io_widest").string();
  ASSERT_TRUE(WriteTraceBundle(bundle, dir));
  std::ifstream in(dir + "/pod_usage.csv");
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(row.size(), 20u + 10u + 20u + 10u * 24u + 12u);  // 12 commas
  EXPECT_LT(row.size() + 1, 512u);  // the row and its newline fit
  TraceBundle loaded;
  ASSERT_TRUE(ReadTraceBundle(dir, &loaded));
  ASSERT_EQ(loaded.pod_usage.size(), 1u);
  EXPECT_TRUE(loaded.pod_usage[0] == r);
  std::filesystem::remove_all(dir);
}

TEST(TraceIoTest, MissingDirectoryFails) {
  TraceBundle out;
  EXPECT_FALSE(ReadTraceBundle("/nonexistent/optum/dir", &out));
}

TEST(TraceIoTest, EmptyBundleRoundTrips) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "optum_trace_io_empty").string();
  ASSERT_TRUE(WriteTraceBundle(TraceBundle{}, dir));
  TraceBundle loaded;
  ASSERT_TRUE(ReadTraceBundle(dir, &loaded));
  EXPECT_TRUE(loaded.pods.empty());
  EXPECT_TRUE(loaded.node_usage.empty());
  std::filesystem::remove_all(dir);
}

// Writes SampleBundle() to a fresh directory, appends `row` to `file` and
// returns whether ReadTraceBundle accepts the result.
bool ReadsWithAppendedRow(const std::string& tag, const char* file, const std::string& row) {
  const std::string dir = ::testing::TempDir() + "/optum_trace_io_" + tag;
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(WriteTraceBundle(SampleBundle(), dir));
  FILE* f = std::fopen((dir + "/" + file).c_str(), "a");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) {
    return true;
  }
  std::fputs(row.c_str(), f);
  std::fclose(f);
  TraceBundle loaded;
  const bool ok = ReadTraceBundle(dir, &loaded);
  std::filesystem::remove_all(dir);
  return ok;
}

// A line longer than the reader's buffer. Its first 511 bytes and its tail
// each parse as a valid 6-field row, so reading it in pieces would turn one
// malformed line into two records.
TEST(TraceIoTest, RejectsLineLongerThanBuffer) {
  EXPECT_TRUE(ReadsWithAppendedRow("long_control", "node_usage.csv", "3,101,0.5,0.25,0.1,0.2\n"));
  std::string head = "3,101,0.5,0.25,0.1,0.2";
  head.resize(511, '0');
  EXPECT_FALSE(ReadsWithAppendedRow("long", "node_usage.csv",
                                    head + "4,102,0.5,0.25,0.1,0.2\n"));
}

TEST(TraceIoTest, RejectsNonFiniteField) {
  EXPECT_TRUE(ReadsWithAppendedRow("finite_control", "pod_usage.csv",
                                   "42,3,105,0.2,0.1,0,0,0.15,0,0,0,120,9.5\n"));
  for (const char* bad : {"nan", "inf", "-inf", "infinity"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ReadsWithAppendedRow("nonfinite", "pod_usage.csv",
                                      "42,3,105,0.2,0.1,0,0," + std::string(bad) +
                                          ",0,0,0,120,9.5\n"));
  }
}

TEST(TraceIoTest, RejectsSloOutsideEnum) {
  EXPECT_TRUE(ReadsWithAppendedRow("slo_control", "pods.csv",
                                   "43,7,5,0.25,0.125,0.5,0.25,100,3\n"));
  for (const char* slo : {"-1", "6", "255", "1.5"}) {
    SCOPED_TRACE(slo);
    EXPECT_FALSE(ReadsWithAppendedRow("slo_pods", "pods.csv",
                                      "43,7," + std::string(slo) +
                                          ",0.25,0.125,0.5,0.25,100,3\n"));
    EXPECT_FALSE(ReadsWithAppendedRow("slo_lifecycles", "lifecycles.csv",
                                      "43,7," + std::string(slo) +
                                          ",100,102,-1,3,60,0,0,0.3\n"));
  }
}

// Every id and tick column must hold an integer that fits its type: a
// float-to-int cast of 1e12 into a HostId is undefined behaviour (it read
// back as host -2147483648), and 2.5 would silently truncate.
TEST(TraceIoTest, RejectsIdOrTickOutsideItsType) {
  EXPECT_TRUE(ReadsWithAppendedRow("int_control", "pods.csv",
                                   "43,7,5,0.25,0.125,0.5,0.25,100,-1\n"));
  for (const char* host : {"1e12", "-3e9", "2147483648", "2.5"}) {
    SCOPED_TRACE(host);
    EXPECT_FALSE(ReadsWithAppendedRow("int_pods", "pods.csv",
                                      "43,7,5,0.25,0.125,0.5,0.25,100," +
                                          std::string(host) + "\n"));
    EXPECT_FALSE(ReadsWithAppendedRow("int_nodes", "nodes.csv", std::string(host) + ",1,1\n"));
  }
  for (const char* tick : {"1e19", "-1e19", "100.5"}) {
    SCOPED_TRACE(tick);
    EXPECT_FALSE(ReadsWithAppendedRow("int_pod_usage", "pod_usage.csv",
                                      "42,3," + std::string(tick) +
                                          ",0.2,0.1,0,0,0.15,0,0,0,120,9.5\n"));
    EXPECT_FALSE(ReadsWithAppendedRow("int_lifecycles", "lifecycles.csv",
                                      "43,7,5,100,102," + std::string(tick) +
                                          ",3,60,0,0,0.3\n"));
  }
}

// OfflineProfiler::BuildEroTable walks pod_usage tick by tick and buckets
// each tick's rows by host id, so a row whose tick is below the previous
// row's, or whose host is negative, is malformed. SampleBundle's one row is
// at tick 100 on host 3.
TEST(TraceIoTest, RejectsPodUsageTickBelowPreviousRow) {
  EXPECT_TRUE(ReadsWithAppendedRow("order_control", "pod_usage.csv",
                                   "43,0,100,0.2,0.1,0,0,0.15,0,0,0,120,9.5\n"));
  EXPECT_FALSE(ReadsWithAppendedRow("order", "pod_usage.csv",
                                    "43,3,99,0.2,0.1,0,0,0.15,0,0,0,120,9.5\n"));
}

TEST(TraceIoTest, RejectsPodUsageNegativeHost) {
  EXPECT_TRUE(ReadsWithAppendedRow("host_control", "pod_usage.csv",
                                   "43,0,101,0.2,0.1,0,0,0.15,0,0,0,120,9.5\n"));
  for (const char* host : {"-1", "-2147483648"}) {
    SCOPED_TRACE(host);
    EXPECT_FALSE(ReadsWithAppendedRow("host", "pod_usage.csv",
                                      "43," + std::string(host) +
                                          ",101,0.2,0.1,0,0,0.15,0,0,0,120,9.5\n"));
  }
}

// An app_id must lie in [0, kAppIdLimit): a negative id used to reach
// EroTable's slot index and abort the profiler on a CHECK, and 2^20 packed
// into the same triple key as 0. SampleBundle's pod is of app 7.
TEST(TraceIoTest, RejectsAppIdOutsideItsRange) {
  const std::string widest = std::to_string(kAppIdLimit - 1);
  EXPECT_TRUE(ReadsWithAppendedRow("app_control_pods", "pods.csv",
                                   "43," + widest + ",1,0.25,0.125,0.5,0.25,100,3\n"));
  EXPECT_TRUE(ReadsWithAppendedRow("app_control_lifecycles", "lifecycles.csv",
                                   "43," + widest + ",1,100,102,-1,3,60,0,0,0.3\n"));
  for (const std::string& app : {std::string("-1"), std::string("-2147483648"),
                                std::to_string(kAppIdLimit), std::string("2147483647")}) {
    SCOPED_TRACE(app);
    EXPECT_FALSE(ReadsWithAppendedRow("app_pods", "pods.csv",
                                      "43," + app + ",1,0.25,0.125,0.5,0.25,100,3\n"));
    EXPECT_FALSE(ReadsWithAppendedRow("app_lifecycles", "lifecycles.csv",
                                      "43," + app + ",1,100,102,-1,3,60,0,0,0.3\n"));
  }
}

TEST(TraceIoTest, RejectsNodeCapacityNotPositive) {
  EXPECT_TRUE(ReadsWithAppendedRow("capacity_control", "nodes.csv", "4,0.001,2\n"));
  for (const char* capacity : {"0,1", "1,0", "-0.5,1", "1,-2", "-0,1"}) {
    SCOPED_TRACE(capacity);
    EXPECT_FALSE(ReadsWithAppendedRow("capacity", "nodes.csv",
                                      "4," + std::string(capacity) + "\n"));
  }
}

TEST(TraceIoTest, RejectsNegativePodRequestOrLimit) {
  // Zero requests and limits read back: the reader rejects only negatives.
  EXPECT_TRUE(ReadsWithAppendedRow("request_control", "pods.csv",
                                   "43,1,1,0,0,0,0,100,3\n"));
  for (const char* resources :
       {"-0.25,0.125,0.5,0.25", "0.25,-0.125,0.5,0.25", "0.25,0.125,-0.5,0.25",
        "0.25,0.125,0.5,-1e-9"}) {
    SCOPED_TRACE(resources);
    EXPECT_FALSE(ReadsWithAppendedRow("request", "pods.csv",
                                      "43,1,1," + std::string(resources) + ",100,3\n"));
  }
}

TEST(TraceIoTest, RejectsCharactersAfterLastField) {
  EXPECT_TRUE(ReadsWithAppendedRow("tail_control", "node_usage.csv",
                                   "3,101,0.5,0.25,0.1,0.2 \r\n"));
  for (const char* tail : {"junk\n", ",\n", ";\n", " 7\n", "junk"}) {
    SCOPED_TRACE(tail);
    EXPECT_FALSE(ReadsWithAppendedRow("tail", "node_usage.csv",
                                      "3,101,0.5,0.25,0.1,0.2" + std::string(tail)));
  }
}

// pod_usage is a ChunkedRows; a bundle that spans three of its chunks must
// write and read back row for row. Every double is k / 1000 with at most
// six significant digits, so the %.6g columns reproduce it exactly.
TEST(TraceIoTest, RoundTripAcrossPodUsageChunks) {
  TraceBundle bundle = SampleBundle();
  constexpr size_t kRows = 2 * ChunkedRows<PodUsageRecord>::kChunkRows + 123;
  for (size_t i = 0; i < kRows; ++i) {
    const auto milli = [i](size_t salt) {
      return static_cast<double>((i * salt) % 100000) / 1000.0;
    };
    PodUsageRecord r;
    r.pod_id = static_cast<PodId>(i);
    r.host = static_cast<HostId>(i % 1000);
    r.collect_tick = 100 + static_cast<Tick>(i / 7);  // tick-major after SampleBundle's row
    r.cpu_usage = milli(3);
    r.mem_usage = milli(5);
    r.disk_usage = milli(7);
    r.cpu_psi_10 = milli(11);
    r.cpu_psi_60 = milli(13);
    r.cpu_psi_300 = milli(17);
    r.mem_psi_some_60 = milli(19);
    r.mem_psi_full_60 = milli(23);
    r.qps = milli(29);
    r.response_time = milli(31);
    bundle.pod_usage.push_back(r);
  }
  const std::string dir = ::testing::TempDir() + "/optum_trace_io_chunks";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WriteTraceBundle(bundle, dir));
  TraceBundle loaded;
  ASSERT_TRUE(ReadTraceBundle(dir, &loaded));
  std::filesystem::remove_all(dir);
  EXPECT_EQ(loaded.pod_usage.size(), kRows + 1);
  EXPECT_TRUE(testing_sim::RowsEqual("pod_usage", loaded.pod_usage, bundle.pod_usage));
}

}  // namespace
}  // namespace optum
