// Tests for the observability layer (DESIGN.md §9): metric registry
// semantics (lane-sharded counters merged on read, last-write-wins gauges,
// log-scale histogram bucketing) and the pinned export schemas — the
// registry JSON dump and the JSONL decision-log line format — so downstream
// consumers can rely on them.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/decision_log.h"
#include "src/obs/hotspot.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/schema.h"
#include "src/obs/slo.h"
#include "src/obs/span_log.h"
#include "src/obs/timer.h"
#include "src/obs/timeseries.h"
#include "src/serve/latency.h"
#include "src/trace/trace_stats.h"

namespace optum::obs {
namespace {

// ---------------------------------------------------------------- Counter

TEST(CounterTest, MergesAcrossLanes) {
  MetricRegistry registry(/*num_lanes=*/4);
  Counter* c = registry.counter("c");
  c->Inc(0);
  c->Inc(1, 10);
  c->Inc(2, 100);
  c->Inc(3, 1000);
  c->Inc(3);
  EXPECT_EQ(c->Value(), 1112u);
}

TEST(CounterTest, LookupIsIdempotent) {
  MetricRegistry registry;
  Counter* a = registry.counter("same");
  a->Inc();
  Counter* b = registry.counter("same");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->Value(), 1u);
}

TEST(CounterTest, ParallelLaneUpdatesLoseNothing) {
  constexpr size_t kLanes = 8;
  constexpr uint64_t kPerLane = 20000;
  MetricRegistry registry(kLanes);
  Counter* c = registry.counter("c");
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    threads.emplace_back([c, lane] {
      for (uint64_t i = 0; i < kPerLane; ++i) {
        c->Inc(lane);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c->Value(), kLanes * kPerLane);
}

TEST(CounterTest, SetNumLanesGrowsExistingMetrics) {
  MetricRegistry registry(1);
  Counter* c = registry.counter("c");
  c->Inc(0, 5);
  registry.set_num_lanes(4);
  c->Inc(3, 7);  // would be out of bounds without the grow
  EXPECT_EQ(c->Value(), 12u);
  // Grow-only: shrinking is a no-op.
  registry.set_num_lanes(2);
  EXPECT_EQ(registry.num_lanes(), 4u);
}

// ------------------------------------------------------------------ Gauge

TEST(GaugeTest, LastWriteWinsAcrossLanes) {
  MetricRegistry registry(4);
  Gauge* g = registry.gauge("g");
  EXPECT_FALSE(g->ever_set());
  EXPECT_EQ(g->Value(), 0.0);
  g->Set(1.5, 0);
  g->Set(2.5, 3);  // later write on a different lane wins
  EXPECT_EQ(g->Value(), 2.5);
  g->Set(0.5, 1);
  EXPECT_EQ(g->Value(), 0.5);
  EXPECT_TRUE(g->ever_set());
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i covers [2^(i-30), 2^(i-29)); 1.0 == 2^0 opens bucket 30.
  EXPECT_EQ(Histogram::BucketIndex(1.0), 30u);
  EXPECT_EQ(Histogram::BucketLowerBound(30), 1.0);
  EXPECT_EQ(Histogram::BucketIndex(1.999), 30u);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 31u);
  // Bucket 0 lower bound is 2^-30; everything at or below clamps to 0.
  EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(0)), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e-12), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0u);
  // Exact powers of two open their bucket; the value just below falls in
  // the previous one.
  EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(17)), 17u);
  // The top bucket absorbs everything beyond the table.
  EXPECT_EQ(Histogram::BucketIndex(1e30), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, MergedAggregatesAcrossLanes) {
  MetricRegistry registry(2);
  Histogram* h = registry.histogram("h");
  h->Record(1.0, 0);
  h->Record(4.0, 1);
  h->Record(16.0, 1);
  EXPECT_EQ(h->Count(), 3u);
  EXPECT_DOUBLE_EQ(h->Sum(), 21.0);
  EXPECT_DOUBLE_EQ(h->Max(), 16.0);
  EXPECT_DOUBLE_EQ(h->Mean(), 7.0);
  const auto buckets = h->MergedBuckets();
  EXPECT_EQ(buckets[Histogram::BucketIndex(1.0)], 1u);
  EXPECT_EQ(buckets[Histogram::BucketIndex(4.0)], 1u);
  EXPECT_EQ(buckets[Histogram::BucketIndex(16.0)], 1u);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h");
  EXPECT_EQ(h->Percentile(50), 0.0);  // empty
  h->Record(1.0);
  // One sample in [1, 2): p50 lands halfway through the bucket.
  EXPECT_DOUBLE_EQ(h->Percentile(50), 1.5);
  EXPECT_DOUBLE_EQ(h->Percentile(100), 2.0);
  // Percentiles are monotone in p.
  for (int i = 0; i < 256; ++i) {
    h->Record(static_cast<double>(i % 16) + 0.5);
  }
  double prev = 0.0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h->Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

// ------------------------------------------------------------ ScopedTimer

TEST(ScopedTimerTest, NullSinkRecordsNothingAndIsCheap) {
  { ScopedTimer t(nullptr); }  // must not crash, no clock reads
  MetricRegistry registry;
  Histogram* h = registry.histogram("t");
  { ScopedTimer t(h); }
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_GE(h->Sum(), 0.0);
}

// ----------------------------------------------------------- JSON exports

TEST(MetricRegistryTest, ToJsonGolden) {
  MetricRegistry registry;
  registry.counter("c")->Inc(0, 3);
  Gauge* g = registry.gauge("g");
  g->Set(2.5);
  registry.histogram("h")->Record(1.0);
  const std::string json = registry.ToJson();
  // v2 of the schema: no embedded "series" section — time series stream to
  // JSONL through TimeSeriesRecorder instead of accumulating in the registry.
  EXPECT_EQ(json,
            std::string("{\"schema\":\"") + kMetricsSchema + "\"," +
            "\"counters\":{\"c\":3},"
            "\"gauges\":{\"g\":2.5},"
            "\"histograms\":{\"h\":{\"count\":1,\"sum\":1,\"mean\":1,\"max\":1,"
            "\"p50\":1.5,\"p90\":1.9,\"p99\":1.99,\"buckets\":[[1,1]]}}}");
}

TEST(SchemaTableTest, ListsEveryTagExactlyOnce) {
  std::vector<std::string> tags;
  for (const SchemaInfo& s : kSchemas) {
    EXPECT_NE(s.producer, nullptr);
    tags.emplace_back(s.tag);
  }
  ASSERT_EQ(tags.size(), 10u);
  EXPECT_NE(std::find(tags.begin(), tags.end(), kMetricsSchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kRunsimSchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kSummarySchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kSpansSchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kSeriesSchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kLatencySchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kHotspotSchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kSloSchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kProfileSchema), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), kDecisionSchema), tags.end());
  for (const std::string& tag : tags) {
    EXPECT_EQ(tag.rfind("optum.", 0), 0u) << tag;
    // Every tag ends in an explicit version: ".v<digit>".
    ASSERT_GE(tag.size(), 3u);
    EXPECT_EQ(tag.substr(tag.size() - 3, 2), ".v") << tag;
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(tag.back()))) << tag;
    EXPECT_EQ(std::count(tags.begin(), tags.end(), tag), 1) << tag;
  }
}

// Registry discipline: every schema in kSchemas[] must have a golden render
// here, produced by the real exporter, that carries the tag. Adding an eleventh
// schema without registering its renderer fails this test — the map is the
// checklist, not a convention.
TEST(SchemaTableTest, EveryTagHasAGoldenRender) {
  std::map<std::string, std::string> goldens;
  goldens[kMetricsSchema] = MetricRegistry().ToJson();
  // optum.runsim.v1 is rendered inline by the runsim tool (no library
  // renderer); its shape is pinned by tooling_test's --json run.
  goldens[kRunsimSchema] = R"({"schema":"optum.runsim.v1")";
  goldens[kSummarySchema] = ::optum::RenderSummaryJson(::optum::TraceSummary());
  goldens[kSpansSchema] = SpanLog::RenderHeader();
  goldens[kSeriesSchema] = TimeSeriesRecorder::RenderHeader(1);
  goldens[kLatencySchema] = serve::RenderLatencyHeader();
  goldens[kHotspotSchema] = HotspotLog::RenderHeader();
  goldens[kSloSchema] = SloAccumulator().RenderJson(1.0);
  goldens[kProfileSchema] = ProfileLog::RenderHeader();
  goldens[kDecisionSchema] = DecisionLog::RenderHeader();
  for (const SchemaInfo& s : kSchemas) {
    const auto it = goldens.find(s.tag);
    ASSERT_NE(it, goldens.end()) << "no golden render registered for " << s.tag;
    EXPECT_NE(it->second.find(std::string("\"schema\":\"") + s.tag + "\""),
              std::string::npos)
        << s.tag << " render does not carry its schema tag: " << it->second;
  }
  EXPECT_EQ(goldens.size(), std::size(kSchemas));
}

TEST(MetricRegistryTest, CollectGaugesAppendsNamesCreatedMidRun) {
  MetricRegistry registry;
  registry.gauge("early")->Set(1.0);
  std::vector<std::string> names;
  std::vector<double> values;
  registry.CollectGauges(&names, &values);
  ASSERT_EQ(names, (std::vector<std::string>{"early"}));
  EXPECT_EQ(values, (std::vector<double>{1.0}));
  // A gauge created after the first collection appends its name (the caller's
  // column order stays stable) and its value shows up from then on.
  registry.gauge("late")->Set(9.0);
  registry.CollectGauges(&names, &values);
  EXPECT_EQ(names, (std::vector<std::string>{"early", "late"}));
  EXPECT_EQ(values, (std::vector<double>{1.0, 9.0}));
}

TEST(MetricRegistryTest, CollectorsRunOnCollectAndExport) {
  MetricRegistry registry;
  int runs = 0;
  registry.AddCollector([&runs](MetricRegistry* r) {
    ++runs;
    r->gauge("pulled")->Set(static_cast<double>(runs));
  });
  std::vector<std::string> names;
  std::vector<double> values;
  registry.CollectGauges(&names, &values);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(values, (std::vector<double>{1.0}));
  const std::string json = registry.ToJson();
  EXPECT_EQ(runs, 2);
  EXPECT_NE(json.find("\"pulled\":2"), std::string::npos) << json;
}

TEST(MetricRegistryTest, WriteJsonFileRoundTrips) {
  MetricRegistry registry;
  registry.counter("c")->Inc();
  const std::string path = ::testing::TempDir() + "/obs_metrics.json";
  ASSERT_TRUE(registry.WriteJsonFile(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 12, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, registry.ToJson() + "\n");
}

// ----------------------------------------------------------- JsonWriter

TEST(JsonWriterTest, EscapesAndFormats) {
  JsonWriter w;
  w.BeginObject();
  w.KV("s", "a\"b\\c\nd");
  w.KV("nan", std::nan(""));
  w.KV("neg", static_cast<int64_t>(-7));
  w.Key("raw").RawValue("[1,2]");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"nan\":null,\"neg\":-7,\"raw\":[1,2]}");
}

// ---------------------------------------------------------- Decision log

DecisionTrace MakeTrace() {
  DecisionTrace trace;
  trace.tick = 42;
  trace.pod = 7;
  trace.app = 3;
  trace.slo = SloClass::kLs;
  trace.candidates_sampled = 5;
  trace.candidates_feasible = 2;
  trace.chosen = 11;
  trace.chosen_score = 0.25;
  trace.reject_reason = "None";
  CandidateTrace c;
  c.host = 11;
  c.feasible = true;
  c.score = 0.25;
  c.cpu_util = 0.5;
  c.mem_util = 0.75;
  c.usage_fit = 0.375;
  c.interference = 0.125;
  trace.top.push_back(c);
  return trace;
}

TEST(DecisionLogTest, RenderGolden) {
  // The JSONL schema is load-bearing for downstream analysis: pin it.
  EXPECT_EQ(DecisionLog::Render(MakeTrace()),
            "{\"tick\":42,\"pod\":7,\"app\":3,\"slo\":\"LS\","
            "\"sampled\":5,\"feasible\":2,\"chosen\":11,\"score\":0.25,"
            "\"reason\":\"None\",\"top\":[{\"host\":11,\"score\":0.25,"
            "\"cpu_util\":0.5,\"mem_util\":0.75,\"usage_fit\":0.375,"
            "\"interference\":0.125}]}");
}

TEST(DecisionLogTest, AppendWritesOneLinePerRecord) {
  const std::string path = ::testing::TempDir() + "/obs_decisions.jsonl";
  {
    DecisionLog log(path);
    ASSERT_TRUE(log.ok());
    log.Append(MakeTrace());
    log.Append(MakeTrace());
    EXPECT_EQ(log.records_written(), 2);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 14, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  // optum.decision.v1: one header line, then one line per record.
  EXPECT_EQ(DecisionLog::RenderHeader(), "{\"schema\":\"optum.decision.v1\"}");
  const std::string line = DecisionLog::Render(MakeTrace()) + "\n";
  EXPECT_EQ(contents, DecisionLog::RenderHeader() + "\n" + line + line);
}

}  // namespace
}  // namespace optum::obs
