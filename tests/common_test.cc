// Tests for src/common: resource vectors, SLO classes, the parallel index
// loop, and the table printer. ShardCrew has its own concurrency-labeled
// shard_crew_test.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string>

#include "src/common/shard_crew.h"
#include "src/common/table_printer.h"
#include "src/common/types.h"

namespace optum {
namespace {

TEST(ResourcesTest, ArithmeticOperators) {
  const Resources a{0.5, 0.25};
  const Resources b{0.25, 0.5};
  EXPECT_EQ(a + b, (Resources{0.75, 0.75}));
  EXPECT_EQ(a - b, (Resources{0.25, -0.25}));
  EXPECT_EQ(a * 2.0, (Resources{1.0, 0.5}));
}

TEST(ResourcesTest, CompoundAssignment) {
  Resources r{0.1, 0.2};
  r += Resources{0.2, 0.3};
  EXPECT_DOUBLE_EQ(r.cpu, 0.3);
  EXPECT_DOUBLE_EQ(r.mem, 0.5);
  r -= Resources{0.1, 0.1};
  EXPECT_NEAR(r.cpu, 0.2, 1e-12);
  EXPECT_NEAR(r.mem, 0.4, 1e-12);
}

TEST(ResourcesTest, FitsWithinIsComponentWise) {
  const Resources cap{1.0, 1.0};
  EXPECT_TRUE((Resources{0.5, 0.5}).FitsWithin(cap));
  EXPECT_TRUE((Resources{1.0, 1.0}).FitsWithin(cap));
  EXPECT_FALSE((Resources{1.1, 0.2}).FitsWithin(cap));
  EXPECT_FALSE((Resources{0.2, 1.1}).FitsWithin(cap));
}

TEST(ResourcesTest, DotProduct) {
  EXPECT_DOUBLE_EQ((Resources{2.0, 3.0}).Dot(Resources{4.0, 5.0}), 23.0);
  EXPECT_DOUBLE_EQ(kZeroResources.Dot(Resources{1.0, 1.0}), 0.0);
}

TEST(ResourcesTest, Clamped) {
  const Resources r{-0.5, 1.5};
  const Resources c = r.Clamped(0.0, 1.0);
  EXPECT_DOUBLE_EQ(c.cpu, 0.0);
  EXPECT_DOUBLE_EQ(c.mem, 1.0);
}

TEST(ResourcesTest, MaxIsComponentWise) {
  const Resources m = Resources{0.2, 0.8}.Max(Resources{0.5, 0.1});
  EXPECT_DOUBLE_EQ(m.cpu, 0.5);
  EXPECT_DOUBLE_EQ(m.mem, 0.8);
}

TEST(ResourcesTest, ToStringContainsBothDimensions) {
  const std::string s = Resources{0.25, 0.75}.ToString();
  EXPECT_NE(s.find("0.25"), std::string::npos);
  EXPECT_NE(s.find("0.75"), std::string::npos);
}

TEST(SloClassTest, ToStringRoundTrip) {
  EXPECT_STREQ(ToString(SloClass::kBe), "BE");
  EXPECT_STREQ(ToString(SloClass::kLs), "LS");
  EXPECT_STREQ(ToString(SloClass::kLsr), "LSR");
  EXPECT_STREQ(ToString(SloClass::kSystem), "SYSTEM");
  EXPECT_STREQ(ToString(SloClass::kVmEnv), "VMEnv");
  EXPECT_STREQ(ToString(SloClass::kUnknown), "Unknown");
}

TEST(SloClassTest, LatencySensitiveClasses) {
  EXPECT_TRUE(IsLatencySensitive(SloClass::kLs));
  EXPECT_TRUE(IsLatencySensitive(SloClass::kLsr));
  EXPECT_FALSE(IsLatencySensitive(SloClass::kBe));
  EXPECT_FALSE(IsLatencySensitive(SloClass::kSystem));
  EXPECT_FALSE(IsLatencySensitive(SloClass::kUnknown));
}

TEST(SloClassTest, SchedulingPriorityOrdering) {
  // LSR > LS > BE (paper §3.1.3: LSR can preempt BE).
  EXPECT_GT(SchedulingPriority(SloClass::kLsr), SchedulingPriority(SloClass::kLs));
  EXPECT_GT(SchedulingPriority(SloClass::kLs), SchedulingPriority(SloClass::kBe));
}

TEST(TickConstantsTest, DayArithmetic) {
  EXPECT_EQ(kTicksPerDay, 24 * kTicksPerHour);
  EXPECT_EQ(kTicksPerHour, 60 * kTicksPerMinute);
  EXPECT_DOUBLE_EQ(kSecondsPerTick * kTicksPerMinute, 60.0);
}

// ShardCrew::ParallelFor replaced ThreadPool::ParallelFor; these cases keep
// the old suite name and check the same contract on the crew.
TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ShardCrew crew(3);
  std::vector<std::atomic<int>> hits(1000);
  crew.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ShardCrew crew(2);
  crew.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  ShardCrew crew(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    crew.ParallelFor(50, [&counter](size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 250);
}

TEST(TablePrinterTest, FormatsAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({std::string("a"), std::string("1")});
  table.AddRow({1.23456789, 2.0}, 4);
  // Render to a memory stream.
  char* buffer = nullptr;
  size_t size = 0;
  FILE* mem = open_memstream(&buffer, &size);
  ASSERT_NE(mem, nullptr);
  table.Print(mem);
  std::fclose(mem);
  const std::string out(buffer, size);
  free(buffer);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("1.235"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, FormatDoubleCompact) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(1234.5678, 6), "1234.57");
  EXPECT_EQ(FormatDouble(0.000012, 2), "1.2e-05");
  // Significant digits: a throughput at precision 1 loses all but one.
  EXPECT_EQ(FormatDouble(20412.0, 1), "2e+04");
}

TEST(TablePrinterTest, FormatFixedKeepsThroughputDigits) {
  EXPECT_EQ(FormatFixed(20412.0, 1), "20412.0");
  EXPECT_EQ(FormatFixed(20412.34, 1), "20412.3");
  EXPECT_EQ(FormatFixed(1.9996, 3), "2.000");
  EXPECT_EQ(FormatFixed(0.0, 1), "0.0");
  EXPECT_EQ(FormatFixed(2245.0, 1), "2245.0");

  // The serve_bench summary rows render in fixed notation end to end.
  TablePrinter table({"metric", "value"});
  table.AddRow({std::string("placed_per_wall_s"), FormatFixed(20412.0, 1)});
  table.AddRow({std::string("serve_wall_s"), FormatFixed(3.1415926, 3)});
  char* buffer = nullptr;
  size_t size = 0;
  FILE* mem = open_memstream(&buffer, &size);
  ASSERT_NE(mem, nullptr);
  table.Print(mem);
  std::fclose(mem);
  const std::string out(buffer, size);
  free(buffer);
  EXPECT_NE(out.find("| placed_per_wall_s | 20412.0 |"), std::string::npos) << out;
  EXPECT_NE(out.find("| serve_wall_s      | 3.142   |"), std::string::npos) << out;
  EXPECT_EQ(out.find("e+"), std::string::npos) << out;
}

}  // namespace
}  // namespace optum
