#include "perfbench/perfbench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace optum::perfbench {
namespace {

TEST(NearestRankTest, PicksTheKthSmallestAndCountsTheTail) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) {
    samples.push_back(static_cast<double>(i));
  }
  const Percentile p50 = NearestRank(samples, 50.0);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_EQ(p50.beyond, 50);
  const Percentile p95 = NearestRank(samples, 95.0);
  EXPECT_EQ(p95.value, 95.0);
  EXPECT_EQ(p95.beyond, 5);
  const Percentile p100 = NearestRank(samples, 100.0);
  EXPECT_EQ(p100.value, 100.0);
  EXPECT_EQ(p100.beyond, 0);
}

TEST(NearestRankTest, RoundsTheRankUpAndHandlesTinyInputs) {
  // n = 3, q = 50: k = ceil(1.5) = 2.
  EXPECT_EQ(NearestRank({3.0, 1.0, 2.0}, 50.0).value, 2.0);
  // A rank below 1 clamps to the smallest sample.
  EXPECT_EQ(NearestRank({7.0, 5.0}, 0.1).value, 5.0);
  const Percentile single = NearestRank({4.0}, 99.0);
  EXPECT_EQ(single.value, 4.0);
  EXPECT_EQ(single.samples, 1);
  EXPECT_EQ(single.beyond, 0);
  const Percentile empty = NearestRank({}, 50.0);
  EXPECT_EQ(empty.value, 0.0);
  EXPECT_EQ(empty.samples, 0);
}

TEST(PodLedgerTest, CountsRejectedDroppedAndNeverScheduledAsFailed) {
  PodLedger ledger;
  ledger.attempted = 200;
  ledger.rejected = 3;
  ledger.dropped = 2;
  ledger.never_scheduled = 5;
  EXPECT_EQ(ledger.failed(), 10);
  EXPECT_DOUBLE_EQ(ledger.failed_share(), 0.05);
  EXPECT_DOUBLE_EQ(ledger.placed_share(), 0.95);
}

TEST(PodLedgerTest, NothingAttemptedMeansNothingFailed) {
  const PodLedger ledger;
  EXPECT_EQ(ledger.failed_share(), 0.0);
  EXPECT_EQ(ledger.placed_share(), 1.0);
}

TEST(DeriveSeedTest, IsAPureFunctionThatSeparatesStreams) {
  EXPECT_EQ(DeriveSeed(42, "arrival"), DeriveSeed(42, "arrival"));
  EXPECT_NE(DeriveSeed(42, "arrival"), DeriveSeed(42, "burst"));
  EXPECT_NE(DeriveSeed(42, "arrival"), DeriveSeed(43, "arrival"));
}

TEST(FormatNumberTest, RoundTripsEveryDigit) {
  EXPECT_EQ(FormatNumber(0.1), "0.1");
  EXPECT_EQ(FormatNumber(1234.5678901234567), "1234.5678901234567");
  EXPECT_EQ(std::stod(FormatNumber(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(FormatNumber(3.0), "3");
}

TEST(ManifestTest, RendersMachineBuildInputsAndSeeds) {
  Manifest m;
  m.nproc = 4;
  m.build_type = "RelWithDebInfo";
  m.source = "v1-3-gabc";
  m.compiler = "g++ 12.2.0";
  m.workload = "serve_steady";
  m.run_seconds = 10;
  m.trace = 1;
  m.params = {{"hosts", "6000"}};
  m.seeds = {{"seed", 42}, {"arrival", 7}};
  EXPECT_EQ(RenderManifest(m),
            "{\"schema\":\"optum.perfbench.manifest.v1\",\"workload\":\"serve_steady\","
            "\"nproc\":4,\"build_type\":\"RelWithDebInfo\",\"source\":\"v1-3-gabc\","
            "\"compiler\":\"g++ 12.2.0\",\"run_seconds\":10,\"trace\":1,"
            "\"params\":{\"hosts\":\"6000\"},\"seeds\":{\"seed\":42,\"arrival\":7}}");
}

TEST(ResultLineTest, HasExactlyTheContractKeys) {
  const std::string line =
      RenderResultLine(true, 1000, 0, {{"latency_ms", 1.25, "ms", 10}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"
            "\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},"
            "\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}");
}

}  // namespace
}  // namespace optum::perfbench
