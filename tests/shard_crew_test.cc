// ShardCrew (src/common/shard_crew.h): the persistent spin-then-park lane
// crew the §4.4 coordinator runs its shard decisions on. Pins the contract
// the coordinator relies on — every lane runs exactly once per round with
// the caller as lane 0, lane writes are visible to the caller when Run()
// returns, a one-lane crew starts no thread, destruction joins parked
// lanes, and a lane's exception reaches the caller instead of terminating
// the process. Labeled `concurrency` so tools/sanitize_runner.sh also runs
// it under TSan and ASan+UBSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/shard_crew.h"
#include "src/core/distributed.h"

namespace optum {
namespace {

TEST(ShardCrewTest, EveryLaneRunsOncePerRoundAndCallerIsLaneZero) {
  ShardCrew crew(4);
  ASSERT_EQ(crew.num_lanes(), 4u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(crew.num_lanes());
  std::vector<std::thread::id> lane_thread(crew.num_lanes());
  for (int round = 1; round <= 50; ++round) {
    crew.Run([&](size_t lane) {
      ASSERT_LT(lane, runs.size());
      runs[lane].fetch_add(1, std::memory_order_relaxed);
      lane_thread[lane] = std::this_thread::get_id();
    });
    for (size_t lane = 0; lane < runs.size(); ++lane) {
      ASSERT_EQ(runs[lane].load(), round) << "lane " << lane;
    }
    EXPECT_EQ(lane_thread[0], caller);
    for (size_t lane = 1; lane < lane_thread.size(); ++lane) {
      EXPECT_NE(lane_thread[lane], caller) << "lane " << lane;
      for (size_t other = lane + 1; other < lane_thread.size(); ++other) {
        EXPECT_NE(lane_thread[lane], lane_thread[other]);
      }
    }
  }
}

TEST(ShardCrewTest, LaneWritesVisibleAfterManyBackToBackRounds) {
  // Plain (non-atomic) per-lane slots: only the barrier orders the lane's
  // write before the caller's read, so TSan flags any missing edge.
  constexpr size_t kLanes = 4;
  constexpr uint64_t kRounds = 100000;
  ShardCrew crew(kLanes);
  std::vector<uint64_t> slot(kLanes, 0);
  uint64_t sum = 0;
  for (uint64_t round = 1; round <= kRounds; ++round) {
    crew.Run([&](size_t lane) { slot[lane] = round * (lane + 1); });
    for (size_t lane = 0; lane < kLanes; ++lane) {
      if (slot[lane] != round * (lane + 1)) {
        FAIL() << "round " << round << " lane " << lane << " read " << slot[lane];
      }
      sum += slot[lane];
    }
  }
  EXPECT_EQ(sum, (kRounds * (kRounds + 1) / 2) * (kLanes * (kLanes + 1) / 2));
}

TEST(ShardCrewTest, ParkedLanesWakeForLaterRounds) {
  // Rounds spaced far beyond the spin budget, so every crew thread parks
  // between them and must be woken by the next epoch increment.
  ShardCrew crew(3);
  std::atomic<int> runs{0};
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    crew.Run([&](size_t) { runs.fetch_add(1); });
  }
  EXPECT_EQ(runs.load(), 9);
}

TEST(ShardCrewTest, SingleLaneCrewStartsNoThread) {
  ShardCrew crew(1);
  EXPECT_EQ(crew.num_lanes(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  int runs = 0;
  crew.Run([&](size_t lane) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

// Threads of this process, from /proc (Linux); -1 when unavailable.
int ProcessThreadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) {
    return -1;
  }
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

TEST(ShardCrewTest, OneShardCoordinatorStartsNoThread) {
  // Some runtimes (ThreadSanitizer) start a helper thread on the first
  // thread creation; let that happen before taking the baseline.
  std::thread([] {}).join();
  const int before = ProcessThreadCount();
  if (before < 0) {
    GTEST_SKIP() << "/proc/self/task unavailable";
  }
  core::DistributedConfig config;
  config.num_schedulers = 1;
  {
    core::DistributedCoordinator coordinator(core::OptumProfiles{}, config);
    EXPECT_EQ(coordinator.num_schedulers(), 1u);
    EXPECT_EQ(ProcessThreadCount(), before);
  }
  // One thread per shard: a 4-shard coordinator adds 3, the caller being
  // the fourth.
  config.num_schedulers = 4;
  {
    core::DistributedCoordinator coordinator(core::OptumProfiles{}, config);
    EXPECT_EQ(ProcessThreadCount(), before + 3);
  }
  EXPECT_EQ(ProcessThreadCount(), before);
}

TEST(ShardCrewTest, DestructionWhileLanesParkedJoinsCleanly) {
  for (int i = 0; i < 20; ++i) {
    ShardCrew crew(4);
    if (i % 2 == 0) {
      crew.Run([](size_t) {});
    }
    // Odd iterations destroy a crew that never ran; even ones a crew whose
    // lanes have spun out their budget and parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  SUCCEED();
}

TEST(ShardCrewTest, LaneExceptionIsRethrownOnCallerAfterBarrier) {
  ShardCrew crew(4);
  std::vector<std::atomic<int>> finished(crew.num_lanes());
  try {
    crew.Run([&](size_t lane) {
      if (lane == 2) {
        throw std::runtime_error("lane 2 failed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      finished[lane].fetch_add(1);
    });
    FAIL() << "the lane exception was lost";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "lane 2 failed");
  }
  // The rethrow waited for the barrier: every other lane had finished.
  EXPECT_EQ(finished[0].load(), 1);
  EXPECT_EQ(finished[1].load(), 1);
  EXPECT_EQ(finished[3].load(), 1);

  // The lowest throwing lane wins, the caller's own lane included.
  try {
    crew.Run([](size_t lane) {
      if (lane == 0 || lane == 3) {
        throw std::runtime_error("lane " + std::to_string(lane));
      }
    });
    FAIL() << "the lane exceptions were lost";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "lane 0");
  }

  // Captured errors do not leak into the next round.
  std::atomic<int> runs{0};
  crew.Run([&](size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 4);
}

}  // namespace
}  // namespace optum
