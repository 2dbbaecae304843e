// ShardCrew (src/common/shard_crew.h): the persistent spin-then-park lane
// crew that the §4.4 coordinator's shards, the simulator's tick and the
// forest fit all run on, through its one round type, ParallelFor. Pins the
// contract they rely on: every index runs exactly once per round at any
// chunk size, whichever lane claims it; writes are visible to the caller
// when the round returns; parked lanes wake for later rounds; a one-lane
// crew starts no thread and a 4-shard coordinator adds 3; destruction
// joins parked lanes; the crew stays reusable over thousands of rounds;
// and a throwing index neither stops the round nor terminates the process:
// every index still runs, and the lowest throwing index's exception
// reaches the caller. A simulator's lanes live and die with it. Labeled
// `concurrency` so tools/sanitize_runner.sh also runs it under TSan and
// ASan+UBSan.
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
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"

namespace optum {
namespace {

TEST(ShardCrewTest, EveryLaneRunsOncePerRoundAndCallerIsLaneZero) {
  // The coordinator's shape: one index per lane, chunk 1. Which thread runs
  // an index is not fixed (a late lane's home is stolen), so only the
  // once-per-round count is pinned.
  ShardCrew crew(4);
  ASSERT_EQ(crew.num_lanes(), 4u);
  std::vector<std::atomic<int>> runs(crew.num_lanes());
  for (int round = 1; round <= 50; ++round) {
    crew.ParallelFor(
        crew.num_lanes(),
        [&](size_t lane) {
          ASSERT_LT(lane, runs.size());
          runs[lane].fetch_add(1, std::memory_order_relaxed);
        },
        /*chunk=*/1);
    for (size_t lane = 0; lane < runs.size(); ++lane) {
      ASSERT_EQ(runs[lane].load(), round) << "lane " << lane;
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
    crew.ParallelFor(kLanes, [&](size_t lane) { slot[lane] = round * (lane + 1); }, 1);
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
  // between them and must be woken by the next epoch increment. Each index
  // waits until all three have started, so the caller cannot run them all
  // alone: the round needs both parked lanes awake (the deadline only keeps
  // a regression from hanging the test).
  ShardCrew crew(3);
  std::atomic<int> runs{0};
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::atomic<int> started{0};
    std::atomic<int> met{0};
    crew.ParallelFor(
        3,
        [&](size_t) {
          started.fetch_add(1);
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (started.load() < 3 && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          met.fetch_add(started.load() == 3 ? 1 : 0);
          runs.fetch_add(1);
        },
        /*chunk=*/1);
    EXPECT_EQ(met.load(), 3) << "round " << round;
  }
  EXPECT_EQ(runs.load(), 9);
}

TEST(ShardCrewTest, SingleLaneCrewStartsNoThread) {
  ShardCrew crew(1);
  EXPECT_EQ(crew.num_lanes(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  int runs = 0;
  crew.ParallelFor(
      crew.num_lanes(),
      [&](size_t lane) {
        EXPECT_EQ(lane, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++runs;
      },
      /*chunk=*/1);
  EXPECT_EQ(runs, 1);
  // Any range runs inline: there is no other thread to run it on.
  crew.ParallelFor(100, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs;
  });
  EXPECT_EQ(runs, 101);
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
      crew.ParallelFor(crew.num_lanes(), [](size_t) {}, 1);
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
    crew.ParallelFor(
        crew.num_lanes(),
        [&](size_t lane) {
          if (lane == 2) {
            throw std::runtime_error("lane 2 failed");
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          finished[lane].fetch_add(1);
        },
        /*chunk=*/1);
    FAIL() << "the lane exception was lost";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "lane 2 failed");
  }
  // The rethrow waited for the round: every other index had finished.
  EXPECT_EQ(finished[0].load(), 1);
  EXPECT_EQ(finished[1].load(), 1);
  EXPECT_EQ(finished[3].load(), 1);

  // The lowest throwing index wins, whichever thread ran it, and the
  // indices after a throw on the same lane still run.
  for (int round = 0; round < 100; ++round) {
    std::vector<std::atomic<int>> ran(crew.num_lanes());
    try {
      crew.ParallelFor(
          crew.num_lanes(),
          [&](size_t lane) {
            ran[lane].fetch_add(1);
            if (lane == 0 || lane == 3) {
              throw std::runtime_error("lane " + std::to_string(lane));
            }
          },
          /*chunk=*/1);
      FAIL() << "the lane exceptions were lost";
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string(e.what()), "lane 0") << "round " << round;
    }
    for (size_t lane = 0; lane < ran.size(); ++lane) {
      ASSERT_EQ(ran[lane].load(), 1) << "round " << round << ", lane " << lane;
    }
  }

  // Captured errors do not leak into the next round.
  std::atomic<int> runs{0};
  crew.ParallelFor(crew.num_lanes(), [&](size_t) { runs.fetch_add(1); }, 1);
  EXPECT_EQ(runs.load(), 4);
}

// --- ParallelFor: the simulator tick's chunked index loop --------------------

TEST(ShardCrewParallelForTest, EveryIndexRunsExactlyOnce) {
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardCrew crew(lanes);
    for (const size_t n : {size_t{0}, size_t{1}, 2 * lanes - 1, 2 * lanes, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      crew.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "lanes " << lanes << ", n " << n << ", index " << i;
      }
    }
  }
  // Chunk 1 is the forest's shape: 30 heavy trees, one claim each. Plain
  // slots, each owned by its index.
  ShardCrew crew(4);
  for (int round = 0; round < 200; ++round) {
    std::vector<int> hits(30, 0);
    crew.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; }, /*chunk=*/1);
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "chunk 1, round " << round << ", index " << i;
    }
  }
}

TEST(ShardCrewParallelForTest, ShortRangesRunInlineOnCaller) {
  ShardCrew crew(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t n = 1; n < 2 * crew.num_lanes(); ++n) {
    size_t runs = 0;  // plain: an inline loop never leaves the caller
    crew.ParallelFor(n, [&](size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++runs;
    });
    EXPECT_EQ(runs, n);
  }
  // A range of one claim runs inline at any chunk size.
  for (const size_t chunk : {size_t{1}, size_t{16}, size_t{64}}) {
    size_t runs = 0;
    crew.ParallelFor(
        chunk,
        [&](size_t) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          ++runs;
        },
        chunk);
    EXPECT_EQ(runs, chunk);
  }
}

TEST(ShardCrewParallelForTest, ReusableAcrossThousandsOfRounds) {
  // Plain per-index slots: only the barrier orders a lane's write before
  // the caller's read and before the next round's write to the same slot.
  constexpr uint64_t kRounds = 2000;
  ShardCrew crew(4);
  std::vector<uint64_t> slot(997, 0);
  for (uint64_t round = 1; round <= kRounds; ++round) {
    crew.ParallelFor(slot.size(), [&](size_t i) { slot[i] += i + round; });
  }
  for (size_t i = 0; i < slot.size(); ++i) {
    ASSERT_EQ(slot[i], kRounds * i + kRounds * (kRounds + 1) / 2) << "index " << i;
  }
}

TEST(ShardCrewParallelForTest, InterleavesWithRunRounds) {
  // Chunk-1 rounds of one index per lane (the coordinator's shape) and
  // chunk-16 rounds (the simulator's) back to back: a crew thread late for
  // one round must join the next one with that round's chunking, and run
  // none of its indices twice or miss one. Plain slots, so TSan checks the
  // ordering too.
  ShardCrew crew(4);
  std::vector<uint64_t> lane_runs(crew.num_lanes(), 0);
  std::vector<uint64_t> slot(200, 0);
  constexpr uint64_t kRounds = 1000;
  for (uint64_t round = 1; round <= kRounds; ++round) {
    crew.ParallelFor(slot.size(), [&](size_t i) { ++slot[i]; }, /*chunk=*/16);
    crew.ParallelFor(crew.num_lanes(), [&](size_t lane) { ++lane_runs[lane]; }, /*chunk=*/1);
  }
  for (size_t i = 0; i < slot.size(); ++i) {
    ASSERT_EQ(slot[i], kRounds) << "index " << i;
  }
  for (size_t lane = 0; lane < lane_runs.size(); ++lane) {
    EXPECT_EQ(lane_runs[lane], kRounds) << "lane " << lane;
  }
}

TEST(ShardCrewParallelForTest, ThrowingBodyPropagates) {
  ShardCrew crew(4);
  // 3 indices run inline on the caller; 1,000 run on the crew. Index 2 is
  // in the caller's home chunk: the rest of the round still runs.
  for (const size_t n : {size_t{3}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    try {
      crew.ParallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1);
        if (i == 2) {
          throw std::runtime_error("index 2");
        }
      });
      FAIL() << "the exception was lost with n " << n;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "index 2");
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n " << n << ", index " << i;
    }
  }
  std::vector<std::atomic<int>> hits(30);
  try {
    crew.ParallelFor(
        30,
        [&](size_t i) {
          hits[i].fetch_add(1);
          if (i == 17) {
            throw std::runtime_error("index 17");
          }
        },
        /*chunk=*/1);
    FAIL() << "the exception was lost with chunk 1";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 17");
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "chunk 1, index " << i;
  }
  // Many throwing indices spread over every lane: the lowest one's
  // exception is rethrown on every round, whichever lane ran it.
  for (int round = 0; round < 50; ++round) {
    try {
      crew.ParallelFor(1000, [](size_t i) {
        if (i % 100 == 99) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "the exceptions were lost";
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string(e.what()), "index 99") << "round " << round;
    }
  }
  // The crew stays usable after a throw.
  std::atomic<int> runs{0};
  crew.ParallelFor(100, [&](size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 100);
}

TEST(ShardCrewParallelForTest, SimulatorLanesLiveAndDieWithTheSimulator) {
  std::thread([] {}).join();  // see OneShardCoordinatorStartsNoThread
  const int before = ProcessThreadCount();
  if (before < 0) {
    GTEST_SKIP() << "/proc/self/task unavailable";
  }
  WorkloadConfig workload_config;
  workload_config.num_hosts = 24;
  workload_config.horizon = 20;
  const Workload workload = WorkloadGenerator(workload_config).Generate();
  for (const size_t lanes : {size_t{1}, size_t{4}}) {
    SimConfig config;
    config.num_lanes = lanes;
    int during = -1;
    config.on_tick_end = [&](const ClusterState&, Tick) { during = ProcessThreadCount(); };
    AlibabaBaseline policy;
    {
      Simulator simulator(workload, config, policy);
      simulator.Run();
      EXPECT_EQ(during, before + static_cast<int>(lanes) - 1) << lanes << " lanes";
    }
    EXPECT_EQ(ProcessThreadCount(), before) << lanes << " lanes";
  }
}

}  // namespace
}  // namespace optum
