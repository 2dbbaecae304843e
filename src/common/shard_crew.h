// Persistent lane crew for the §4.4 conflict-round barrier (DESIGN.md §12).
//
// The distributed coordinator runs one decision per shard per conflict
// round, and a round is short (a few hundred µs at 6,000 hosts) while the
// serial resolve+commit between rounds is a few µs. A task queue pays a
// mutex, a condvar wake-up and a heap-allocated closure per shard per round
// and leaves the calling thread blocked; the crew instead keeps
// num_lanes - 1 threads alive for its whole lifetime and runs lane 0 on the
// calling thread:
//
//   * the caller publishes a round by storing a reference to the lane body
//     and release-incrementing a 32-bit epoch — nothing is allocated;
//   * each crew thread spins on the epoch for a bounded budget, then parks
//     in std::atomic::wait until the next increment;
//   * each crew thread decrements a countdown when its lane finishes; the
//     caller runs lane 0, then spins and parks on the countdown the same way.
//
// A lane's writes happen-before Run() returns (release decrement, acquire
// observation of zero), so the caller reads per-lane results without locks.
#ifndef OPTUM_SRC_COMMON_SHARD_CREW_H_
#define OPTUM_SRC_COMMON_SHARD_CREW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace optum {

class ShardCrew {
 public:
  // Starts num_lanes - 1 threads; a one-lane crew starts none.
  explicit ShardCrew(size_t num_lanes);
  // Wakes parked lanes and joins every thread. Must not overlap Run().
  ~ShardCrew();

  ShardCrew(const ShardCrew&) = delete;
  ShardCrew& operator=(const ShardCrew&) = delete;

  size_t num_lanes() const { return threads_.size() + 1; }

  // Runs fn(lane) exactly once for every lane in [0, num_lanes()): lane 0 on
  // the calling thread, the rest on the crew. Returns after every lane has
  // finished. An exception escaping a lane is captured and, once all lanes
  // are done, the lowest throwing lane's exception is rethrown here. `fn` is
  // passed by reference and must stay callable from several threads at once.
  // One caller at a time.
  template <typename Fn>
  void Run(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    RunRound(const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
             [](void* ctx, size_t lane) { (*static_cast<F*>(ctx))(lane); });
  }

 private:
  using LaneFn = void (*)(void* ctx, size_t lane);

  void RunRound(void* ctx, LaneFn fn);
  void RunLane(size_t lane) noexcept;
  void CrewLoop(size_t lane);
  void StopAndJoin();

  // Round payload: written by the caller before the epoch increment that
  // publishes it, read by crew threads after observing that increment.
  void* ctx_ = nullptr;
  LaneFn fn_ = nullptr;
  bool stopping_ = false;
  // errors_[lane] is written only by the lane's thread during a round and
  // read only by the caller after the countdown reaches zero.
  std::vector<std::exception_ptr> errors_;

  alignas(64) std::atomic<uint32_t> epoch_{0};
  alignas(64) std::atomic<uint32_t> pending_{0};

  // Last: the threads use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace optum

#endif  // OPTUM_SRC_COMMON_SHARD_CREW_H_
