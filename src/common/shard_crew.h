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
//     and advancing a 32-bit epoch (seq_cst) — nothing is allocated;
//   * each crew thread spins on the epoch for a bounded budget, then parks
//     in std::atomic::wait until the next advance;
//   * each crew thread decrements a countdown when its lane finishes; the
//     caller runs lane 0, then spins and parks on the countdown the same way.
//
// A lane's writes happen-before Run() returns (release decrement, acquire
// observation of zero), so the caller reads per-lane results without locks.
//
// The simulator's per-tick host and pod passes and the forest fit, one tree
// per index (DESIGN.md §8), use the same crew through ParallelFor, a chunked
// index loop. Its rounds are *open*: any index may run on any lane, so the
// caller does not wait for a lane that has not started — a crew thread
// joins through an admission word while the round is open, and the caller
// closes the round once every index is claimed, then waits only for the
// lanes that joined. On a loaded machine
// a descheduled crew thread therefore costs nothing; it finds the round
// closed when it wakes and goes back to waiting.
#ifndef OPTUM_SRC_COMMON_SHARD_CREW_H_
#define OPTUM_SRC_COMMON_SHARD_CREW_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/check.h"

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
             [](void* ctx, size_t lane) { (*static_cast<F*>(ctx))(lane); },
             /*open=*/false);
  }

  // Runs fn(i) exactly once for every i in [0, n) and returns when all have
  // finished. The caller and whichever crew threads join the open round
  // claim chunks of `chunk` (>= 1) consecutive indices from a shared
  // counter, so uneven per-index cost balances itself; a range of at most
  // one chunk, or a one-lane crew, runs inline on the caller and wakes no
  // lane. The default chunk suits many cheap indices (the simulator's
  // hosts); a caller with few heavy ones (a forest's trees) passes 1. An
  // exception escaping fn ends that lane's claims, the other lanes finish
  // the remaining chunks, and it is rethrown here once the round is over
  // (the caller's first, else the lowest joined lane's). The order in which
  // indices run is unspecified, so fn(i) must touch only state owned by
  // index i.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn, size_t chunk = kParallelForChunk) {
    OPTUM_CHECK_GE(chunk, 1u);
    if (threads_.empty() || n <= chunk) {
      for (size_t i = 0; i < n; ++i) {
        fn(i);
      }
      return;
    }
    std::atomic<size_t> next{0};
    auto body = [&](size_t /*lane*/) {
      for (size_t begin = next.fetch_add(chunk, std::memory_order_relaxed); begin < n;
           begin = next.fetch_add(chunk, std::memory_order_relaxed)) {
        const size_t end = std::min(n, begin + chunk);
        for (size_t i = begin; i < end; ++i) {
          fn(i);
        }
      }
    };
    RunRound(static_cast<void*>(std::addressof(body)),
             [](void* ctx, size_t lane) { (*static_cast<decltype(body)*>(ctx))(lane); },
             /*open=*/true);
  }

 private:
  using LaneFn = void (*)(void* ctx, size_t lane);

  // Default indices per ParallelFor claim: small enough that 1,000 hosts
  // split into ~60 claims across 4 lanes, large enough that neighbouring
  // lanes rarely write the same cache line of a per-index output array.
  static constexpr size_t kParallelForChunk = 16;

  // Epoch layout: the round counter above bit 0, and bit 0 set for an
  // open round — the only round property a late crew thread may read
  // before it is admitted.
  static constexpr uint32_t kOpenRound = 1;
  // Admission word of an open round: kClosed plus the number of crew
  // threads that joined and have not left yet.
  static constexpr uint32_t kClosed = 1u << 31;

  void RunRound(void* ctx, LaneFn fn, bool open);
  void Publish(uint32_t round_type);
  void RunLane(size_t lane) noexcept;
  void CrewLoop(size_t lane);
  // Counts this crew thread into the open round unless it is closed.
  bool TryJoinOpenRound();
  void StopAndJoin();

  // Round payload: written by the caller before the epoch advance that
  // publishes it, read by crew threads after observing that advance.
  // An open round's payload is also published by the release store that
  // opens admission, which a crew thread acquires when it joins.
  void* ctx_ = nullptr;
  LaneFn fn_ = nullptr;
  // Atomic because a crew thread late for an open round may still read it
  // while the destructor sets it.
  std::atomic<bool> stopping_{false};
  // errors_[lane] is written only by the lane's thread during a round (for
  // an open round, only after joining) and read only by the caller after
  // the countdown or the admission count reaches zero.
  std::vector<std::exception_ptr> errors_;

  alignas(64) std::atomic<uint32_t> epoch_{0};
  alignas(64) std::atomic<uint32_t> pending_{0};
  alignas(64) std::atomic<uint32_t> admission_{kClosed};

  // Last: the threads use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace optum

#endif  // OPTUM_SRC_COMMON_SHARD_CREW_H_
