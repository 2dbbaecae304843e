// Persistent lane crew, the system's one parallel mechanism (DESIGN.md §8,
// §12): the §4.4 coordinator's shards, the simulator tick's passes, the
// online ERO refresh's host blocks (on the crew the simulator lends its
// cluster) and the forest fit's trees all run on it. It keeps
// num_lanes - 1 threads alive and runs lane 0 on the calling thread;
// nothing is allocated per round.
// There is one round type, and it is *open*:
//
//   * the caller opens an admission word (release) and advances an epoch;
//     each crew thread spins on the epoch for a bounded budget, then parks
//     in std::atomic::wait, and joins when woken if the round is still open;
//   * lane l first claims its home chunk l, then takes chunks from a shared
//     counter that starts after the homes, then steals any unclaimed home.
//     While every lane is on time each runs the same home every round (the
//     coordinator's shard l stays in lane l's cache); a late lane's home
//     goes to whichever lane is free first;
//   * once lane 0 returns every chunk is claimed, so the caller closes
//     admission and waits only for the lanes that joined (release
//     decrement, acquire observation), whose writes it then reads without
//     locks. A descheduled crew thread costs a round nothing.
#ifndef OPTUM_SRC_COMMON_SHARD_CREW_H_
#define OPTUM_SRC_COMMON_SHARD_CREW_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/check.h"

namespace optum {

class ShardCrew {
 public:
  // Starts num_lanes - 1 threads; a one-lane crew starts none.
  explicit ShardCrew(size_t num_lanes);
  // Wakes parked lanes and joins every thread. Must not overlap ParallelFor().
  ~ShardCrew();

  ShardCrew(const ShardCrew&) = delete;
  ShardCrew& operator=(const ShardCrew&) = delete;

  size_t num_lanes() const { return threads_.size() + 1; }

  // Runs fn(i) exactly once for every i in [0, n) and returns when all have
  // finished. Indices are claimed in chunks of `chunk` (>= 1) consecutive
  // indices, home chunks first (see the header comment), so uneven
  // per-index cost balances itself; a range of at most one chunk, or a
  // one-lane crew, runs inline on the caller and wakes no lane. The default
  // chunk suits many cheap indices (the simulator's hosts); a caller with
  // few heavy ones (a forest's trees, the coordinator's shards) passes 1.
  // Every index runs even when some throw: each exception is caught, the
  // round goes on, and once it is over the exception of the lowest index
  // that threw is rethrown here. The lane that runs an index is
  // unspecified, so fn(i) must touch only state owned by index i. `fn` is
  // passed by reference and must stay callable from several threads at
  // once. One caller at a time.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn, size_t chunk = kParallelForChunk) {
    OPTUM_CHECK_GE(chunk, 1u);
    auto run = [&](size_t lane, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          NoteError(lane, i);
        }
      }
    };
    RunRound(n, chunk, static_cast<void*>(std::addressof(run)),
             [](void* ctx, size_t lane, size_t begin, size_t end) {
               (*static_cast<decltype(run)*>(ctx))(lane, begin, end);
             });
  }

 private:
  // Runs indices [begin, end) on `lane`.
  using RangeFn = void (*)(void* ctx, size_t lane, size_t begin, size_t end);

  // Default indices per claim: small enough that 1,000 hosts split into ~60
  // claims across 4 lanes, large enough that neighbouring lanes rarely
  // write the same cache line of a per-index output array.
  static constexpr size_t kParallelForChunk = 16;
  // Admission word: kClosed plus the number of crew threads that joined
  // the round and have not left yet.
  static constexpr uint32_t kClosed = 1u << 31;

  struct alignas(64) HomeClaim {
    std::atomic<bool> taken{false};
  };
  // The lowest index that threw on a lane this round, and its exception.
  struct LaneError {
    size_t index = 0;
    std::exception_ptr error;
  };

  void RunRound(size_t n, size_t chunk, void* ctx, RangeFn fn);
  void RunLane(size_t lane) noexcept;
  void RunChunk(size_t lane, size_t c) {
    fn_(ctx_, lane, c * chunk_, std::min(n_, (c + 1) * chunk_));
  }
  // Records the exception in flight for index i; call only from a handler.
  void NoteError(size_t lane, size_t i) noexcept;
  void RethrowLowestError();
  void Publish();
  void CrewLoop(size_t lane);
  // Counts this crew thread into the round unless it is closed.
  bool TryJoin();
  void StopAndJoin();

  // Round payload: written by the caller before the release store that
  // opens admission, read by crew threads after the acquire that joins.
  void* ctx_ = nullptr;
  RangeFn fn_ = nullptr;
  size_t n_ = 0;
  size_t chunk_ = 1;
  size_t num_chunks_ = 0;
  // Chunks [0, homes_) are home chunks, one per lane.
  size_t homes_ = 0;
  // Atomic because a crew thread late for a round may still read it while
  // the destructor sets it.
  std::atomic<bool> stopping_{false};
  // errors_[lane] is written only by the lane's thread during a round
  // (after joining) and read only by the caller once the round is closed
  // and every joined thread has left.
  std::vector<LaneError> errors_;
  std::vector<HomeClaim> claims_;

  alignas(64) std::atomic<size_t> next_chunk_{0};
  alignas(64) std::atomic<uint32_t> epoch_{0};
  alignas(64) std::atomic<uint32_t> admission_{kClosed};

  // Last: the threads use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace optum

#endif  // OPTUM_SRC_COMMON_SHARD_CREW_H_
