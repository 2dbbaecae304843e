#include "src/common/shard_crew.h"

#include <chrono>
#include <utility>

#include "src/common/check.h"

namespace optum {
namespace {

// How long a waiting thread spins before it parks. Traced serve runs at
// 6,000 hosts (4 shards, pipeline depth 2) show a conflict round's barrier
// at ~250 µs and only a few µs of serial resolve+commit between rounds, so
// while a batch is in flight the next round is published within about one
// barrier length of any lane finishing. Spinning that long keeps every
// lane hot across the whole batch; once the coordinator goes quiet for
// longer (between service rounds, or idle), lanes park after at most one
// barrier length of spinning. A fixed property of the round shape, not a
// tuning knob.
constexpr std::chrono::microseconds kSpinBudget{250};
// How long a crew thread spins for the next round after an open round.
// Parking costs an open round's caller nothing — it starts the next round
// alone and a woken lane joins late — so the spin only needs to cover short
// serial gaps, such as those between a forest's fits. The simulator runs one
// host round per tick; its one gap inside a tick, before the pod-usage
// record round on every tenth tick, is 45-110 µs at 1,000 hosts
// (completions and the node-usage sweep), and a 200 µs spin that covers it
// made sim_day no faster. The scheduling between ticks takes milliseconds
// and is not worth spinning through.
constexpr std::chrono::microseconds kOpenRoundSpin{50};
// Clock reads are amortized over a short burst of pause instructions.
constexpr int kPausesPerClockRead = 64;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Waits until done(word) holds and returns the value that satisfied it
// (acquire): spins with pause for `spin`, then parks in std::atomic::wait,
// re-checking after every wake-up.
template <typename Done>
uint32_t SpinThenPark(const std::atomic<uint32_t>& word, std::chrono::microseconds spin,
                      Done done) {
  const auto deadline = std::chrono::steady_clock::now() + spin;
  do {
    for (int i = 0; i < kPausesPerClockRead; ++i) {
      const uint32_t v = word.load(std::memory_order_acquire);
      if (done(v)) {
        return v;
      }
      CpuRelax();
    }
  } while (std::chrono::steady_clock::now() < deadline);
  for (;;) {
    const uint32_t v = word.load(std::memory_order_acquire);
    if (done(v)) {
      return v;
    }
    word.wait(v, std::memory_order_acquire);
  }
}

}  // namespace

ShardCrew::ShardCrew(size_t num_lanes) : errors_(num_lanes) {
  OPTUM_CHECK_GE(num_lanes, 1u);
  threads_.reserve(num_lanes - 1);
  try {
    for (size_t lane = 1; lane < num_lanes; ++lane) {
      threads_.emplace_back([this, lane] { CrewLoop(lane); });
    }
  } catch (...) {
    // The destructor will not run: join whatever started before the failure.
    StopAndJoin();
    throw;
  }
}

ShardCrew::~ShardCrew() { StopAndJoin(); }

void ShardCrew::StopAndJoin() {
  if (threads_.empty()) {
    return;
  }
  stopping_.store(true, std::memory_order_relaxed);
  Publish(0);  // publishes stopping_ like a round
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
}

void ShardCrew::Publish(uint32_t round_type) {
  // One writer (the caller, or the destructor), so a plain seq_cst store
  // advances the counter; seq_cst also orders it before notify_all's check
  // for parked waiters.
  const uint32_t counter = epoch_.load(std::memory_order_relaxed) >> 1;
  epoch_.store(((counter + 1) << 1) | round_type);
  epoch_.notify_all();
}

void ShardCrew::RunRound(void* ctx, LaneFn fn, bool open) {
  ctx_ = ctx;
  fn_ = fn;
  if (!threads_.empty()) {
    if (open) {
      // Releases the payload to every crew thread that joins, including one
      // that observed an earlier open round and has not tried to join yet.
      admission_.store(0, std::memory_order_release);
      Publish(kOpenRound);
    } else {
      pending_.store(static_cast<uint32_t>(threads_.size()), std::memory_order_relaxed);
      Publish(0);
    }
  }
  RunLane(0);
  if (!threads_.empty()) {
    if (open) {
      // Lane 0 returned, so every index is claimed: close admission and wait
      // only for the crew threads that joined.
      admission_.fetch_or(kClosed, std::memory_order_relaxed);
      SpinThenPark(admission_, kSpinBudget, [](uint32_t v) { return v == kClosed; });
    } else {
      SpinThenPark(pending_, kSpinBudget, [](uint32_t v) { return v == 0; });
    }
  }
  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (error != nullptr && first == nullptr) {
      first = error;
    }
    error = nullptr;
  }
  if (first != nullptr) {
    std::rethrow_exception(first);
  }
}

void ShardCrew::RunLane(size_t lane) noexcept {
  try {
    fn_(ctx_, lane);
  } catch (...) {
    errors_[lane] = std::current_exception();
  }
}

void ShardCrew::CrewLoop(size_t lane) {
  uint32_t seen = 0;
  for (;;) {
    const auto spin = (seen & kOpenRound) != 0 ? kOpenRoundSpin : kSpinBudget;
    seen = SpinThenPark(epoch_, spin, [seen](uint32_t v) { return v != seen; });
    if (stopping_.load(std::memory_order_relaxed)) {
      return;
    }
    if ((seen & kOpenRound) == 0) {
      RunLane(lane);
      if (pending_.fetch_sub(1) == 1) {
        pending_.notify_one();
      }
      continue;
    }
    if (!TryJoinOpenRound()) {
      continue;  // closed: the caller and the other lanes ran every index
    }
    RunLane(lane);
    if (admission_.fetch_sub(1, std::memory_order_release) == (kClosed | 1)) {
      admission_.notify_one();
    }
  }
}

bool ShardCrew::TryJoinOpenRound() {
  // The round admitted into may be a later open round than the one this
  // thread observed; its payload is just as valid, and the acquire pairs
  // with the release store that opened it.
  uint32_t admission = admission_.load(std::memory_order_relaxed);
  while ((admission & kClosed) == 0) {
    if (admission_.compare_exchange_weak(admission, admission + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace optum
