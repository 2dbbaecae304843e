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
// (acquire): spins with pause for kSpinBudget, then parks in
// std::atomic::wait, re-checking after every wake-up.
template <typename Done>
uint32_t SpinThenPark(const std::atomic<uint32_t>& word, Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
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
  stopping_ = true;
  epoch_.fetch_add(1);  // publishes stopping_ like a round
  epoch_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
}

void ShardCrew::RunRound(void* ctx, LaneFn fn) {
  ctx_ = ctx;
  fn_ = fn;
  if (!threads_.empty()) {
    pending_.store(static_cast<uint32_t>(threads_.size()), std::memory_order_relaxed);
    // seq_cst: publishes the payload above, and orders the increment before
    // notify_all's check for parked waiters.
    epoch_.fetch_add(1);
    epoch_.notify_all();
  }
  RunLane(0);
  if (!threads_.empty()) {
    SpinThenPark(pending_, [](uint32_t v) { return v == 0; });
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
    seen = SpinThenPark(epoch_, [seen](uint32_t v) { return v != seen; });
    if (stopping_) {
      return;
    }
    RunLane(lane);
    if (pending_.fetch_sub(1) == 1) {
      pending_.notify_one();
    }
  }
}

}  // namespace optum
