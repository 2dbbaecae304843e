#include "src/common/shard_crew.h"

#include <chrono>

#include "src/common/check.h"

namespace optum {
namespace {

// How long a waiting thread spins before it parks: a crew thread waiting for
// the next round, and the caller waiting for the lanes that joined. A parked
// lane costs a round's caller nothing but is a lane lost to that round, so
// the spin covers the short serial gaps between rounds: a few µs between
// conflict rounds, 45-110 µs before the simulator's record round at 1,000
// hosts. Millisecond gaps (between simulator ticks) are not worth spinning
// through. 250 µs ran serve_steady and sim_day faster than 50 µs (DESIGN.md
// §12), so one budget serves every round: a property of the round shapes,
// not a tuning knob.
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

ShardCrew::ShardCrew(size_t num_lanes) : errors_(num_lanes), claims_(num_lanes) {
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
  Publish();  // publishes stopping_ like a round
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
}

void ShardCrew::Publish() {
  // One writer (the caller, or the destructor), so a plain seq_cst store
  // advances the counter; seq_cst also orders it before notify_all's check
  // for parked waiters.
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1);
  epoch_.notify_all();
}

void ShardCrew::RunRound(size_t n, size_t chunk, void* ctx, RangeFn fn) {
  if (threads_.empty() || n <= chunk) {
    fn(ctx, 0, 0, n);
    RethrowLowestError();
    return;
  }
  ctx_ = ctx;
  fn_ = fn;
  n_ = n;
  chunk_ = chunk;
  num_chunks_ = (n + chunk - 1) / chunk;
  homes_ = std::min(num_chunks_, num_lanes());
  for (size_t h = 0; h < homes_; ++h) {
    claims_[h].taken.store(false, std::memory_order_relaxed);
  }
  next_chunk_.store(homes_, std::memory_order_relaxed);
  // Releases the payload to every crew thread that joins, including one
  // that observed an earlier round and has not tried to join yet.
  admission_.store(0, std::memory_order_release);
  Publish();
  RunLane(0);
  // Lane 0 returned, so every chunk is claimed: close admission and wait
  // only for the crew threads that joined.
  admission_.fetch_or(kClosed, std::memory_order_relaxed);
  SpinThenPark(admission_, [](uint32_t v) { return v == kClosed; });
  RethrowLowestError();
}

void ShardCrew::RunLane(size_t lane) noexcept {
  if (lane < homes_ && !claims_[lane].taken.exchange(true, std::memory_order_relaxed)) {
    RunChunk(lane, lane);
  }
  for (size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed); c < num_chunks_;
       c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
    RunChunk(lane, c);
  }
  for (size_t h = 0; h < homes_; ++h) {
    if (!claims_[h].taken.load(std::memory_order_relaxed) &&
        !claims_[h].taken.exchange(true, std::memory_order_relaxed)) {
      RunChunk(lane, h);
    }
  }
}

void ShardCrew::NoteError(size_t lane, size_t i) noexcept {
  LaneError& e = errors_[lane];
  if (e.error == nullptr || i < e.index) {
    e.index = i;
    e.error = std::current_exception();
  }
}

void ShardCrew::RethrowLowestError() {
  std::exception_ptr lowest;
  size_t lowest_index = 0;
  for (LaneError& e : errors_) {
    if (e.error != nullptr && (lowest == nullptr || e.index < lowest_index)) {
      lowest = e.error;
      lowest_index = e.index;
    }
    e.error = nullptr;
  }
  if (lowest != nullptr) {
    std::rethrow_exception(lowest);
  }
}

void ShardCrew::CrewLoop(size_t lane) {
  uint32_t seen = 0;
  for (;;) {
    seen = SpinThenPark(epoch_, [seen](uint32_t v) { return v != seen; });
    if (stopping_.load(std::memory_order_relaxed)) {
      return;
    }
    if (!TryJoin()) {
      continue;  // closed: the caller and the other lanes ran every chunk
    }
    RunLane(lane);
    if (admission_.fetch_sub(1, std::memory_order_release) == (kClosed | 1)) {
      admission_.notify_one();
    }
  }
}

bool ShardCrew::TryJoin() {
  // The round admitted into may be a later round than the one this thread
  // observed; its payload is just as valid, and the acquire pairs with the
  // release store that opened it.
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
