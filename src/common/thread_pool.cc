#include "src/common/thread_pool.h"

#include <atomic>

#include "src/common/check.h"

namespace optum {

ThreadPool::ThreadPool(size_t num_threads) {
  OPTUM_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    OPTUM_CHECK_MSG(!stopping_, "Submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const size_t shards = std::min(n, workers_.size() + 1);
  std::atomic<size_t> next{0};
  auto shard_body = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  for (size_t s = 0; s + 1 < shards; ++s) {
    Submit(shard_body);
  }
  shard_body();  // The calling thread also works.
  Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stopping_ and drained.
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace optum
