#include "src/common/thread_pool.h"

#include <algorithm>

namespace eva {

int ThreadPool::DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = num_threads > 0 ? num_threads : DefaultThreads();
  // The caller of ParallelFor is the n-th thread.
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 1; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  batch_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Drain(const std::function<void(std::size_t)>& fn, std::size_t n) {
  for (std::size_t i = cursor_++; i < n; i = cursor_++) {
    fn(i);
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    batch_ready_.wait(lock,
                      [&] { return stopping_ || (fn_ != nullptr && generation_ != seen); });
    if (stopping_) {
      return;
    }
    seen = generation_;
    const std::function<void(std::size_t)>& fn = *fn_;
    const std::size_t n = n_;
    ++joined_;
    lock.unlock();
    Drain(fn, n);
    lock.lock();
    if (--joined_ == 0) {
      batch_left_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n <= 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    cursor_ = 0;
    ++generation_;
  }
  batch_ready_.notify_all();
  Drain(fn, n);
  // The cursor is past n, so every index is claimed. Close the batch to
  // workers that have not joined yet, then wait for those that did: their
  // claimed indices finish before they leave.
  std::unique_lock<std::mutex> lock(mutex_);
  fn_ = nullptr;
  batch_left_.wait(lock, [this] { return joined_ == 0; });
}

}  // namespace eva
