// A small fixed-size thread pool whose one operation is ParallelFor: run
// fn(i) for every i in [0, n) and return when all of them have finished.
// The experiment runner fans schedulers out over it, and the federation
// runs its unlimited-pool tenants on it.
//
// A pool of n threads counts the caller as one of them: it spawns n - 1
// workers, and the caller works through every batch it publishes, so no
// batch runs on more than n threads. One batch runs at a time. ParallelFor
// publishes the batch under the mutex, wakes the workers, and then the
// workers and the calling thread claim indices from one shared atomic
// cursor until it passes n; the call returns once every worker that joined
// the batch has left it, so every write fn made is visible to the caller. A
// batch of at most one index, or a pool of one thread (no workers), runs
// inline on the caller.
//
// Contract: fn must tolerate concurrent calls on distinct indices, must
// synchronize any other shared state itself, and must not throw (an escaped
// exception terminates, as with std::thread). ParallelFor takes one caller
// at a time, and fn must not call ParallelFor on its own pool: the nested
// call would replace the batch its caller is still running.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eva {

class ThreadPool {
 public:
  // num_threads <= 0 selects DefaultThreads(). The caller is one of them.
  explicit ThreadPool(int num_threads = 0);

  // Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Threads a batch runs on: the workers plus the caller.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Hardware concurrency, at least 1.
  static int DefaultThreads();

  // Runs fn(i) for i in [0, n) across the workers and the calling thread,
  // each index exactly once, and blocks until all of them have finished.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();
  // Claims and runs indices of the current batch until the cursor passes n.
  void Drain(const std::function<void(std::size_t)>& fn, std::size_t n);

  std::mutex mutex_;
  std::condition_variable batch_ready_;
  std::condition_variable batch_left_;
  // The open batch, guarded by mutex_; fn_ is null between batches.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::uint64_t generation_ = 0;  // Bumped per batch so a worker joins it once.
  int joined_ = 0;                // Workers inside the open batch.
  bool stopping_ = false;
  std::atomic<std::size_t> cursor_{0};
  std::vector<std::thread> workers_;
};

}  // namespace eva

#endif  // SRC_COMMON_THREAD_POOL_H_
