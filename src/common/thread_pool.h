// A small fixed-size thread pool for running independent simulations in
// parallel: the experiment runner's schedulers and the federation's tenants.
//
// Deliberately minimal: Submit() enqueues a task, Wait() blocks until every
// submitted task has finished. Tasks must not throw (the pool terminates on
// escaped exceptions, like std::thread does) and must synchronize any shared
// state themselves; the intended usage is embarrassingly-parallel work that
// writes to disjoint result slots.
//
// TaskGroup tracks one batch of tasks rather than the whole pool, and its
// Wait() *helps*: while the group is unfinished the waiting thread pops and
// runs queued pool tasks instead of blocking. That makes nested fan-out safe
// (a pool task may open its own group and wait on it without deadlocking,
// even on a single-threaded pool). ParallelFor is built on it.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eva {

class ThreadPool {
 public:
  // num_threads <= 0 selects DefaultThreads().
  explicit ThreadPool(int num_threads = 0);

  // Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has run to completion.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Hardware concurrency, at least 1.
  static int DefaultThreads();

  // One batch of tasks. Submit from any thread; Wait until exactly this
  // batch is done. Destroying an unwaited group waits first.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Submit(std::function<void()> task);

    // Runs queued pool tasks (any group's) while this group is unfinished,
    // then returns. Safe to call from inside a pool task.
    void Wait();

   private:
    friend class ThreadPool;

    ThreadPool& pool_;
    int pending_ = 0;  // Guarded by pool_.mutex_.
  };

  // Runs fn(i) for i in [0, n) across the pool, helping from the calling
  // thread, and blocks until all iterations finish. Iterations are chunked
  // contiguously; fn must tolerate concurrent invocation on distinct i.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();
  // Pops and runs one queued task if any; returns false when queue empty.
  bool RunOneQueued(std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int in_flight_ = 0;  // Queued + currently executing tasks.
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace eva

#endif  // SRC_COMMON_THREAD_POOL_H_
