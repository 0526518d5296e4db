#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

namespace eva {
namespace {

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreads());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {2, 3}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(101);
    pool.ParallelFor(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnFourThreads) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOneIterations) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRunsInlineOnOneThreadPool) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  pool.ParallelFor(ran_on.size(), [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, caller);
  }
}

// A pool of n counts its caller as one of the n threads. Every index holds
// its thread until one more thread than the pool size has joined the batch,
// or until a deadline: a pool that puts n + 1 threads on a batch releases
// early and shows n + 1 distinct ids; a correct pool waits out the deadline
// once and shows at most n.
TEST(ThreadPoolTest, ParallelForRunsOnAtMostPoolSizeThreads) {
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::mutex mutex;
    std::condition_variable joined;
    std::set<std::thread::id> ids;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    const auto limit = static_cast<std::size_t>(threads);
    pool.ParallelFor(4 * limit, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
      joined.notify_all();
      joined.wait_until(lock, deadline, [&] { return ids.size() > limit; });
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), limit) << "pool of " << threads;
  }
}

TEST(ThreadPoolTest, ParallelForReturnsAfterEveryWrite) {
  ThreadPool pool(2);
  std::vector<int> results(50, 0);
  pool.ParallelFor(results.size(), [&results](std::size_t i) {
    results[i] = static_cast<int>(i) + 1;
  });
  // Plain ints: the return itself must publish every slot to the caller.
  EXPECT_EQ(std::accumulate(results.begin(), results.end(), 0), 50 * 51 / 2);
}

TEST(ThreadPoolTest, ParallelForBatchesAreReusable) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.ParallelFor(2, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 2);
  pool.ParallelFor(5, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 7);
}

// The batch hand-off is where a race would live: back-to-back batches of
// every small size, so workers that wake late, join late, or finish early
// all meet the next batch's publication. Index 0 holds its thread until a
// second index has started, so every batch of two or more runs on at least
// two threads. The slots are plain ints tagged per batch: an index run
// twice, skipped, run by a previous batch's fn, or still running when
// ParallelFor returns shows as a wrong value (or as a race under TSan).
TEST(ThreadPoolTest, ParallelForStressBackToBackSmallBatches) {
  ThreadPool pool(4);
  constexpr std::size_t kMaxSize = 8;
  std::vector<int> slots(kMaxSize);
  for (int batch = 0; batch < 2000; ++batch) {
    const std::size_t size = static_cast<std::size_t>(batch) % (kMaxSize + 1);
    const int tag = batch + 1;
    std::fill(slots.begin(), slots.end(), 0);
    std::atomic<int> started{0};
    pool.ParallelFor(size, [&slots, &started, size, tag](std::size_t i) {
      started.fetch_add(1);
      while (i == 0 && size > 1 && started.load() < 2) {
        std::this_thread::yield();
      }
      slots[i] += tag;
    });
    for (std::size_t i = 0; i < kMaxSize; ++i) {
      ASSERT_EQ(slots[i], i < size ? tag : 0) << "batch " << batch << " index " << i;
    }
  }
}

}  // namespace
}  // namespace eva
