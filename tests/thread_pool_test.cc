#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace oasis {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  ThreadPool pool;
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreadCount());
  ThreadPool small(3);
  EXPECT_EQ(small.num_threads(), 3);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const int64_t n = 1000;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    for (auto& h : hits) h.store(0);
    const bool completed = pool.ParallelFor(0, n, [&](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    EXPECT_TRUE(completed);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  EXPECT_TRUE(pool.ParallelFor(0, 0, [&](int64_t) { ++calls; }));
  EXPECT_TRUE(pool.ParallelFor(5, 5, [&](int64_t) { ++calls; }));
  EXPECT_TRUE(pool.ParallelFor(7, 3, [&](int64_t) { ++calls; }));
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, RunsOnMultipleThreadsWhenAvailable) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  pool.ParallelFor(0, 64, [&](int64_t) {
    // A small sleep forces overlap so several workers (and possibly the
    // caller) actually pick up chunks.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPoolTest, WorkStealingBalancesSkewedTasks) {
  // One pathological index is 100x slower; stealing must keep the rest
  // flowing so total wall-clock stays near the slow task's duration, not the
  // sum. We only assert completion (timing asserts flake on CI), plus that
  // more than one thread participated.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.ParallelFor(0, 32, [&](int64_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 50 : 1));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](int64_t i) {
                         if (i == 3) throw std::runtime_error("boom");
                         executed.fetch_add(1);
                       }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> after{0};
  EXPECT_TRUE(pool.ParallelFor(0, 10, [&](int64_t) { after.fetch_add(1); }));
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPoolTest, ExceptionSkipsRemainingIterations) {
  // Single worker + caller: with the throw on the first index of the first
  // chunk, most of the remaining range must be skipped (not all — another
  // chunk may already be in flight).
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  try {
    pool.ParallelFor(0, 10000, [&](int64_t i) {
      if (i == 0) throw std::runtime_error("early");
      executed.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(executed.load(), 10000);
}

TEST(ThreadPoolTest, CancellationStopsEarlyAndReportsFalse) {
  ThreadPool pool(2);
  CancellationToken token;
  std::atomic<int> executed{0};
  const bool completed = pool.ParallelFor(0, 10000, [&](int64_t i) {
    executed.fetch_add(1);
    if (i == 5) token.RequestCancel();
  }, &token);
  EXPECT_FALSE(completed);
  EXPECT_LT(executed.load(), 10000);
  EXPECT_TRUE(token.cancelled());
}

TEST(ThreadPoolTest, PreCancelledTokenRunsNothing) {
  ThreadPool pool(2);
  CancellationToken token;
  token.RequestCancel();
  std::atomic<int> executed{0};
  EXPECT_FALSE(pool.ParallelFor(0, 100, [&](int64_t) { executed.fetch_add(1); },
                                &token));
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPoolTest, SequentialLoopsReuseThePool) {
  ThreadPool pool(4);
  int64_t total = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 100, [&](int64_t i) { sum.fetch_add(i); });
    total += sum.load();
  }
  EXPECT_EQ(total, 20 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, ConcurrentParallelForsFromManyCallers) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      pool.ParallelFor(0, 250, [&](int64_t) { sum.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(sum.load(), 1000);
}

TEST(ThreadPoolTest, SubmitRunsTaskAndWaitBlocks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  ThreadPool::TaskHandle handle = pool.Submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(handle.valid());
  handle.Wait();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(handle.done());
  // Wait is idempotent.
  handle.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsEachTaskExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const int n = 200;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    std::vector<ThreadPool::TaskHandle> handles;
    handles.reserve(n);
    for (int i = 0; i < n; ++i) {
      handles.push_back(pool.Submit([&hits, i] { hits[i].fetch_add(1); }));
    }
    for (auto& handle : handles) handle.Wait();
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, SubmitExceptionRethrownFromWait) {
  ThreadPool pool(2);
  ThreadPool::TaskHandle handle =
      pool.Submit([] { throw std::runtime_error("remote down"); });
  EXPECT_THROW(handle.Wait(), std::runtime_error);
  // The handle stays done and keeps rethrowing.
  EXPECT_TRUE(handle.done());
  EXPECT_THROW(handle.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, EmptyHandleIsInertAndWaitClaimsUnstartedWork) {
  ThreadPool::TaskHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_TRUE(empty.done());
  empty.Wait();  // No-op.

  // A single-thread pool whose worker is blocked: Wait() must claim and run
  // the submitted task inline instead of deadlocking.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  ThreadPool::TaskHandle blocker = pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> ran{0};
  ThreadPool::TaskHandle task = pool.Submit([&] { ran.fetch_add(1); });
  task.Wait();  // Inline claim: the worker is still stuck in `blocker`.
  EXPECT_EQ(ran.load(), 1);
  release.store(true);
  blocker.Wait();
}

TEST(ThreadPoolTest, QueuedSubmitsRunDuringPoolShutdown) {
  // Tasks still queued when the pool is destroyed are drained by the exiting
  // workers, never silently dropped — every handle completes.
  std::vector<ThreadPool::TaskHandle> handles;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      handles.push_back(pool.Submit([&] { ran.fetch_add(1); }));
    }
  }
  EXPECT_EQ(ran.load(), 64);
  for (auto& handle : handles) {
    EXPECT_TRUE(handle.done());
    handle.Wait();  // Completed handles stay waitable after the pool died.
  }
}

TEST(ThreadPoolTest, SubmitOverlapsWithCallerWork) {
  // Producer/consumer shape: the caller keeps working while the submitted
  // task runs, then synchronises via Wait.
  ThreadPool pool(2);
  std::atomic<int64_t> background_sum{0};
  ThreadPool::TaskHandle handle = pool.Submit([&] {
    for (int64_t i = 0; i < 1000; ++i) background_sum.fetch_add(i);
  });
  int64_t foreground_sum = 0;
  for (int64_t i = 0; i < 1000; ++i) foreground_sum += i;
  handle.Wait();
  EXPECT_EQ(background_sum.load(), 999 * 1000 / 2);
  EXPECT_EQ(foreground_sum, 999 * 1000 / 2);
}

}  // namespace
}  // namespace oasis
