#ifndef OASIS_COMMON_THREAD_POOL_H_
#define OASIS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace oasis {

/// Cooperative cancellation flag shared between a caller and running work.
///
/// A producer (e.g. a UI thread or a watchdog) calls RequestCancel(); workers
/// poll cancelled() between units of work and stop early. Cancellation is
/// level-triggered and sticky: once requested it never resets, so a token is
/// one-shot — create a fresh token per run. All methods are thread-safe.
class CancellationToken {
 public:
  /// Requests cancellation. Idempotent; safe from any thread.
  void RequestCancel() noexcept {
    cancelled_.store(true, std::memory_order_release);
  }

  /// Whether cancellation has been requested.
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Work-stealing thread pool with a blocking ParallelFor.
///
/// A fixed set of worker threads each owns a task deque. A worker pops from
/// the back of its own deque (LIFO, cache-friendly for recently pushed work)
/// and, when empty, steals from the front of a sibling's deque (FIFO, so the
/// oldest — typically largest-remaining — chunks migrate first). Loop bodies
/// execute ONLY on the pool's workers: a ThreadPool(N) runs at most N bodies
/// concurrently (so N=1 is a true serial baseline), and an external caller
/// blocks rather than adding an unaccounted N+1th executor. The exception is
/// a nested ParallelFor issued from inside a task: the issuing worker keeps
/// executing queued chunks while it waits, so nesting cannot deadlock even
/// on a 1-worker pool.
///
/// The pool is intended for coarse-grained tasks (an experiment repeat, a
/// shard of a pool) where per-task overhead of a mutex-guarded deque is
/// negligible; it is not a substitute for SIMD-grade loop parallelism.
///
/// Thread-safety: ParallelFor may be called concurrently from multiple
/// threads and re-entrantly from inside a task body (helping execution keeps
/// nested calls live), though deep nesting is discouraged.
class ThreadPool {
 public:
  /// Creates the pool. `num_threads <= 0` selects DefaultThreadCount().
  explicit ThreadPool(int num_threads = 0);

  /// Joins all workers. Must not be called while a ParallelFor is in flight
  /// on another thread, or concurrently with Submit() (normal usage — pool
  /// outlives its loops and handles — satisfies this trivially). Submitted
  /// tasks still queued at destruction are executed by the exiting workers,
  /// so every TaskHandle completes; prefer Wait()ing on handles before the
  /// pool dies.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding helping callers).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency, clamped to at least 1.
  static int DefaultThreadCount();

  /// Handle to one task enqueued with Submit(). Default-constructed handles
  /// are empty; Wait() on them is a no-op. Handles are cheap shared
  /// references: copies observe the same task.
  class TaskHandle {
   public:
    TaskHandle() = default;

    /// Blocks until the task has run. If no worker has picked the task up
    /// yet, the caller claims and executes it inline — so Wait() makes
    /// progress even when every worker is busy (or the pool has one thread
    /// and the caller *is* that thread's current task), and submit-then-wait
    /// can never deadlock. Rethrows the task's exception, if any (every
    /// Wait() call on the handle rethrows it).
    void Wait();

    /// Whether the task has finished running (does not block).
    bool done() const;

    /// True when the handle refers to a task (i.e. came from Submit()).
    bool valid() const { return state_ != nullptr; }

   private:
    friend class ThreadPool;
    struct SubmitState;
    std::shared_ptr<SubmitState> state_;
  };

  /// Enqueues one task for asynchronous execution on the pool's workers and
  /// returns immediately. The task runs exactly once: on whichever worker
  /// dequeues it first, or inline on the thread that calls
  /// TaskHandle::Wait() before any worker got to it. Exceptions thrown by
  /// `fn` are captured and rethrown from Wait().
  ///
  /// This is the single-task sibling of ParallelFor, intended for
  /// fire-and-collect background work (e.g. the session server's queued
  /// label requests, SessionManager::AdvanceAsync) rather than data
  /// parallelism.
  TaskHandle Submit(std::function<void()> fn);

  /// Runs `body(i)` for every i in [begin, end), fanned out across the
  /// pool's workers, and blocks until the loop finishes. The calling thread
  /// never executes bodies unless it is itself one of this pool's workers
  /// issuing a nested call (see the class comment).
  ///
  /// Exception propagation: the first exception thrown by any invocation of
  /// `body` is captured, remaining not-yet-started iterations are skipped,
  /// and the exception is rethrown on the calling thread once in-flight
  /// iterations have drained.
  ///
  /// Cancellation: when `cancel` is non-null and fires, workers stop picking
  /// up new iterations (in-flight ones complete). Returns true when every
  /// iteration ran, false when cancellation cut the loop short. An empty
  /// range returns true immediately.
  ///
  /// Iterations may run in any order on any worker thread; `body` must be
  /// safe to invoke concurrently from multiple threads.
  bool ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t)>& body,
                   const CancellationToken* cancel = nullptr);

 private:
  /// Shared bookkeeping of one ParallelFor call.
  struct LoopState {
    const std::function<void(int64_t)>* body = nullptr;
    const CancellationToken* cancel = nullptr;
    /// Chunks not yet finished; the loop is complete when this hits zero.
    std::atomic<int64_t> pending_chunks{0};
    /// Set on first exception or external cancellation: later iterations are
    /// skipped (their chunks still drain pending_chunks).
    std::atomic<bool> abort{false};
    std::atomic<bool> saw_cancel{false};
    std::exception_ptr first_exception;
    std::mutex exception_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };

  /// One unit of queued work: either a contiguous index chunk [lo, hi) of a
  /// ParallelFor (`state` set) or a single submitted task (`submit` set).
  struct Task {
    std::shared_ptr<LoopState> state;
    std::shared_ptr<TaskHandle::SubmitState> submit;
    int64_t lo = 0;
    int64_t hi = 0;
  };

  /// A worker's mutex-guarded deque. Own pops take the back; thieves take
  /// the front.
  struct Worker {
    std::deque<Task> queue;
    std::mutex mutex;
  };

  void WorkerLoop(size_t worker_index);

  /// Pops one task — own queue first (when `self` is a worker index), then
  /// steals round-robin from the others. Returns false when every queue is
  /// empty. `self < 0` means the caller is not a pool worker.
  bool TryRunOneTask(int self);

  /// ExecuteTask plus the pool's telemetry (dequeue-kind counter, queue
  /// depth, task latency — see docs/TELEMETRY.md); `stolen` records which
  /// dequeue path delivered the task.
  void ExecuteDequeued(const Task& task, bool stolen);

  static void ExecuteTask(const Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  /// Tasks pushed but not yet dequeued, across all queues; lets idle workers
  /// sleep without scanning queues.
  std::atomic<int64_t> queued_tasks_{0};
  std::atomic<bool> stop_{false};
  /// Round-robin cursor for distributing a loop's chunks across queues.
  std::atomic<size_t> push_cursor_{0};
};

}  // namespace oasis

#endif  // OASIS_COMMON_THREAD_POOL_H_
