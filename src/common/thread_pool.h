#ifndef BIGDANSING_COMMON_THREAD_POOL_H_
#define BIGDANSING_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bigdansing {

class Counter;
class Gauge;
struct ActivityDesc;

/// Work-stealing worker pool behind the dataflow engine. Its deques carry
/// StageExecutor helpers (one closure per helper thread of a stage, which
/// then claims the stage's tasks or morsels from the stage's own counter)
/// and ParallelFor work. Each worker owns a deque: tasks submitted from a
/// worker thread push onto that worker's own deque and are popped LIFO
/// (newest first — keeps a worker on the cache-warm work it just
/// produced), while idle workers steal FIFO from the *front* of other
/// deques (oldest first — steals grab the work least likely to be in the
/// victim's cache). Tasks submitted from non-worker threads are
/// distributed round-robin across the deques.
///
/// Re-entrancy: a task that calls back into its own pool never blocks on
/// queued work. ParallelFor and WaitIdle (when invoked on a worker thread)
/// drain tasks via TryRunOneTask() instead of sleeping, so nested
/// ParallelFor / nested stages cannot deadlock even on a 1-thread pool.
///
/// Feeds four process-wide registry metrics (all pools share them; the
/// queue/active accounting nets to zero per task, so those gauges read zero
/// whenever every pool is idle): `threadpool.queue_depth`,
/// `threadpool.active_workers`, `threadpool.tasks_executed`, and
/// `threadpool.steals` (tasks taken from a deque other than the runner's
/// own — the work-stealing traffic). Updates sit outside the worker-timed
/// task body and cost one relaxed atomic each.
class ThreadPool {
 public:
  /// Creates DefaultThreadCount() workers.
  ThreadPool();
  /// Creates `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Worker count from the environment: BD_THREADS when set to a positive
  /// integer, else std::thread::hardware_concurrency() (min 1).
  static size_t DefaultThreadCount();

  /// BD_THREADS when set, else `fallback`. Pool construction sites with a
  /// semantic worker count (ExecutionContext's simulated cluster size) pass
  /// it here so the env var can override the physical thread count without
  /// changing the logical topology.
  static size_t EnvThreadsOr(size_t fallback);

  /// Enqueues a task for asynchronous execution. From a worker thread of
  /// this pool the task lands on that worker's own deque (LIFO); otherwise
  /// deques are fed round-robin.
  void Submit(std::function<void()> task);

  /// Blocks until all previously submitted tasks have finished. On a worker
  /// thread of this pool it helps drain the queues instead of blocking, so
  /// a task may wait for tasks it submitted itself.
  void WaitIdle();

  /// Runs body(i) for i in [0, count) across the pool and waits.
  /// `body` must be safe to invoke concurrently for distinct indices.
  /// Safe to nest inside pool tasks: the caller participates and helps
  /// drain queued tasks while waiting for stragglers.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

  /// Pops one queued task (own deque first, then stealing) and runs it on
  /// the calling thread. Returns false when every deque is empty. The
  /// help-drain primitive used by waiting drivers; callable from any
  /// thread.
  bool TryRunOneTask();

 private:
  struct Worker {
    std::deque<std::function<void()>> tasks;
  };

  /// Takes one task: LIFO from `home`'s deque when `home` is a valid
  /// worker index, else FIFO-steals from the front of another deque
  /// (scanning from home+1 so contention spreads). Decrements pending_.
  /// Requires mutex_. Returns false when all deques are empty.
  bool PopTaskLocked(size_t home, std::function<void()>* task);

  /// Executes one dequeued task with the gauge/counter bookkeeping and the
  /// in-flight decrement that wakes WaitIdle.
  void RunTask(std::function<void()> task);

  void WorkerLoop(size_t index);

  std::vector<std::thread> threads_;
  // Registry handles resolved once at construction (stable for the process
  // lifetime) so the per-task updates are plain atomic ops, no map lookups.
  Gauge* queue_depth_gauge_ = nullptr;
  Gauge* active_workers_gauge_ = nullptr;
  Counter* tasks_counter_ = nullptr;
  Counter* steals_counter_ = nullptr;
  /// Interned "(threadpool)" activity published around every task body, so
  /// profiler samples of pool work that predates its stage's ScopedActivity
  /// (or has none) still attribute to the pool instead of "(idle)".
  const ActivityDesc* pool_activity_ = nullptr;
  std::vector<Worker> workers_;
  /// Round-robin cursor for external submissions.
  size_t submit_cursor_ = 0;
  /// Queued-but-not-popped tasks across all deques (mutex_).
  size_t pending_ = 0;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  /// Submitted tasks not yet finished (queued + running).
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace bigdansing

#endif  // BIGDANSING_COMMON_THREAD_POOL_H_
