#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/metrics_registry.h"
#include "obs/profiler.h"

namespace bigdansing {

namespace {

// Identifies the pool (and worker slot) owning the current thread, so
// Submit can push onto the local deque and WaitIdle/ParallelFor know to
// help-drain instead of blocking. Non-worker threads keep the defaults.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker = 0;

constexpr size_t kNoWorker = static_cast<size_t>(-1);

size_t CurrentWorkerIn(const ThreadPool* pool) {
  return tls_pool == pool ? tls_worker : kNoWorker;
}

}  // namespace

size_t ThreadPool::DefaultThreadCount() {
  size_t hw = std::thread::hardware_concurrency();
  return EnvThreadsOr(hw == 0 ? 1 : hw);
}

size_t ThreadPool::EnvThreadsOr(size_t fallback) {
  // Re-read on every call: pools are constructed rarely and tests toggle
  // the variable with setenv between contexts.
  if (const char* env = std::getenv("BD_THREADS")) {
    char* end = nullptr;
    long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      return static_cast<size_t>(value);
    }
  }
  return fallback == 0 ? 1 : fallback;
}

ThreadPool::ThreadPool() : ThreadPool(DefaultThreadCount()) {}

ThreadPool::ThreadPool(size_t num_threads) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  queue_depth_gauge_ = &registry.GetGauge("threadpool.queue_depth");
  active_workers_gauge_ = &registry.GetGauge("threadpool.active_workers");
  tasks_counter_ = &registry.GetCounter("threadpool.tasks_executed");
  steals_counter_ = &registry.GetCounter("threadpool.steals");
  pool_activity_ = Profiler::Instance().Intern("(threadpool)", "run");
  if (num_threads == 0) num_threads = 1;
  workers_ = std::vector<Worker>(num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  // Workers drain every deque before exiting, so queued tasks still run.
  task_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const size_t home = CurrentWorkerIn(this);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Local submissions go on the submitter's own deque (popped LIFO, so a
    // worker stays on the cache-warm work it just created); external ones
    // spread round-robin so stealing is the exception, not the rule.
    size_t target =
        home != kNoWorker ? home : (submit_cursor_++ % workers_.size());
    workers_[target].tasks.push_back(std::move(task));
    ++pending_;
    ++in_flight_;
    // Inside the lock so the matching decrement (issued after the pop,
    // which also needs the lock) can never be observed first.
    queue_depth_gauge_->Add(1);
  }
  task_available_.notify_one();
}

bool ThreadPool::PopTaskLocked(size_t home, std::function<void()>* task) {
  if (pending_ == 0) return false;
  const size_t n = workers_.size();
  if (home != kNoWorker && !workers_[home].tasks.empty()) {
    *task = std::move(workers_[home].tasks.back());
    workers_[home].tasks.pop_back();
    --pending_;
    return true;
  }
  // Steal the oldest task of another deque; scanning from home+1 spreads
  // the victims. Non-worker helpers scan from the round-robin cursor.
  const size_t start = home != kNoWorker ? home + 1 : submit_cursor_;
  for (size_t k = 0; k < n; ++k) {
    Worker& victim = workers_[(start + k) % n];
    if (victim.tasks.empty()) continue;
    *task = std::move(victim.tasks.front());
    victim.tasks.pop_front();
    --pending_;
    steals_counter_->Add(1);
    return true;
  }
  return false;
}

void ThreadPool::RunTask(std::function<void()> task) {
  queue_depth_gauge_->Add(-1);
  active_workers_gauge_->Add(1);
  {
    // Baseline activity for the sampling profiler; stage bodies overlay
    // their own (stage, kind) on top and pop back to this on return.
    ScopedActivity activity(pool_activity_);
    task();
  }
  // Gauge updates precede the in_flight_ decrement: once WaitIdle()
  // observes zero in-flight tasks, both gauges already net to zero.
  tasks_counter_->Add(1);
  active_workers_gauge_->Add(-1);
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    idle = --in_flight_ == 0;
  }
  if (idle) all_done_.notify_all();
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!PopTaskLocked(CurrentWorkerIn(this), &task)) return false;
  }
  RunTask(std::move(task));
  return true;
}

void ThreadPool::WaitIdle() {
  if (tls_pool == this) {
    // Called from inside a pool task: blocking on all_done_ would deadlock
    // (this frame's own task counts as in-flight). Help drain instead, and
    // yield while other workers finish tasks they already popped.
    while (true) {
      if (TryRunOneTask()) continue;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        // One in-flight task is this frame itself.
        if (in_flight_ <= 1) return;
      }
      std::this_thread::yield();
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_pool = this;
  tls_worker = index;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || pending_ > 0; });
      if (!PopTaskLocked(index, &task)) {
        if (shutdown_) return;
        continue;
      }
    }
    RunTask(std::move(task));
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& body) {
  if (count == 0) return;
  // The calling thread always participates, so ParallelFor is safe to nest
  // inside pool tasks (a blocked-waiting caller could deadlock a small
  // pool). Pool workers join as helpers when idle. Indices are claimed in
  // chunks from a shared counter; the shared state is heap-held so helpers
  // that wake after the caller returned only touch valid memory (they then
  // see an exhausted counter and exit without dereferencing `body`).
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    size_t count = 0;
    size_t chunk = 1;
    const std::function<void(size_t)>* body = nullptr;
  };
  auto state = std::make_shared<State>();
  state->count = count;
  state->chunk = std::max<size_t>(1, count / (threads_.size() * 8 + 1));
  state->body = &body;
  auto work = [state] {
    while (true) {
      size_t begin = state->next.fetch_add(state->chunk);
      if (begin >= state->count) return;
      size_t end = std::min(state->count, begin + state->chunk);
      for (size_t i = begin; i < end; ++i) (*state->body)(i);
      state->completed.fetch_add(end - begin);
    }
  };
  size_t helpers = threads_.size() < count ? threads_.size() : count;
  for (size_t h = 0; h + 1 < helpers; ++h) Submit(work);
  work();
  // All indices are claimed once `work` returns, but helpers may still be
  // finishing their last chunk — and, when nested, may themselves be stuck
  // behind tasks queued ahead of them. Help drain the pool instead of
  // spinning idle so a waiting caller is never dead weight.
  while (state->completed.load(std::memory_order_acquire) != count) {
    if (!TryRunOneTask()) std::this_thread::yield();
  }
}

}  // namespace bigdansing
