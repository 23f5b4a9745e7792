#ifndef BIGDANSING_DATAFLOW_STAGE_EXECUTOR_H_
#define BIGDANSING_DATAFLOW_STAGE_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dataflow/context.h"
#include "obs/profiler.h"
#include "obs/resource_accounting.h"

namespace bigdansing {

/// The single task-scheduling point of the dataflow engine. Every unit of
/// parallel work — map-side fused pipelines, reduce-side merges, join
/// probes, repair components — runs through Run()/RunProducing()/
/// RunMorsels(), and all three share one engine: a stage is a list of
/// units (one per task, or one per morsel) that is uniformly
///
///  - counted (stages/tasks/morsels totals in Metrics),
///  - timed (per-unit CPU time accrued to logical worker `unit % workers`,
///    feeding Metrics::SimulatedWallSeconds()),
///  - attributed to a named stage (a StageReport carrying task count,
///    records in/out, shuffled records and busy/wall seconds), and
///  - recovered: each unit attempt probes the FaultInjector site named
///    after the stage, a body that throws TaskFailure is retried with
///    capped exponential backoff under the context's FaultPolicy, and
///    straggler tasks of producing stages can be speculatively duplicated.
///
/// Recovery semantics (the substrate services Spark/Hadoop provided the
/// paper's system for free, §3):
///
///  - Retry: unit bodies are deterministic per index, so a re-executed
///    attempt reproduces the original result bit-identically — the same
///    argument that makes lineage re-execution sound in Spark. A unit is
///    retried up to FaultPolicy::max_attempts times; a shared per-stage
///    retry budget bounds total re-execution. Exhaustion fails the stage
///    with a non-OK Status (never abort); any exception other than
///    TaskFailure is non-retryable and fails the stage immediately.
///  - Speculation (RunProducing only): once at least half the tasks have
///    committed, a task running longer than `multiplier x median committed
///    task wall time` is duplicated. Attempts write into per-attempt
///    buffers (the body's return value); the first attempt to win the
///    per-unit commit race publishes its buffer, the loser's writes are
///    discarded, so records are never double-counted in the StageReport.
///    Once any attempt of a unit has committed, a failure of another
///    attempt neither retries nor fails the stage. In-place stages (Run)
///    never speculate: their bodies write caller memory directly, so
///    duplicate attempts could race.
///
/// The finished StageReport is the stage's one record: the stage span's
/// annotations, the `stage.*` registry counters and the debug log are all
/// derived from it (Publish), so EXPLAIN shows recovery per stage and
/// reconciles exactly with Metrics::StageReports().
///
/// StageExecutor is a cheap value type: construct one on the spot wherever
/// a stage needs to run.
class StageExecutor {
 public:
  using TaskBody = std::function<void(size_t task, TaskContext& tc)>;

  explicit StageExecutor(ExecutionContext* ctx) : ctx_(ctx) {}

  /// Runs `body(t, tc)` for every task index t in [0, num_tasks) on the
  /// context's worker pool and blocks until all tasks finish (or the stage
  /// fails). `body` must be safe to invoke concurrently for distinct
  /// indices, and is retried on TaskFailure — injected faults fire before
  /// the body runs, so an injected failure never leaves partial writes; a
  /// body that throws TaskFailure itself mid-write must be idempotent.
  ///
  /// When tracing is enabled, the stage gets a span (parented to the calling
  /// thread's innermost scope — rule/operator/phase) and every task attempt
  /// a child span on its logical-worker lane; after the stage finishes, the
  /// stage span is annotated with the StageReport's measured counters so the
  /// runtime EXPLAIN reconciles exactly with Metrics::StageReports().
  [[nodiscard]] Status Run(const std::string& stage_name, size_t num_tasks,
                           const TaskBody& body) const {
    struct Unit {};
    auto result = Execute<Unit>(
        stage_name, num_tasks,
        [&body](size_t t, TaskContext& tc) {
          body(t, tc);
          return Unit{};
        },
        /*allow_speculation=*/false);
    return result.ok() ? Status::OK() : result.status();
  }

  /// Convenience overload for bodies that do not report record counts.
  [[nodiscard]] Status Run(const std::string& stage_name, size_t num_tasks,
                           const std::function<void(size_t)>& body) const {
    return Run(stage_name, num_tasks,
               [&body](size_t t, TaskContext& /*tc*/) { body(t); });
  }

  /// Like Run(), but each task *returns* its output instead of writing it
  /// into caller memory; the engine publishes exactly one committed attempt
  /// per task into slot t of the result. Because attempts are buffered,
  /// producing stages are both retryable and speculation-capable. Prefer
  /// this form for any stage that fills a per-task output slot.
  template <typename T>
  [[nodiscard]] Result<std::vector<T>> RunProducing(
      const std::string& stage_name, size_t num_tasks,
      const std::function<T(size_t, TaskContext&)>& body) const {
    return Execute<T>(stage_name, num_tasks, body, /*allow_speculation=*/true);
  }

  /// Morsel-driven form of RunProducing for splittable stages: task t's
  /// work is `task_units(t)` independent units (rows, blocks, pairs) and
  /// `body(t, begin, end, tc)` processes the half-open unit range,
  /// returning a partial result. The engine cuts each task into
  /// ctx->morsel_rows()-sized morsels and schedules every morsel as its own
  /// unit (so a skewed partition no longer serializes the stage — idle
  /// workers claim its morsels), and the driver folds task t's partials in
  /// ascending unit order with `merge(t, pieces)` — which makes the result
  /// bit-identical to running body(t, 0, task_units(t), tc) whenever merge
  /// is the natural concatenation of range outputs.
  ///
  /// Contracts relative to RunProducing():
  ///  - retry-with-backoff runs at morsel granularity: the FaultInjector
  ///    site (named after the stage) indexes by *global morsel number*, and
  ///    max_attempts / the shared stage retry budget apply per morsel;
  ///  - each morsel's CPU time lands in the StageReport's task_seconds (so
  ///    quantiles/straggler ratio describe the real scheduling units) and
  ///    accrues to logical worker `morsel % workers`, which is what moves
  ///    SimulatedWallSeconds() from max-partition to balanced;
  ///  - no speculation: morsels are small enough that re-execution is
  ///    cheaper than duplicate-and-race.
  template <typename T>
  [[nodiscard]] Result<std::vector<T>> RunMorsels(
      const std::string& stage_name, size_t num_tasks,
      const std::function<size_t(size_t)>& task_units,
      const std::function<T(size_t, size_t, size_t, TaskContext&)>& body,
      const std::function<T(size_t, std::vector<T>&&)>& merge) const {
    // Static split: the morsel list is fixed up front so every morsel has
    // a stable global index — the coordinate used for fault-injection
    // sites, worker-slot accounting and trace lanes, independent of which
    // thread happens to run it.
    const size_t rows = ctx_->morsel_rows();
    std::vector<Morsel> morsels;
    for (size_t t = 0; t < num_tasks; ++t) {
      const size_t units = task_units(t);
      for (size_t begin = 0, piece = 0; begin < units; begin += rows) {
        morsels.push_back(
            Morsel{t, piece++, begin, std::min(units, begin + rows)});
      }
    }
    return Execute<T>(
        stage_name, num_tasks,
        [&](size_t m, TaskContext& tc) {
          const Morsel& morsel = morsels[m];
          return body(morsel.task, morsel.begin, morsel.end, tc);
        },
        /*allow_speculation=*/false, &morsels, &merge);
  }

 private:
  /// Units [begin, end) of task `task`: its `piece`-th morsel.
  struct Morsel {
    size_t task;
    size_t piece;
    size_t begin;
    size_t end;
  };

  /// Heap-held claim and recovery state of one stage. A pool helper that
  /// wakes up after the stage already finished must be able to observe
  /// "nothing left to claim" without touching driver-stack memory, so its
  /// closure holds this by shared_ptr and dereferences the stack-held
  /// Engine only after a successful claim (a claimed unit whose first
  /// execution has not returned pins the driver in Execute).
  struct Shared {
    Shared(size_t units, int64_t budget)
        : retry_budget(budget),
          committed(units),
          started_at(units),
          duplicated(units, false) {
      for (auto& s : started_at) s.store(-1.0, std::memory_order_relaxed);
    }
    std::atomic<size_t> next{0};  // next unclaimed unit
    std::atomic<size_t> done{0};  // units whose first execution returned
    std::atomic<bool> failed{false};
    std::atomic<int64_t> retry_budget;
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> failed_attempts{0};
    std::atomic<uint64_t> spec_launched{0};
    std::atomic<uint64_t> spec_committed{0};
    std::vector<std::atomic<uint8_t>> committed;  // an attempt won the unit
    std::vector<std::atomic<double>> started_at;  // -1 until claimed
    std::vector<bool> duplicated;  // duplicate launched (driver only)
    std::mutex mu;
    Status status = Status::OK();        // first failure (mu)
    std::vector<double> committed_wall;  // per-unit wall durations (mu)
  };

  /// Per-stage view every unit attempt runs against (driver stack).
  template <typename T>
  struct Engine {
    Shared& sh;
    const std::string& stage_name;
    const std::vector<Morsel>* morsels;  // null for task stages
    const std::function<T(size_t, TaskContext&)>& body;
    std::vector<T>& out;
    Metrics& metrics;
    size_t handle;
    size_t workers;
    uint64_t stage_span_id;
    Histogram& task_seconds_hist;
    const FaultPolicy& policy;
    size_t max_attempts;
    bool speculate;
    FaultInjector& injector;
    const Stopwatch& wall;
    const char* kind;  // "task" or "morsel"
    const ActivityDesc* activity;

    bool Committed(size_t u) const {
      return sh.committed[u].load(std::memory_order_acquire) != 0;
    }

    void Fail(Status st) {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (!sh.failed.load(std::memory_order_relaxed)) {
        sh.status = std::move(st);
        sh.failed.store(true, std::memory_order_release);
      }
    }

    /// Trace span name of unit u: `stage#task` or `stage#task.piece`.
    std::string SpanName(size_t u) const {
      if (morsels == nullptr) return stage_name + "#" + std::to_string(u);
      const Morsel& m = (*morsels)[u];
      return stage_name + "#" + std::to_string(m.task) + "." +
             std::to_string(m.piece);
    }

    enum Outcome { kCommitted, kLost, kRetryable, kFatal };

    Outcome AttemptOnce(size_t u, size_t attempt, bool speculative) {
      std::optional<ScopedSpan> span;
      if (stage_span_id != 0) {
        span.emplace(SpanName(u), kind, stage_span_id,
                     static_cast<int64_t>(u % workers));
        if (attempt > 0) {
          span->Annotate("attempt", static_cast<uint64_t>(attempt));
        }
        if (speculative) span->Annotate("speculative", uint64_t{1});
      }
      // Publish what this worker is doing for the sampling profiler;
      // nested on top of the pool's generic "run" activity.
      ScopedActivity act(activity);
      ThreadCpuStopwatch timer;
      const ThreadAllocCounters alloc_before = ThreadAllocations();
      TaskContext tc;
      tc.attempt = attempt;
      tc.speculative = speculative;
      try {
        // The injection site fires before the body, so a failed attempt
        // has performed no work and a retry starts from a clean slate.
        injector.OnSite(stage_name, u, attempt);
        T value = body(u, tc);
        const ThreadAllocCounters alloc_after = ThreadAllocations();
        tc.alloc_bytes = alloc_after.bytes - alloc_before.bytes;
        tc.allocs = alloc_after.count - alloc_before.count;
        const double busy = timer.ElapsedSeconds();
        // Observed after the CPU timer stopped, so the histogram update
        // does not inflate the simulated-wall accounting.
        task_seconds_hist.Observe(busy);
        // Losers still burned a worker: their time counts toward the
        // simulated cluster wall, just never into the stage's records.
        metrics.RecordTaskTime(u % workers, busy);
        uint8_t expected = 0;
        if (!sh.committed[u].compare_exchange_strong(expected, 1)) {
          if (span) span->Annotate("discarded", uint64_t{1});
          return kLost;
        }
        out[u] = std::move(value);
        metrics.AccumulateTask(handle, tc, busy, morsels != nullptr);
        if (speculative) {
          sh.spec_committed.fetch_add(1, std::memory_order_relaxed);
        }
        if (speculate) {
          std::lock_guard<std::mutex> lock(sh.mu);
          const double started =
              sh.started_at[u].load(std::memory_order_relaxed);
          if (started >= 0.0) {
            sh.committed_wall.push_back(wall.ElapsedSeconds() - started);
          }
        }
        if (span) {
          span->Annotate("records_in", tc.records_in);
          span->Annotate("records_out", tc.records_out);
          span->Annotate("busy_seconds", busy);
        }
        return kCommitted;
      } catch (const TaskFailure& failure) {
        metrics.RecordTaskTime(u % workers, timer.ElapsedSeconds());
        sh.failed_attempts.fetch_add(1, std::memory_order_relaxed);
        if (span) span->Annotate("failed", std::string(failure.what()));
        return kRetryable;
      } catch (const std::exception& e) {
        sh.failed_attempts.fetch_add(1, std::memory_order_relaxed);
        if (span) span->Annotate("failed", std::string(e.what()));
        if (!Committed(u)) {
          Fail(Status::Internal("stage '" + stage_name + "' " + kind + " " +
                                std::to_string(u) +
                                " threw non-retryable exception: " + e.what()));
        }
        return kFatal;
      }
    }

    /// First (non-speculative) execution of unit u: retry loop with capped
    /// exponential backoff under the stage's FaultPolicy. Stops as soon as
    /// any attempt of u committed — a failure after its duplicate won is
    /// neither retried nor charged to the stage.
    void RunPrimary(size_t u) {
      sh.started_at[u].store(wall.ElapsedSeconds(),
                             std::memory_order_relaxed);
      size_t attempt = 0;
      double backoff_ms = policy.backoff_initial_ms;
      while (!sh.failed.load(std::memory_order_acquire)) {
        if (AttemptOnce(u, attempt, false) != kRetryable || Committed(u)) {
          return;
        }
        if (++attempt >= max_attempts) {
          Fail(Status::Internal("stage '" + stage_name + "': " + kind + " " +
                                std::to_string(u) + " failed after " +
                                std::to_string(attempt) + " attempt(s)"));
          return;
        }
        if (sh.retry_budget.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
          Fail(Status::Internal(
              "stage '" + stage_name + "': retry budget exhausted (" +
              std::to_string(policy.stage_retry_budget) + ")"));
          return;
        }
        sh.retries.fetch_add(1, std::memory_order_relaxed);
        SleepForMs(std::min(backoff_ms, policy.backoff_max_ms));
        backoff_ms *= 2.0;
      }
    }

    /// Driver-side straggler monitor pass: duplicates at most one unit
    /// whose elapsed wall time exceeds the speculation threshold. The
    /// duplicate runs inline on the driver — submitting it to the pool
    /// could queue it behind the very straggler it is meant to bypass.
    void TrySpeculate() {
      const size_t units = sh.committed.size();
      double median = 0.0;
      {
        std::lock_guard<std::mutex> lock(sh.mu);
        if (sh.committed_wall.size() < std::max<size_t>(2, units / 2)) {
          return;
        }
        std::vector<double> sorted = sh.committed_wall;
        std::sort(sorted.begin(), sorted.end());
        median = sorted[(sorted.size() - 1) / 2];
      }
      const double now = wall.ElapsedSeconds();
      const double threshold = std::max(policy.speculation_min_seconds,
                                        policy.speculation_multiplier * median);
      for (size_t u = 0; u < units; ++u) {
        if (sh.duplicated[u] || Committed(u)) continue;
        const double started =
            sh.started_at[u].load(std::memory_order_relaxed);
        if (started < 0.0) continue;  // not yet claimed
        if (now - started < threshold) continue;
        sh.duplicated[u] = true;
        sh.spec_launched.fetch_add(1, std::memory_order_relaxed);
        // The duplicate gets an attempt number past the retry range so
        // its injector draws are independent of the primary's.
        AttemptOnce(u, max_attempts, true);
        return;
      }
    }
  };

  /// Claim loop of the driver and of every pool helper: claims and runs
  /// units until none is left. A helper touches only `sh` until a claim
  /// succeeds; a claimed unit keeps the driver inside Execute until its
  /// `done` increment, the claimer's last use of `engine`.
  template <typename T>
  static void ClaimUnits(Shared& sh, Engine<T>* engine) {
    const size_t units = sh.committed.size();
    for (;;) {
      const size_t u = sh.next.fetch_add(1, std::memory_order_relaxed);
      if (u >= units) return;
      engine->RunPrimary(u);
      sh.done.fetch_add(1, std::memory_order_release);
    }
  }

  /// The stage engine behind Run, RunProducing and RunMorsels. The stage's
  /// units — one per task, or one per morsel when `morsels` is given — are
  /// claimed from one atomic counter by the driver and up to
  /// min(threads, units - 1) pool helpers (the driver participates, so
  /// nested stages cannot deadlock a busy pool), each claimed unit runs
  /// the retry loop, and when speculation is allowed and enabled the driver
  /// then monitors for stragglers until every unit's first execution has
  /// returned. A morsel stage folds each task's pieces with `merge` before
  /// the stage closes, so the stage wall covers the merge.
  template <typename T>
  Result<std::vector<T>> Execute(
      const std::string& stage_name, size_t num_tasks,
      const std::function<T(size_t, TaskContext&)>& body,
      bool allow_speculation, const std::vector<Morsel>* morsels = nullptr,
      const std::function<T(size_t, std::vector<T>&&)>* merge =
          nullptr) const {
    const size_t num_units = morsels ? morsels->size() : num_tasks;
    const char* kind = morsels ? "morsel" : "task";
    Metrics& metrics = ctx_->metrics();
    std::optional<ScopedSpan> stage_span;
    if (TraceRecorder::Instance().enabled()) {
      stage_span.emplace(stage_name, "stage");
    }
    if (LogEnabled(LogLevel::kDebug)) {
      BD_LOG(Debug) << "stage begin: " << stage_name
                    << " tasks=" << num_tasks;
    }
    const size_t handle = metrics.BeginStage(stage_name, num_tasks);
    FaultInjector::Instance().OnStageStart(stage_name);
    // Resource accounting brackets the stage: RSS and steal-counter deltas
    // between here and FinishStage land in the StageReport.
    StageResourceProbe resource_probe;
    Stopwatch wall;
    std::vector<T> out(num_units);

    const FaultPolicy policy = ctx_->fault_policy();
    const bool speculate =
        allow_speculation && policy.speculation && num_units >= 2;
    auto shared = std::make_shared<Shared>(
        num_units, static_cast<int64_t>(policy.stage_retry_budget));
    Engine<T> engine{*shared,
                     stage_name,
                     morsels,
                     body,
                     out,
                     metrics,
                     handle,
                     ctx_->num_workers(),
                     stage_span ? stage_span->id() : 0,
                     MetricsRegistry::Instance().GetHistogram(
                         "stage.task_seconds"),
                     policy,
                     std::max<size_t>(1, policy.max_attempts),
                     speculate,
                     FaultInjector::Instance(),
                     wall,
                     kind,
                     Profiler::Instance().Intern(stage_name, kind)};

    Engine<T>* engine_ptr = &engine;
    const size_t helper_count =
        num_units == 0 ? 0
                       : std::min(ctx_->pool().num_threads(), num_units - 1);
    for (size_t h = 0; h < helper_count; ++h) {
      ctx_->pool().Submit(
          [shared, engine_ptr]() { ClaimUnits(*shared, engine_ptr); });
    }
    ClaimUnits(*shared, engine_ptr);
    while (shared->done.load(std::memory_order_acquire) < num_units) {
      if (!speculate) {
        std::this_thread::yield();
        continue;
      }
      if (!shared->failed.load(std::memory_order_relaxed)) {
        engine.TrySpeculate();
      }
      SleepForMs(0.2);
    }

    metrics.RecordStageRecovery(
        handle, shared->retries.load(std::memory_order_relaxed),
        shared->failed_attempts.load(std::memory_order_relaxed),
        shared->spec_launched.load(std::memory_order_relaxed),
        shared->spec_committed.load(std::memory_order_relaxed));
    const bool failed = shared->failed.load(std::memory_order_acquire);
    if (!failed && merge != nullptr) {
      // Deterministic commit: morsels are numbered in (task, piece) order,
      // so each task's partials fold in unit-range order on the driver and
      // the output is independent of execution interleaving.
      std::vector<std::vector<T>> pieces(num_tasks);
      for (size_t m = 0; m < num_units; ++m) {
        pieces[(*morsels)[m].task].push_back(std::move(out[m]));
      }
      std::vector<T> merged(num_tasks);
      for (size_t t = 0; t < num_tasks; ++t) {
        merged[t] = (*merge)(t, std::move(pieces[t]));
      }
      out = std::move(merged);
    }
    metrics.RecordStageResources(handle, resource_probe.RssDeltaBytes(),
                                 resource_probe.StealsDelta());
    metrics.FinishStage(handle, wall.ElapsedSeconds());
    Publish(metrics.StageReportFor(handle),
            stage_span ? &*stage_span : nullptr);
    if (failed) {
      std::lock_guard<std::mutex> lock(shared->mu);
      BD_LOG(Warning) << "stage failed: " << stage_name << " — "
                      << shared->status.ToString();
      return shared->status;
    }
    return out;
  }

  /// Fans the finished stage's report out to the other sinks: annotations
  /// on its span, the process-wide `stage.*` counters and the debug log.
  /// Record counts use exact integers and times the same %.6f formatting
  /// as Metrics::StageReportsJson(), so EXPLAIN output reconciles with the
  /// stage reports without rounding drift.
  static void Publish(const StageReport& r, ScopedSpan* span) {
    if (span != nullptr) {
      span->Annotate("tasks", r.tasks);
      span->Annotate("records_in", r.records_in);
      span->Annotate("records_out", r.records_out);
      if (r.records_in > 0) {
        span->Annotate("selectivity", static_cast<double>(r.records_out) /
                                          static_cast<double>(r.records_in));
      }
      span->Annotate("shuffled_records", r.shuffled_records);
      span->Annotate("busy_seconds", r.busy_seconds);
      if (r.morsels > 0) span->Annotate("morsels", r.morsels);
      // Resource accounting annotations only when they measured something,
      // so platforms without the hooks keep their EXPLAIN output unchanged.
      if (r.alloc_bytes > 0) span->Annotate("alloc_bytes", r.alloc_bytes);
      if (r.allocs > 0) span->Annotate("allocs", r.allocs);
      if (r.rss_delta_bytes != 0) {
        span->Annotate("rss_delta_bytes", std::to_string(r.rss_delta_bytes));
      }
      if (r.steals > 0) span->Annotate("steals", r.steals);
      span->Annotate("task_seconds_min", r.TaskMinSeconds());
      span->Annotate("task_seconds_p50", r.TaskP50Seconds());
      span->Annotate("task_seconds_max", r.TaskMaxSeconds());
      span->Annotate("straggler_ratio", r.StragglerRatio());
      // Recovery annotations only when the stage actually saw recovery
      // activity, so fault-free EXPLAIN output stays unchanged.
      if (r.retries > 0) span->Annotate("retries", r.retries);
      if (r.failed_attempts > 0) {
        span->Annotate("failed_attempts", r.failed_attempts);
      }
      if (r.speculative_launched > 0) {
        span->Annotate("speculative_launched", r.speculative_launched);
      }
      if (r.speculative_committed > 0) {
        span->Annotate("speculative_committed", r.speculative_committed);
      }
    }
    MetricsRegistry& registry = MetricsRegistry::Instance();
    const std::pair<const char*, uint64_t> counters[] = {
        {"stage.morsels", r.morsels},
        {"stage.alloc_bytes", r.alloc_bytes},
        {"stage.retries", r.retries},
        {"stage.failed_attempts", r.failed_attempts},
        {"stage.speculative_launched", r.speculative_launched},
        {"stage.speculative_committed", r.speculative_committed}};
    for (const auto& [name, value] : counters) {
      if (value > 0) registry.GetCounter(name).Add(value);
    }
    if (LogEnabled(LogLevel::kDebug)) {
      BD_LOG(Debug) << "stage end: " << r.name
                    << (r.morsels > 0
                            ? " morsels=" + std::to_string(r.morsels)
                            : std::string())
                    << " wall=" << r.wall_seconds
                    << "s retries=" << r.retries;
    }
  }

  ExecutionContext* ctx_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_DATAFLOW_STAGE_EXECUTOR_H_
