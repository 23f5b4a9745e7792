#ifndef BIGDANSING_DATAFLOW_METRICS_H_
#define BIGDANSING_DATAFLOW_METRICS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/string_util.h"

namespace bigdansing {

class Metrics;

/// Wall-clock milliseconds since the Unix epoch — the timebase stage
/// reports stamp their open/close moments with so /stages entries line up
/// with Chrome-trace spans and external logs.
inline uint64_t UnixMillisNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Live-metrics directory hooks (defined in obs/stage_directory.cc): every
/// Metrics instance announces itself for the observability endpoints'
/// /stages snapshot. Free functions so this header stays obs-agnostic.
void RegisterLiveMetrics(const Metrics* metrics);
void UnregisterLiveMetrics(const Metrics* metrics);

/// Per-task counters filled in by stage task bodies and folded into the
/// owning stage's StageReport by the StageExecutor. Each task gets its own
/// instance, so bodies update it without synchronization.
struct TaskContext {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  /// Records this task pushed across a shuffle boundary.
  uint64_t shuffled_records = 0;
  /// Which attempt of the task this is (0 = first). Retried attempts see
  /// increasing values; a speculative duplicate gets a distinct attempt
  /// number. Set by the StageExecutor before the body runs.
  uint64_t attempt = 0;
  /// True when this attempt is a speculative duplicate of a straggler.
  bool speculative = false;
  /// Heap traffic of the committed attempt (bytes requested / allocation
  /// count), measured by the counting allocator on the executing thread.
  uint64_t alloc_bytes = 0;
  uint64_t allocs = 0;
};

/// Structured record of one executed stage — the EXPLAIN-style breakdown
/// the benches export as JSON. `busy_seconds` is the sum of per-task CPU
/// time; `wall_seconds` is the driver-observed duration of the stage.
/// `task_seconds` holds each finished task's CPU time (sorted ascending
/// once the stage is finished), from which the skew accessors derive the
/// min/p50/max quantiles and the straggler ratio.
struct StageReport {
  std::string name;
  uint64_t tasks = 0;
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t shuffled_records = 0;
  double busy_seconds = 0.0;
  double wall_seconds = 0.0;
  /// Recovery activity (see StageExecutor): how many task attempts were
  /// re-executed after a TaskFailure, how many attempts failed, and how
  /// many speculative duplicates were launched / won their race. Exactly
  /// one attempt per task is folded into the record counts above, so these
  /// never inflate records_in/out.
  uint64_t retries = 0;
  uint64_t failed_attempts = 0;
  uint64_t speculative_launched = 0;
  uint64_t speculative_committed = 0;
  /// Row-range morsels executed when the stage was a morsel stage
  /// (RunMorsels; 0 for task stages). When non-zero, each entry of
  /// `task_seconds` is one morsel's CPU time, so the quantiles and
  /// straggler ratio measure the scheduler's actual work units.
  uint64_t morsels = 0;
  /// Resource accounting (see obs/resource_accounting.h): heap traffic of
  /// the stage's committed attempts, the process RSS delta and the number
  /// of cross-worker steals observed between stage open and close. The RSS
  /// delta is process-wide, so concurrent stages each see the shared
  /// movement — useful for trend, not attribution.
  uint64_t alloc_bytes = 0;
  uint64_t allocs = 0;
  int64_t rss_delta_bytes = 0;
  uint64_t steals = 0;
  /// Wall-clock stamps of stage open and close (Unix epoch milliseconds)
  /// for correlating /stages entries with Chrome-trace spans. `end_ms` is
  /// 0 while the stage is still in flight.
  uint64_t start_ms = 0;
  uint64_t end_ms = 0;
  /// False while the stage is still executing (the live /stages endpoint
  /// reports such partial, in-flight reports); FinishStage sets it.
  bool finished = false;
  std::vector<double> task_seconds;

  /// Fastest task's CPU seconds (0 when no task finished).
  double TaskMinSeconds() const {
    if (task_seconds.empty()) return 0.0;
    return *std::min_element(task_seconds.begin(), task_seconds.end());
  }

  /// Median task CPU seconds (lower median; 0 when no task finished).
  double TaskP50Seconds() const {
    if (task_seconds.empty()) return 0.0;
    std::vector<double> sorted = task_seconds;
    std::sort(sorted.begin(), sorted.end());
    return sorted[(sorted.size() - 1) / 2];
  }

  /// Slowest task's CPU seconds (0 when no task finished).
  double TaskMaxSeconds() const {
    if (task_seconds.empty()) return 0.0;
    return *std::max_element(task_seconds.begin(), task_seconds.end());
  }

  /// Slowest task over mean task time — 1.0 is perfectly balanced, large
  /// values mean one straggler dominated the stage. 0 when no task
  /// finished; 1.0 when all tasks took (near) zero time.
  double StragglerRatio() const {
    if (task_seconds.empty()) return 0.0;
    double sum = 0.0;
    for (double t : task_seconds) sum += t;
    const double mean = sum / static_cast<double>(task_seconds.size());
    if (mean <= 0.0) return 1.0;
    return TaskMaxSeconds() / mean;
  }
};

/// Execution counters gathered by the dataflow engine. Because this
/// reproduction runs on one machine, scaling behaviour is evidenced both by
/// wall time and by these work measures (records shuffled across partitions,
/// stages executed, tasks launched, pairs enumerated). Stages launched via
/// the StageExecutor additionally contribute a named StageReport each.
class Metrics {
 public:
  /// Instances register with the live-metrics directory so the /stages
  /// observability endpoint can snapshot in-flight runs; the destructor
  /// blocks until any concurrent snapshot completes before unregistering.
  Metrics() { RegisterLiveMetrics(this); }
  ~Metrics() { UnregisterLiveMetrics(this); }

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  void AddShuffledRecords(uint64_t n) { shuffled_records_ += n; }
  void AddStage() { ++stages_; }
  void AddTasks(uint64_t n) { tasks_ += n; }
  void AddPairsEnumerated(uint64_t n) { pairs_enumerated_ += n; }
  void AddRecordsRead(uint64_t n) { records_read_ += n; }

  /// Observability label for this context's owner, rendered by the /stages
  /// endpoint so multi-context processes (e.g. one ExecutionContext per
  /// stream session) are tellable apart. Empty for anonymous contexts.
  /// Guarded by the stage mutex: the snapshot thread reads it concurrently.
  void set_label(std::string label) {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    label_ = std::move(label);
  }
  std::string label() const {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    return label_;
  }

  uint64_t shuffled_records() const { return shuffled_records_; }
  uint64_t stages() const { return stages_; }
  uint64_t tasks() const { return tasks_; }
  uint64_t pairs_enumerated() const { return pairs_enumerated_; }
  uint64_t records_read() const { return records_read_; }
  /// Total row-range morsels executed across all stages.
  uint64_t morsels() const { return morsels_; }

  /// Opens a StageReport for a stage named `name` with `num_tasks` tasks and
  /// returns its handle. Counted into stages()/tasks() immediately.
  ///
  /// Handle lifecycle: handles are tagged with a generation that Reset()
  /// advances, so AccumulateTask/FinishStage with a handle issued before a
  /// Reset() are safe no-ops instead of corrupting the new epoch's reports.
  size_t BeginStage(const std::string& name, uint64_t num_tasks) {
    ++stages_;
    tasks_ += num_tasks;
    std::lock_guard<std::mutex> lock(stage_mutex_);
    StageReport report;
    report.name = name;
    report.tasks = num_tasks;
    report.start_ms = UnixMillisNow();
    stage_reports_.push_back(std::move(report));
    return (generation_ << kHandleGenShift) | (stage_reports_.size() - 1);
  }

  /// Folds one finished task's (or, with `morsel`, one morsel's) counters
  /// and CPU time into stage `handle`; a morsel is also counted, per stage
  /// and globally. The unit's shuffled records also count toward the
  /// global total. No-op (including the global totals) when `handle` is
  /// stale.
  void AccumulateTask(size_t handle, const TaskContext& tc,
                      double busy_seconds, bool morsel = false) {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    StageReport* report = LookupLocked(handle);
    if (report == nullptr) return;
    if (tc.shuffled_records > 0) shuffled_records_ += tc.shuffled_records;
    report->records_in += tc.records_in;
    report->records_out += tc.records_out;
    report->shuffled_records += tc.shuffled_records;
    report->busy_seconds += busy_seconds;
    report->alloc_bytes += tc.alloc_bytes;
    report->allocs += tc.allocs;
    report->task_seconds.push_back(busy_seconds);
    if (morsel) {
      ++report->morsels;
      ++morsels_;
    }
  }

  /// Folds one stage's resource deltas (process RSS movement and steal
  /// count between stage open and close) into its open report. No-op when
  /// `handle` is stale.
  void RecordStageResources(size_t handle, int64_t rss_delta_bytes,
                            uint64_t steals) {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    StageReport* report = LookupLocked(handle);
    if (report == nullptr) return;
    report->rss_delta_bytes += rss_delta_bytes;
    report->steals += steals;
  }

  /// Folds one stage's recovery counters (retries, failed attempts,
  /// speculative launches/wins) into its open report. No-op when `handle`
  /// is stale.
  void RecordStageRecovery(size_t handle, uint64_t retries,
                           uint64_t failed_attempts,
                           uint64_t speculative_launched,
                           uint64_t speculative_committed) {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    StageReport* report = LookupLocked(handle);
    if (report == nullptr) return;
    report->retries += retries;
    report->failed_attempts += failed_attempts;
    report->speculative_launched += speculative_launched;
    report->speculative_committed += speculative_committed;
  }

  /// Closes stage `handle` with its driver-observed wall time and sorts the
  /// per-task times for quantile reads. No-op when `handle` is stale.
  void FinishStage(size_t handle, double wall_seconds) {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    StageReport* report = LookupLocked(handle);
    if (report == nullptr) return;
    report->wall_seconds = wall_seconds;
    report->end_ms = UnixMillisNow();
    report->finished = true;
    std::sort(report->task_seconds.begin(), report->task_seconds.end());
  }

  /// Copy of stage `handle`'s report; a default StageReport when stale.
  StageReport StageReportFor(size_t handle) const {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    const StageReport* report = LookupLocked(handle);
    return report == nullptr ? StageReport{} : *report;
  }

  /// Snapshot of all stage reports recorded so far, in execution order.
  std::vector<StageReport> StageReports() const {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    return stage_reports_;
  }

  /// Accumulates the busy time of one task onto logical worker `slot`.
  /// Tasks are bound to workers by partition index, so the maximum busy sum
  /// over slots is the wall-clock a real cluster with that many executors
  /// would have needed — the scale-out measure reported by the Fig 11(a)
  /// bench (this host may have fewer physical cores than workers).
  void RecordTaskTime(size_t slot, double seconds) {
    std::lock_guard<std::mutex> lock(task_time_mutex_);
    if (slot >= worker_busy_seconds_.size()) {
      worker_busy_seconds_.resize(slot + 1, 0.0);
    }
    worker_busy_seconds_[slot] += seconds;
  }

  /// Simulated cluster wall-clock: the busiest worker's total task time.
  double SimulatedWallSeconds() const {
    std::lock_guard<std::mutex> lock(task_time_mutex_);
    double max_busy = 0.0;
    for (double b : worker_busy_seconds_) max_busy = std::max(max_busy, b);
    return max_busy;
  }

  /// Zeroes every counter and drops all stage reports. Safe while stages
  /// are still open: outstanding handles become stale (their generation no
  /// longer matches) and later AccumulateTask/FinishStage calls on them do
  /// nothing.
  void Reset() {
    shuffled_records_ = 0;
    stages_ = 0;
    tasks_ = 0;
    pairs_enumerated_ = 0;
    records_read_ = 0;
    morsels_ = 0;
    {
      std::lock_guard<std::mutex> lock(stage_mutex_);
      stage_reports_.clear();
      ++generation_;
    }
    std::lock_guard<std::mutex> lock(task_time_mutex_);
    worker_busy_seconds_.clear();
  }

  /// One-line summary for bench output.
  std::string ToString() const {
    return "stages=" + std::to_string(stages_.load()) +
           " tasks=" + std::to_string(tasks_.load()) +
           " morsels=" + std::to_string(morsels_.load()) +
           " shuffled=" + std::to_string(shuffled_records_.load()) +
           " pairs=" + std::to_string(pairs_enumerated_.load()) +
           " read=" + std::to_string(records_read_.load());
  }

  /// Stage reports as a JSON array (execution order).
  std::string StageReportsJson() const {
    std::string out = "[";
    bool first = true;
    for (const StageReport& r : StageReports()) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + JsonEscape(r.name) + "\"";
      out += ",\"tasks\":" + std::to_string(r.tasks);
      out += ",\"records_in\":" + std::to_string(r.records_in);
      out += ",\"records_out\":" + std::to_string(r.records_out);
      out += ",\"shuffled_records\":" + std::to_string(r.shuffled_records);
      out += ",\"busy_seconds\":" + JsonDouble(r.busy_seconds);
      out += ",\"wall_seconds\":" + JsonDouble(r.wall_seconds);
      out += ",\"start_ms\":" + std::to_string(r.start_ms);
      out += ",\"end_ms\":" + std::to_string(r.end_ms);
      out += ",\"retries\":" + std::to_string(r.retries);
      out += ",\"failed_attempts\":" + std::to_string(r.failed_attempts);
      out += ",\"speculative_launched\":" +
             std::to_string(r.speculative_launched);
      out += ",\"speculative_committed\":" +
             std::to_string(r.speculative_committed);
      out += ",\"morsels\":" + std::to_string(r.morsels);
      out += ",\"alloc_bytes\":" + std::to_string(r.alloc_bytes);
      out += ",\"allocs\":" + std::to_string(r.allocs);
      out += ",\"rss_delta_bytes\":" + std::to_string(r.rss_delta_bytes);
      out += ",\"steals\":" + std::to_string(r.steals);
      out += std::string(",\"in_flight\":") +
             (r.finished ? "false" : "true");
      out += ",\"task_seconds_min\":" + JsonDouble(r.TaskMinSeconds());
      out += ",\"task_seconds_p50\":" + JsonDouble(r.TaskP50Seconds());
      out += ",\"task_seconds_max\":" + JsonDouble(r.TaskMaxSeconds());
      out += ",\"straggler_ratio\":" + JsonDouble(r.StragglerRatio());
      out += "}";
    }
    out += "]";
    return out;
  }

  /// Full metrics snapshot as one JSON object: the totals plus the
  /// per-stage breakdown. This is what the benches emit.
  std::string ToJson() const {
    std::string out = "{";
    out += "\"stages\":" + std::to_string(stages_.load());
    out += ",\"tasks\":" + std::to_string(tasks_.load());
    out += ",\"morsels\":" + std::to_string(morsels_.load());
    out += ",\"shuffled_records\":" + std::to_string(shuffled_records_.load());
    out += ",\"pairs_enumerated\":" + std::to_string(pairs_enumerated_.load());
    out += ",\"records_read\":" + std::to_string(records_read_.load());
    out += ",\"simulated_wall_seconds\":" + JsonDouble(SimulatedWallSeconds());
    out += ",\"stage_reports\":" + StageReportsJson();
    out += "}";
    return out;
  }

 private:
  /// Stage handles carry the generation in their upper bits so handles
  /// issued before a Reset() can be recognized as stale.
  static constexpr size_t kHandleGenShift = 32;
  static constexpr size_t kHandleIndexMask =
      (size_t{1} << kHandleGenShift) - 1;

  /// Report addressed by `handle`, or null when the handle predates the
  /// last Reset() (or is otherwise out of range). Requires stage_mutex_.
  const StageReport* LookupLocked(size_t handle) const {
    if ((handle >> kHandleGenShift) != generation_) return nullptr;
    const size_t index = handle & kHandleIndexMask;
    if (index >= stage_reports_.size()) return nullptr;
    return &stage_reports_[index];
  }
  StageReport* LookupLocked(size_t handle) {
    return const_cast<StageReport*>(
        static_cast<const Metrics*>(this)->LookupLocked(handle));
  }

  std::atomic<uint64_t> shuffled_records_{0};
  std::atomic<uint64_t> stages_{0};
  std::atomic<uint64_t> tasks_{0};
  std::atomic<uint64_t> pairs_enumerated_{0};
  std::atomic<uint64_t> records_read_{0};
  std::atomic<uint64_t> morsels_{0};
  mutable std::mutex stage_mutex_;
  std::vector<StageReport> stage_reports_;
  /// Owner label for /stages; guarded by stage_mutex_.
  std::string label_;
  /// Advanced by Reset(); guarded by stage_mutex_.
  size_t generation_ = 0;
  mutable std::mutex task_time_mutex_;
  std::vector<double> worker_busy_seconds_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_DATAFLOW_METRICS_H_
