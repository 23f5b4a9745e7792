#ifndef BIGDANSING_COMMON_TRACE_H_
#define BIGDANSING_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bigdansing {

/// One recorded span. Spans form a forest through `parent` (0 = root).
/// Times are microseconds relative to the recorder's epoch (construction or
/// last Clear()).
struct TraceSpan {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  /// Hierarchy level: "job", "phase", "rule", "operator", "stage", "task",
  /// or "morsel" (a row-range slice of a task under the morsel scheduler).
  std::string category;
  double start_us = 0.0;
  double duration_us = 0.0;
  /// Still open (End() not yet called) — exports use the current time.
  bool open = true;
  /// Logical worker lane for task spans (becomes the Chrome-trace tid);
  /// -1 for driver-side spans.
  int64_t lane = -1;
  /// Ordered key/value attributes ("records_in" -> "1000"). Values are
  /// pre-formatted; numeric Annotate overloads keep plain digits.
  std::vector<std::pair<std::string, std::string>> args;
};

/// Process-wide recorder of hierarchical execution spans — the runtime
/// counterpart of the physical plan. Every Begin/End/Annotate is a no-op
/// (one relaxed atomic load) while disabled, so leaving tracing off costs
/// nothing on hot paths. Thread-safe.
///
/// Scoped nesting: each thread keeps a stack of the ScopedSpans it has
/// open; a new ScopedSpan parents to the innermost one. Spans that cross
/// threads (stage -> task) pass the parent id explicitly.
///
/// Exports:
///  - ToChromeTraceJson(): Chrome trace-event JSON ("traceEvents" array of
///    "X" complete events) loadable in chrome://tracing or Perfetto, with
///    task spans laid out per logical-worker lane.
///  - ExplainTree(): a human-readable runtime EXPLAIN — the span forest
///    with each node's attributes (records in/out, selectivity, shuffle
///    volume, busy/wall time, task skew), task spans folded into their
///    parent stage.
class TraceRecorder {
 public:
  static TraceRecorder& Instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Drops all recorded spans and restarts the epoch. Span ids stay
  /// monotonic across Clear(), so End()/Annotate() on a handle from before
  /// the Clear are safe no-ops.
  void Clear();

  /// Opens a span and returns its id (0 when disabled — all other calls
  /// accept 0 as a no-op handle). `parent` 0 makes a root span.
  uint64_t Begin(const std::string& name, const std::string& category,
                 uint64_t parent, int64_t lane = -1);

  /// Closes span `id` with the current time.
  void End(uint64_t id);

  /// Attaches a key/value attribute to span `id`.
  void Annotate(uint64_t id, const std::string& key, std::string value);
  void Annotate(uint64_t id, const std::string& key, uint64_t value);
  void Annotate(uint64_t id, const std::string& key, double value);

  /// Innermost ScopedSpan open on the calling thread (0 when none).
  uint64_t CurrentSpan() const;

  /// Snapshot of all spans recorded since the last Clear(), in Begin order.
  std::vector<TraceSpan> Spans() const;
  size_t SpanCount() const;

  /// Chrome trace-event JSON (the whole recording).
  std::string ToChromeTraceJson() const;

  /// Renders the runtime EXPLAIN tree. Task and morsel spans are not
  /// printed as nodes (their skew summary lives on the parent stage's
  /// attributes); spans opened inside a task or morsel re-attach to the
  /// nearest stage-or-above ancestor.
  std::string ExplainTree() const;

 private:
  friend class ScopedSpan;
  TraceRecorder();

  void PushScope(uint64_t id);
  void PopScope();

  /// Microseconds since the epoch.
  double NowUs() const;

  /// Pointer to span `id` or null when stale/unknown. Requires mu_.
  TraceSpan* FindLocked(uint64_t id);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  /// Ids handed out before the last Clear() are <= base_id_ and stale.
  uint64_t base_id_ = 0;
  uint64_t next_id_ = 0;
  /// Steady-clock epoch in seconds (absolute), reset by Clear().
  double epoch_seconds_ = 0.0;
};

/// RAII span: opens in the constructor, closes in the destructor, and
/// maintains the calling thread's scope stack so nested ScopedSpans parent
/// automatically. Near-zero cost when the recorder is disabled.
class ScopedSpan {
 public:
  /// Parents to the calling thread's innermost open ScopedSpan.
  ScopedSpan(const std::string& name, const std::string& category);

  /// Explicit parent (for spans whose parent lives on another thread, e.g.
  /// task spans under their stage) on worker lane `lane`.
  ScopedSpan(const std::string& name, const std::string& category,
             uint64_t parent, int64_t lane);

  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Recorder id of this span; 0 when tracing is disabled.
  uint64_t id() const { return id_; }

  void Annotate(const std::string& key, std::string value);
  void Annotate(const std::string& key, uint64_t value);
  void Annotate(const std::string& key, double value);

 private:
  TraceRecorder* recorder_;
  uint64_t id_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_COMMON_TRACE_H_
