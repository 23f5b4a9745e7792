// The benchmark's own span recorder. Spans wrap every public library call
// the benchmark makes; child spans are built from the reports those calls
// return (CleanReport / StreamWindowReport phase times, stage reports). A
// span's self time is its duration minus its children's, so the self times
// of one job add up to the job's wall exactly; the job root's own self time
// is the unattributed remainder.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <map>
#include <string>
#include <vector>

#include "dataflow/metrics.h"

namespace perfbench {

/// Steady-clock seconds.
double NowSeconds();

/// One recorded span. `parent` indexes the recorder's span list (-1 for a
/// job root); all spans of one job share `job`.
struct Span {
  int job = 0;
  int parent = -1;
  std::string name;
  /// Ledger layer the span's self time counts toward.
  std::string layer;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Where the next report-built child starts (children are laid end to
  /// end from the span's start).
  double child_cursor_s = 0.0;

  double seconds() const { return end_s - start_s; }
};

/// Ledger layer of the unattributed remainder (a job root's self time).
inline constexpr const char* kUnattributed = "bench.unattributed_s";

class Tracer {
 public:
  /// Opens a span under the innermost open span; with none open it is the
  /// root of a new job. Returns the span's index.
  int Open(std::string name, std::string layer);
  void Close(int span);

  /// Adds a finished child of `parent` lasting `seconds`, as read from a
  /// report the parent's call returned.
  int AddChild(int parent, std::string name, std::string layer,
               double seconds);

  /// Adds stage reports as children: `repair:*` stages under
  /// `repair_parent`, every other stage under `detect_parent`.
  void AddStages(const std::vector<bigdansing::StageReport>& stages,
                 int detect_parent, int repair_parent);

  /// Self time of every span of `job`, summed by layer. The values add up
  /// to the job root's duration.
  std::map<std::string, double> SelfTimeByLayer(int job) const;

  /// Summed duration of the spans of `job` named `name`.
  double Total(int job, const std::string& name) const;

  /// Index of the job the most recently opened root span started.
  int last_job() const { return jobs_ - 1; }
  double JobWall(int job) const;

  /// Every span as one JSON object ({"spans":[...]}).
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int jobs_ = 0;
};

/// Opens a span on construction and closes it on destruction; does nothing
/// when `tracer` is null (the untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, std::string layer)
      : tracer_(tracer),
        id_(tracer ? tracer->Open(std::move(name), std::move(layer)) : -1) {}
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }
  void Close() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->Close(id_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  int id_;
};

/// Dataflow layer of a stage, by stage name: "encode" (kernel:encode:*),
/// "block", "shuffle" (groupByKey:*), "enumerate" (*iterate*, ocjoin:join,
/// *ocjoin-pairs), "sort", "repair_stage" (repair:*) or "other_stage".
std::string StageClass(const std::string& stage_name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
