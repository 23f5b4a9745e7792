#ifndef BIGDANSING_CORE_RULE_ENGINE_H_
#define BIGDANSING_CORE_RULE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "core/iejoin.h"
#include "core/ocjoin.h"
#include "core/physical_plan.h"
#include "data/storage.h"
#include "data/table.h"
#include "dataflow/context.h"
#include "rules/dc_rule.h"
#include "rules/rule.h"
#include "rules/violation.h"
#include "rules/violation_buffer.h"

namespace bigdansing {

/// Output of one detection run: the violation hyperedges plus execution
/// counters used by the experiments.
struct DetectionResult {
  std::vector<ViolationWithFixes> violations;
  /// Number of Detect invocations (candidate pairs/units actually probed).
  uint64_t detect_calls = 0;
  /// OCJoin statistics when that enhancer ran; zeroed otherwise.
  OCJoinStats ocjoin_stats;
  /// IEJoin statistics when PlannerOptions::use_iejoin routed the
  /// inequality join there; zeroed otherwise.
  IEJoinStats iejoin_stats;
  /// The physical plan that was executed (for EXPLAIN-style reporting).
  std::string plan_description;
};

/// One request's detection as the fix-point reads it: every rule's
/// violations in one buffer, in rule order, before any object is built.
struct BufferedDetection {
  /// Cells refer to the request's table.
  ViolationBuffer violations;
  /// Per rule, aligned with the request's rules: counters, join statistics
  /// and plan. Their `violations` stay empty.
  std::vector<DetectionResult> results;
  /// Rule r's violations are [rule_end[r - 1], rule_end[r]) (from 0 for
  /// r == 0).
  std::vector<size_t> rule_end;
  /// The table a storage-backed request reassembled, when its cells refer
  /// to it.
  std::unique_ptr<Table> loaded;
};

/// One detection job, whatever its flavor. Callers of the single entry
/// point RuleEngine::Detect(const DetectRequest&) describe *what* to detect
/// and the engine picks the dispatch path from which fields are set.
///
/// Exactly one input source must be given:
///   - `table` alone            -> in-memory detection (all `rules`).
///   - `table` + `right`        -> two-table detection (one DcRule).
///   - `table` + `changed_rows` -> incremental re-detection (one rule).
///   - `storage` + `dataset`    -> storage-backed detection with Block
///                                 pushdown (one rule).
/// Field combinations outside these shapes are rejected with
/// InvalidArgument before any work runs.
struct DetectRequest {
  /// Base table (t1's range). Required unless `storage` is set.
  const Table* table = nullptr;
  /// Second table for two-table rules (t2's range). When set, `rules` must
  /// hold exactly one rule and it must be a DcRule bound across both
  /// schemas (e.g. the paper's DC (1) joining customers and suppliers); the
  /// CoBlock enhancer runs when the rule has equality predicates
  /// t1.X = t2.Y.
  const Table* right = nullptr;
  /// Rules to evaluate. Multi-rule requests share scans via plan
  /// consolidation (§4.2); results align with this vector by index.
  std::vector<RulePtr> rules;
  /// Storage manager owning `dataset`; enables Block pushdown to a
  /// partitioned replica (Appendix F): with a replica partitioned on the
  /// rule's single blocking attribute, rows sharing a key are co-located
  /// and the blocking shuffle is skipped (zero shuffled records); without
  /// one the ordinary path runs.
  const StorageManager* storage = nullptr;
  /// Name of the stored dataset when `storage` is set.
  std::string dataset;
  /// When set, restricts detection to violations involving at least one of
  /// these rows (incremental re-detection, an extension beyond the paper):
  /// blocked rules iterate only the blocks holding changed rows; unblocked
  /// rules pair the changed rows with every row of the table, in the
  /// orientations a whole-table Detect probes.
  const std::unordered_set<RowId>* changed_rows = nullptr;
  /// Fault-tolerance knobs (retry budgets, speculation) scoped to this
  /// request; unset inherits the ExecutionContext policy.
  std::optional<FaultPolicy> fault_policy;
};

/// The RuleEngine (§2.2): translates rules through the logical and physical
/// layers and executes the resulting plan on the dataflow engine, producing
/// violations and possible fixes. Thread-compatible: one engine may be used
/// from one thread at a time; the engine itself parallelizes internally.
class RuleEngine {
 public:
  explicit RuleEngine(ExecutionContext* ctx,
                      PlannerOptions options = PlannerOptions());

  const PlannerOptions& options() const { return options_; }

  /// Unified detection entry point. Validates the request shape, applies
  /// the request's fault policy for the duration of the run, dispatches to
  /// the matching execution path, and maps any internal stage failure
  /// (retry-budget exhaustion included) to a non-OK Status — this is the
  /// single throw/catch boundary of the detection API. Results align with
  /// `request.rules` by index.
  Result<std::vector<DetectionResult>> Detect(const DetectRequest& request) const;

  /// Detects violations of `rule` in `table`: a one-rule
  /// Detect(DetectRequest) over `table`.
  Result<DetectionResult> Detect(const Table& table, const RulePtr& rule) const;

  /// Detect(request) without the object form: the same validation, stages,
  /// counters and violation order, with the violations left in one buffer.
  /// The fix-point's detection.
  Result<BufferedDetection> DetectBuffered(const DetectRequest& request) const;

 private:
  /// Both entries' body: validation, the request's fault policy and job
  /// span, dispatch, and with `objects` each result's violations built from
  /// the buffer (a `detect:objects` stage) under that same policy and span.
  Result<BufferedDetection> DetectImpl(const DetectRequest& request,
                                       bool objects) const;
  /// Dispatch bodies behind the DetectImpl boundary, appending to `out`.
  /// These may throw StageError (stage retry budget exhausted); DetectImpl
  /// catches it.
  /// Whole-table detection of `rules`, or, with a `changed` row set, only
  /// of the violations that hold a changed row.
  Status DetectAllImpl(const Table& table, const std::vector<RulePtr>& rules,
                       const std::unordered_set<RowId>* changed,
                       BufferedDetection* out) const;
  Status DetectAcrossImpl(const Table& left, const Table& right,
                          const std::shared_ptr<DcRule>& rule,
                          BufferedDetection* out) const;
  Status DetectWithStorageImpl(const StorageManager& storage,
                               const std::string& name, const RulePtr& rule,
                               BufferedDetection* out) const;

  ExecutionContext* ctx_;
  PlannerOptions options_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_RULE_ENGINE_H_
