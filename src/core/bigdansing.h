#ifndef BIGDANSING_CORE_BIGDANSING_H_
#define BIGDANSING_CORE_BIGDANSING_H_

#include <memory>
#include <optional>
#include <unordered_set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "core/rule_engine.h"
#include "data/table.h"
#include "dataflow/context.h"
#include "repair/blackbox.h"
#include "repair/repair_algorithm.h"
#include "repair/strategy.h"  // RepairMode + the strategy factory.

namespace bigdansing {

class StreamSession;
struct StreamOptions;

/// Options for a full cleanse run.
struct CleanOptions {
  PlannerOptions planner;
  BlackBoxOptions repair;
  RepairMode repair_mode = RepairMode::kEquivalenceClass;
  /// Detect/repair iterations stop after this many rounds even if
  /// violations remain (§2.2: a bound ensures termination; cells repaired
  /// in every earlier round are then frozen).
  size_t max_iterations = 10;
  /// A cell updated in more than this many iterations is frozen (made
  /// immutable) so oscillating repairs terminate.
  size_t freeze_after_updates = 3;
  /// Fault-tolerance knobs (retry budgets, speculation) applied to every
  /// stage of the run — detection, repair, and shuffles alike. Unset
  /// inherits the ExecutionContext policy (itself seeded from
  /// BD_FAULT_SPEC / BD_SPECULATION at construction).
  std::optional<FaultPolicy> fault_policy;
};

/// Per-iteration record of a cleanse run.
struct IterationReport {
  size_t violations = 0;
  size_t applied_fixes = 0;
  double detect_seconds = 0.0;
  double repair_seconds = 0.0;
};

/// Outcome of BigDansing::Clean.
struct CleanReport {
  std::vector<IterationReport> iterations;
  /// True when the final detect pass found no (repairable) violations.
  bool converged = false;
  double total_detect_seconds = 0.0;
  double total_repair_seconds = 0.0;

  size_t num_iterations() const { return iterations.size(); }
  std::string ToString() const;
};

/// The system facade (§2.2, Figure 1): takes a dirty dataset and rules,
/// iterates RuleEngine detection and distributed repair until a fix point,
/// and leaves the repaired instance in `table`.
class BigDansing {
 public:
  explicit BigDansing(ExecutionContext* ctx,
                      CleanOptions options = CleanOptions());

  /// Runs the full cleanse loop over `table` in place.
  Result<CleanReport> Clean(Table* table,
                            const std::vector<RulePtr>& rules) const;

  /// Opens a long-running streaming cleanse session over `table` (which
  /// must outlive the session): rows arrive via StreamSession::Append in
  /// bounded micro-batches and each Poll() repairs only the blocks the
  /// batch touched, against a persistent incremental violation index.
  /// Existing rows are indexed and marked dirty, so OpenStream + Flush
  /// reaches the same fix-point contract as Clean(). The two-argument
  /// overload inherits this facade's CleanOptions.
  Result<std::unique_ptr<StreamSession>> OpenStream(
      Table* table, const std::vector<RulePtr>& rules,
      StreamOptions options) const;
  Result<std::unique_ptr<StreamSession>> OpenStream(
      Table* table, const std::vector<RulePtr>& rules) const;

  /// Detection only — exposed for experiments that time phases separately.
  Result<std::vector<DetectionResult>> Detect(
      const Table& table, const std::vector<RulePtr>& rules) const {
    DetectRequest request;
    request.table = &table;
    request.rules = rules;
    return RuleEngine(ctx_, options_.planner).Detect(request);
  }

 private:
  ExecutionContext* ctx_;
  CleanOptions options_;
};

/// Applies cell assignments to `table`, skipping cells present in
/// `frozen` (may be null). Returns the number of cells actually changed.
size_t ApplyAssignments(Table* table,
                        const std::vector<CellAssignment>& assignments,
                        const std::unordered_set<CellRef, CellRefHash>* frozen);

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_BIGDANSING_H_
