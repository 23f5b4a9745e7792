#ifndef BIGDANSING_REPAIR_STRATEGY_H_
#define BIGDANSING_REPAIR_STRATEGY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/context.h"
#include "repair/blackbox.h"
#include "rules/violation.h"
#include "rules/violation_buffer.h"

namespace bigdansing {

/// Which repair implementation drives the repair step.
enum class RepairMode {
  /// Black-box scheme (§5.1) around the centralized equivalence-class
  /// algorithm. Default — matches the paper's main configuration.
  kEquivalenceClass,
  /// Black-box scheme around the hypergraph algorithm (for DCs with
  /// inequality fixes).
  kHypergraph,
  /// Natively distributed equivalence class (§5.2, two map-reduce rounds).
  kDistributedEquivalenceClass,
};

/// Polymorphic face of the repair step. The cleanse driver no longer
/// switches over RepairMode: it asks RepairStrategyFor(mode) for a strategy
/// and calls Repair(). Repair() is a template method declared once on this
/// base — it resolves the lineage toggle, runs the scheme-specific
/// DoRepair(), and maps any internal stage failure (retry-budget
/// exhaustion in the component stage or the distributed rounds) to a
/// non-OK Status, so no strategy implementation repeats that boundary.
class RepairStrategy {
 public:
  virtual ~RepairStrategy() = default;

  virtual std::string name() const = 0;

  /// Computes (but does not apply) the cell assignments of one repair pass
  /// over `violations`. Never throws: stage failures surface as a Status.
  /// The public entry: the objects are converted into a buffer once.
  Result<RepairPassResult> Repair(
      ExecutionContext* ctx, const std::vector<ViolationWithFixes>& violations,
      const BlackBoxOptions& options) const;
  /// The same pass over a violation buffer (the fix-point's entry).
  Result<RepairPassResult> Repair(ExecutionContext* ctx,
                                  const ViolationBuffer& violations,
                                  const BlackBoxOptions& options) const;

 protected:
  /// Scheme-specific pass. `lineage_on` mirrors the process-wide
  /// LineageRecorder toggle, resolved once by Repair(); implementations
  /// fill RepairPassResult::provenance iff it is true. May throw StageError.
  virtual RepairPassResult DoRepair(ExecutionContext* ctx,
                                    const ViolationBuffer& violations,
                                    const BlackBoxOptions& options,
                                    bool lineage_on) const = 0;
};

/// Returns the process-wide strategy instance for `mode`. Strategies are
/// stateless, so one shared const instance per mode serves all callers.
const RepairStrategy& RepairStrategyFor(RepairMode mode);

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_STRATEGY_H_
