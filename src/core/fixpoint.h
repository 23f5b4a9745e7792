#ifndef BIGDANSING_CORE_FIXPOINT_H_
#define BIGDANSING_CORE_FIXPOINT_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lineage.h"
#include "common/status.h"
#include "core/bigdansing.h"
#include "rules/violation_buffer.h"

namespace bigdansing {

/// Freeze bookkeeping of a fix-point (§2.2: "the algorithm puts a special
/// variable on such units after a fixed number of iterations"). Clean()
/// keeps one per run; a stream session keeps one across all its windows.
struct FreezeState {
  std::unordered_map<CellRef, size_t, CellRefHash> update_counts;
  std::unordered_set<CellRef, CellRefHash> frozen;
  /// Cells repaired in more than one iteration so far: the oscillation
  /// freezing exists to terminate.
  uint64_t oscillating = 0;
};

/// Detects one iteration's violations of every rule, given the rows the
/// previous iteration changed (the caller's seed rows on the first
/// iteration). The buffer's table cells must refer to the table the
/// fix-point repairs.
using FixpointDetectFn = std::function<Result<ViolationBuffer>(
    const std::unordered_set<RowId>& changed)>;

/// What a caller plugs into RunFixpoint.
struct FixpointSpec {
  FixpointDetectFn detect;
  /// How a fix reaches its row; null when the row has left the table.
  std::function<Row*(RowId)> find_row;
  /// Optional: runs after an iteration applied at least one fix (and after
  /// its freeze bookkeeping), with the rows that iteration changed.
  std::function<void(const std::unordered_set<RowId>& changed)> after_apply;
  /// Session tag of the quality run record ("" for one-shot Clean()).
  std::string quality_session;
  /// Profiles the input table into the quality run record.
  bool profile_input = false;
};

/// Outcome of one RunFixpoint call.
struct FixpointResult {
  std::vector<IterationReport> iterations;
  /// True when the last iteration found no repairable violation or
  /// applied no fix; false when options.max_iterations cut the run.
  bool converged = false;
  /// Rows changed by the last iteration that applied fixes (the seed rows
  /// when none did): what the next detection would be given.
  std::unordered_set<RowId> changed;
  /// Per-rule applied fixes and unresolved violations of this call,
  /// tallied only while the lineage ledger or the quality recorder is on.
  std::map<std::string, LineageSummary> by_rule;
};

/// The cleansing fix-point of §2.2: detect, pool the repairable violations
/// of every rule (in place in the detected buffer: a violation is
/// repairable when some fix's left cell is not frozen), repair them with
/// RepairStrategyFor(options.repair_mode),
/// apply the fixes with lineage and quality attribution, and freeze cells
/// updated options.freeze_after_updates times, until an iteration finds
/// nothing to repair or options.max_iterations is reached. `changed`
/// seeds the first detection. Each call is one QualityRecorder run over
/// `table` (`num_rules` rules) with one curve point per iteration, and
/// traces a detect:iterN phase span per iteration plus a repair:iterN span
/// per iteration that repairs. Stage failures surface as a non-OK Status.
Result<FixpointResult> RunFixpoint(ExecutionContext* ctx,
                                   const CleanOptions& options,
                                   const Table& table, size_t num_rules,
                                   const FixpointSpec& spec,
                                   FreezeState* freeze,
                                   std::unordered_set<RowId> changed = {});

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_FIXPOINT_H_
