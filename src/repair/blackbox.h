#ifndef BIGDANSING_REPAIR_BLACKBOX_H_
#define BIGDANSING_REPAIR_BLACKBOX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "dataflow/context.h"
#include "repair/repair_algorithm.h"
#include "rules/violation.h"
#include "rules/violation_buffer.h"

namespace bigdansing {

/// Options for the black-box repair distribution scheme.
struct BlackBoxOptions {
  /// Run one repair instance per connected component in parallel (§5.1).
  /// When false, a single centralized instance handles all violations — the
  /// baseline of the Fig 12(b) experiment.
  bool parallel = true;

  /// Use the BSP dataflow connected-components kernel (the GraphX path);
  /// union-find otherwise. Results are identical.
  bool use_bsp_connected_components = false;

  /// Components with more hyperedges than this are split k-way and repaired
  /// under the master/slave protocol ("Dealing with big connected
  /// components"). Default: never split.
  size_t max_component_edges = static_cast<size_t>(-1);

  /// Number of parts for oversized components.
  size_t kway_parts = 4;
};

/// Result of one repair pass.
struct RepairPassResult {
  /// Cell updates actually applied (conflicting slave updates are undone
  /// per the master/slave protocol and not included).
  std::vector<CellAssignment> applied;
  /// Aligned with `applied` while the LineageRecorder is enabled (which
  /// rule/violation/component each assignment came from); empty otherwise.
  std::vector<FixProvenance> provenance;
  size_t num_components = 0;
  size_t num_split_components = 0;
  /// Slave assignments undone because they touched a master-immutable cell.
  size_t num_undone = 0;
};

/// Runs a centralized repair algorithm in a distributed fashion without
/// changing it (§5.1): builds the violation hypergraph, finds connected
/// components, and dispatches each component to an independent repair
/// instance on the worker pool. Components larger than
/// `options.max_component_edges` are k-way partitioned; the first part acts
/// as master, its updated cells become immutable, and conflicting slave
/// updates are undone (Example 2's consistency protocol).
///
/// Returns the assignments to apply; it does not touch any table — the
/// caller (the cleanse driver) applies them, which keeps the repair step
/// independent of the data container.
///
/// Throws StageError when the per-component repair stage exhausts its
/// retry budget; RepairStrategy::Repair catches it and returns a Status.
RepairPassResult BlackBoxRepair(ExecutionContext* ctx,
                                const ViolationBuffer& violations,
                                const RepairAlgorithm& algorithm,
                                const BlackBoxOptions& options);

/// BlackBoxRepair over violation objects, converted once (ObjectsAsBuffer).
RepairPassResult BlackBoxRepair(ExecutionContext* ctx,
                                const std::vector<ViolationWithFixes>& violations,
                                const RepairAlgorithm& algorithm,
                                const BlackBoxOptions& options);

/// The object entries' one conversion: `violations` as a buffer that
/// borrows their cells (ViolationBuffer::FromObjects), converted in
/// contiguous runs by a `repair:objects` stage on `ctx` and concatenated in
/// order; an input that would make a single run converts on the calling
/// thread. Throws StageError when the stage exhausts its retry budget.
ViolationBuffer ObjectsAsBuffer(ExecutionContext* ctx,
                                std::span<const ViolationWithFixes> violations);

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_BLACKBOX_H_
