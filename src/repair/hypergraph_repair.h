#ifndef BIGDANSING_REPAIR_HYPERGRAPH_REPAIR_H_
#define BIGDANSING_REPAIR_HYPERGRAPH_REPAIR_H_

#include <vector>

#include "repair/repair_algorithm.h"

namespace bigdansing {

/// The hypergraph-based repair algorithm for general (inequality) fixes,
/// in the spirit of the holistic data-cleaning algorithm [Chu et al.,
/// ICDE'13] that the paper plugs in for DCs (§5.1). Per connected
/// component it repeatedly:
///   1. picks the cell covering the most unresolved violations (minimal
///      vertex cover heuristic on the hypergraph),
///   2. gathers the fix expressions of those violations that mention the
///      cell, and
///   3. assigns the cell a value satisfying as many of them as possible —
///      the majority value for equality fixes, or a value inside the
///      [max lower bound, min upper bound] interval for ordering fixes
///      (the paper's QP step collapses to interval midpoints for
///      single-variable bounds).
/// Violations with no satisfiable fix for the chosen cell stay unresolved
/// and surface again in the next detect iteration.
class HypergraphRepairAlgorithm : public RepairAlgorithm {
 public:
  std::string name() const override { return "hypergraph"; }
  using RepairAlgorithm::RepairComponent;
  std::vector<CellAssignment> RepairComponent(
      const ViolationBuffer& violations,
      std::span<const size_t> edges) const override;
};

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_HYPERGRAPH_REPAIR_H_
