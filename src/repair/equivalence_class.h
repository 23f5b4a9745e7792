#ifndef BIGDANSING_REPAIR_EQUIVALENCE_CLASS_H_
#define BIGDANSING_REPAIR_EQUIVALENCE_CLASS_H_

#include <vector>

#include "dataflow/context.h"
#include "repair/repair_algorithm.h"

namespace bigdansing {

/// The equivalence-class repair algorithm [Bohannon et al., SIGMOD'05] in
/// its centralized form, as plugged into the black-box distribution scheme
/// (§5.1): cells linked by equality fixes form equivalence classes; every
/// class is assigned a single target value chosen to minimize the repair
/// cost (the most frequent current value of the class's members — each
/// member votes once; constant fixes vote for their constant). Ties break
/// toward the smallest value so repairs are deterministic.
class EquivalenceClassAlgorithm : public RepairAlgorithm {
 public:
  std::string name() const override { return "equivalence-class"; }
  using RepairAlgorithm::RepairComponent;
  std::vector<CellAssignment> RepairComponent(
      const ViolationBuffer& violations,
      std::span<const size_t> edges) const override;
};

/// The natively distributed equivalence-class repair of §5.2, modeled as a
/// distributed word count with two map-reduce sequences on the dataflow
/// engine:
///   1. map    (class, cell, value) -> ((class, value), 1), counting each
///      element once per class;
///      reduce  count by (class, value);
///   2. map    ((class, value), count) -> (class, (value, count));
///      reduce  keep the most frequent value per class.
/// Classes are the connected components of the equality-fix graph, computed
/// with the BSP connected-components kernel (the GraphX substitute). The
/// target value is then assigned to every member cell whose current value
/// differs.
///
/// When `provenance` is non-null and the LineageRecorder is enabled, one
/// FixProvenance per returned assignment is appended to it (aligned by
/// index): the violation that first mentioned the assigned cell, the
/// equivalence-class label as the component id, and strategy
/// "distributed-equivalence-class".
std::vector<CellAssignment> DistributedEquivalenceClassRepair(
    ExecutionContext* ctx, const ViolationBuffer& violations,
    std::vector<FixProvenance>* provenance = nullptr);

/// DistributedEquivalenceClassRepair over violation objects, converted once
/// (ObjectsAsBuffer).
std::vector<CellAssignment> DistributedEquivalenceClassRepair(
    ExecutionContext* ctx, const std::vector<ViolationWithFixes>& violations,
    std::vector<FixProvenance>* provenance = nullptr);

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_EQUIVALENCE_CLASS_H_
