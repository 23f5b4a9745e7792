#ifndef BIGDANSING_REPAIR_REPAIR_ALGORITHM_H_
#define BIGDANSING_REPAIR_REPAIR_ALGORITHM_H_

#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "rules/violation.h"
#include "rules/violation_buffer.h"

namespace bigdansing {

/// A cell update chosen by a repair algorithm.
struct CellAssignment {
  CellRef cell;
  Value value;

  bool operator==(const CellAssignment& other) const = default;
};

/// Provenance of one proposed assignment, filled by the repair schemes only
/// while the LineageRecorder is enabled (kept beside CellAssignment, not
/// inside it, so the repair fast path and equality semantics are
/// untouched when lineage is off).
struct FixProvenance {
  /// Rule whose violation proposed a fix touching the assigned cell.
  std::string rule;
  /// Index of that violation within the repair pass's input vector.
  uint64_t violation_id = 0;
  /// Connected-component id (or equivalence-class label) repaired under.
  uint64_t component = 0;
  /// Repair algorithm name.
  std::string strategy;
};

/// Interface of a centralized repair algorithm, invoked by the black-box
/// distribution scheme of §5.1 on one connected component (or one k-way
/// part of an oversized component) at a time. Implementations must be
/// stateless across calls so instances can run concurrently on distinct
/// components.
class RepairAlgorithm {
 public:
  virtual ~RepairAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Computes cell updates resolving (greedily, cost-minimally) the
  /// violations of `violations` indexed by `edges`, which always belong to
  /// one connected component of the violation hypergraph. Cell values are
  /// read through the buffer. Must be thread-safe.
  virtual std::vector<CellAssignment> RepairComponent(
      const ViolationBuffer& violations,
      std::span<const size_t> edges) const = 0;

  /// RepairComponent over violation objects, converted once.
  std::vector<CellAssignment> RepairComponent(
      const std::vector<const ViolationWithFixes*>& edges) const {
    const ViolationBuffer violations = ViolationBuffer::FromObjects(edges);
    std::vector<size_t> all(violations.size());
    std::iota(all.begin(), all.end(), size_t{0});
    return RepairComponent(violations, all);
  }
};

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_REPAIR_ALGORITHM_H_
