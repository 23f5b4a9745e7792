#include "repair/hypergraph.h"

#include <algorithm>

#include "common/logging.h"
#include "repair/connected_components.h"

namespace bigdansing {

namespace {

/// Dense node ids for distinct cells, in first-appearance order. Slots hold
/// node+1 (0 = empty) into the cell list and are probed linearly by
/// CellRefHash; the table grows at half load, so its size follows the
/// distinct cells rather than the (several times larger) cell mentions.
/// The encode stage's FlatValueSet uses the same layout.
class CellInterner {
 public:
  CellInterner() { Rehash(16); }

  uint64_t Intern(const CellRef& ref) {
    if ((cells_.size() + 1) * 2 > slots_.size()) Rehash(2 * slots_.size());
    uint64_t i = CellRefHash()(ref) & mask_;
    while (uint32_t slot = slots_[i]) {
      if (cells_[slot - 1] == ref) return slot - 1;
      i = (i + 1) & mask_;
    }
    BD_CHECK(cells_.size() < UINT32_MAX) << "too many distinct cells";
    slots_[i] = static_cast<uint32_t>(cells_.size()) + 1;
    cells_.push_back(ref);
    return cells_.size() - 1;
  }

  size_t size() const { return cells_.size(); }

 private:
  void Rehash(uint64_t size) {
    slots_.assign(size, 0);
    mask_ = size - 1;
    for (uint32_t node = 0; node < cells_.size(); ++node) {
      uint64_t i = CellRefHash()(cells_[node]) & mask_;
      while (slots_[i]) i = (i + 1) & mask_;
      slots_[i] = node + 1;
    }
  }

  std::vector<uint32_t> slots_;
  uint64_t mask_ = 0;
  std::vector<CellRef> cells_;
};

}  // namespace

ViolationHypergraph::ViolationHypergraph(
    const std::vector<ViolationWithFixes>& violations)
    : violations_(&violations) {
  // Every cell mention bounds the flat node array from above.
  size_t mentions = 0;
  for (const auto& vf : violations) {
    mentions += vf.violation.cells.size();
    for (const auto& f : vf.fixes) mentions += f.right.is_cell ? 2 : 1;
  }
  nodes_.reserve(mentions);
  offsets_.reserve(violations.size() + 1);
  offsets_.push_back(0);
  CellInterner interner;
  for (const auto& vf : violations) {
    const size_t begin = nodes_.size();
    // Nodes: cells of the violation plus cells referenced by its fixes
    // (a fix may mention a cell that Detect did not list).
    for (const auto& c : vf.violation.cells) {
      nodes_.push_back(interner.Intern(c.ref));
    }
    for (const auto& f : vf.fixes) {
      nodes_.push_back(interner.Intern(f.left.ref));
      if (f.right.is_cell) nodes_.push_back(interner.Intern(f.right.cell.ref));
    }
    std::sort(nodes_.begin() + begin, nodes_.end());
    nodes_.erase(std::unique(nodes_.begin() + begin, nodes_.end()),
                 nodes_.end());
    offsets_.push_back(nodes_.size());
  }
  num_nodes_ = interner.size();
}

std::vector<std::pair<uint64_t, uint64_t>> ViolationHypergraph::StarEdges()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  edges.reserve(nodes_.size());
  for (size_t e = 0; e < num_edges(); ++e) {
    const std::span<const uint64_t> nodes = edge_nodes(e);
    for (size_t i = 1; i < nodes.size(); ++i) {
      edges.emplace_back(nodes[0], nodes[i]);
    }
  }
  return edges;
}

std::vector<std::vector<size_t>> ViolationHypergraph::ConnectedComponentGroups(
    ExecutionContext* ctx) const {
  const ComponentLabels labels =
      ctx != nullptr ? BspConnectedComponents(ctx, num_nodes_, StarEdges())
                     : UnionFindConnectedComponents(num_nodes_, StarEdges());
  // A component's id is its smallest node, its root. Numbering the roots in
  // ascending order puts the groups in component-id order; every node lies
  // on some hyperedge, so no group stays empty.
  std::vector<size_t> group_of(num_nodes_);
  size_t num_groups = 0;
  for (uint64_t n = 0; n < num_nodes_; ++n) {
    if (labels[n] == n) group_of[n] = num_groups++;
  }
  // All nodes of a hyperedge share a component, so its first node places it.
  std::vector<std::vector<size_t>> groups(num_groups);
  for (size_t e = 0; e < num_edges(); ++e) {
    if (offsets_[e] == offsets_[e + 1]) continue;
    groups[group_of[labels[nodes_[offsets_[e]]]]].push_back(e);
  }
  return groups;
}

}  // namespace bigdansing
