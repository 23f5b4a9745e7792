#ifndef BIGDANSING_REPAIR_HYPERGRAPH_H_
#define BIGDANSING_REPAIR_HYPERGRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dataflow/context.h"
#include "rules/violation.h"
#include "rules/violation_buffer.h"

namespace bigdansing {

/// The violation hypergraph of §5.1: nodes are elements (cells), each
/// hyperedge is one violation together with its possible fixes. The graph
/// assigns dense node ids to distinct cells and can split its hyperedges
/// into connected components for independent repair.
///
/// Flat layout: node ids follow the cells' first appearance (violation
/// order; within a violation its cells in buffer order, which is the
/// object form's mention order: its cells, then each fix's left and right
/// cell), and the hyperedges are one CSR array — edge e's ascending,
/// deduplicated node ids are `nodes_[offsets_[e] .. offsets_[e + 1])`.
/// Those orders fix the component ids and group order below, and with them
/// the order of a repair pass's assignments and lineage.
///
/// A violation's mentions are its buffer cell range, so the buffer's cell
/// offsets are the mention offsets. The build interns them in shards keyed
/// by CellRefHash bits,
/// each shard in mention order, then numbers the nodes by a prefix sum over
/// first mentions, so the ids are the first-appearance ids whatever the
/// shard count. A large build runs each step as a stage on `ctx`; one small
/// enough for a single shard runs on the calling thread.
class ViolationHypergraph {
 public:
  /// Builds the hypergraph from detection output. `violations` must outlive
  /// the hypergraph (edges refer into it); `ctx` (non-null) runs the
  /// build's stages.
  ViolationHypergraph(const ViolationBuffer& violations,
                      ExecutionContext* ctx);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return violations_->size(); }

  /// Node ids touched by hyperedge `e`, ascending and deduplicated.
  std::span<const uint64_t> edge_nodes(size_t e) const {
    return {nodes_.data() + offsets_[e], offsets_[e + 1] - offsets_[e]};
  }

  /// The violations; hyperedge e is violation e.
  const ViolationBuffer& violations() const { return *violations_; }

  /// Binary edges (star expansion: first node of each hyperedge linked to
  /// the rest) for connected-components algorithms.
  std::vector<std::pair<uint64_t, uint64_t>> StarEdges() const;

  /// Groups hyperedges by connected component. When `ctx` is non-null the
  /// BSP dataflow algorithm computes the components (the GraphX path of the
  /// paper); otherwise sequential union-find is used. Each group holds the
  /// ascending indices of its hyperedges; groups are ordered by component
  /// id (the component's smallest node id, hence its first hyperedge).
  /// Hyperedges without nodes belong to no group.
  std::vector<std::vector<size_t>> ConnectedComponentGroups(
      ExecutionContext* ctx = nullptr) const;

 private:
  const ViolationBuffer* violations_;
  size_t num_nodes_ = 0;
  std::vector<size_t> offsets_;
  std::vector<uint64_t> nodes_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_HYPERGRAPH_H_
