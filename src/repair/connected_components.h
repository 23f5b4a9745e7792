#ifndef BIGDANSING_REPAIR_CONNECTED_COMPONENTS_H_
#define BIGDANSING_REPAIR_CONNECTED_COMPONENTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "dataflow/context.h"

namespace bigdansing {

/// Node labels produced by a connected-components run over dense node ids
/// 0..n-1: `labels[node]` is the node's component id, the minimum node id
/// in its component. A node in no edge is its own component.
using ComponentLabels = std::vector<uint64_t>;

/// Connected components via sequential array union-find (union toward the
/// smaller root, path halving). Reference implementation and fast path for
/// driver-side graphs. Every edge endpoint must be below `num_nodes`.
ComponentLabels UnionFindConnectedComponents(
    size_t num_nodes, const std::vector<std::pair<uint64_t, uint64_t>>& edges);

/// Connected components via Bulk Synchronous Parallel min-label propagation
/// on the dataflow engine — the GraphX substitute of §5.1. Each superstep
/// propagates the smallest known component id across edges with a
/// reduceByKey(min) shuffle; converges in O(diameter) supersteps.
/// Produces exactly the same labels as the union-find version.
ComponentLabels BspConnectedComponents(
    ExecutionContext* ctx, size_t num_nodes,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges);

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_CONNECTED_COMPONENTS_H_
