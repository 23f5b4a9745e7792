#include "repair/connected_components.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "dataflow/dataset.h"

namespace bigdansing {

ComponentLabels UnionFindConnectedComponents(
    size_t num_nodes, const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  // parent[x] <= x always holds: unions point the larger root at the
  // smaller one and path halving only moves a node closer to its root.
  ComponentLabels parent(num_nodes);
  std::iota(parent.begin(), parent.end(), uint64_t{0});
  auto find = [&parent](uint64_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& [a, b] : edges) {
    BD_CHECK(a < num_nodes && b < num_nodes)
        << "edge (" << a << ", " << b << ") outside " << num_nodes << " nodes";
    const uint64_t ra = find(a);
    const uint64_t rb = find(b);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }
  // Ascending sweep: parent[x] < x already holds its root, so one hop
  // labels x with the minimum node id of its component.
  for (uint64_t x = 0; x < num_nodes; ++x) parent[x] = parent[parent[x]];
  return parent;
}

ComponentLabels BspConnectedComponents(
    ExecutionContext* ctx, size_t num_nodes,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  // Initial labels: every node is its own component.
  ComponentLabels current(num_nodes);
  std::iota(current.begin(), current.end(), uint64_t{0});
  std::vector<std::pair<uint64_t, uint64_t>> label_records;
  label_records.reserve(num_nodes);
  for (uint64_t n = 0; n < num_nodes; ++n) label_records.emplace_back(n, n);
  auto min_fn = [](uint64_t a, uint64_t b) { return std::min(a, b); };
  auto labels = Dataset<std::pair<uint64_t, uint64_t>>::FromVector(
      ctx, std::move(label_records));

  // Edge dataset is reused every superstep.
  auto edge_ds =
      Dataset<std::pair<uint64_t, uint64_t>>::FromVector(ctx, edges);

  while (true) {
    // Superstep: each node sends its current label across incident edges;
    // nodes adopt the minimum of their own and received labels.
    auto with_labels = Join(edge_ds, labels);  // (u, (v, label_u)) keyed by u.
    // Messages to v: label_u; plus symmetric direction via reversed edges.
    auto messages = with_labels.Map(
        [](const std::pair<uint64_t, std::pair<uint64_t, uint64_t>>& rec) {
          return std::make_pair(rec.second.first, rec.second.second);
        });
    auto reversed = edge_ds.Map([](const std::pair<uint64_t, uint64_t>& e) {
      return std::make_pair(e.second, e.first);
    });
    auto messages_back =
        Join(reversed, labels).Map(
            [](const std::pair<uint64_t, std::pair<uint64_t, uint64_t>>& rec) {
              return std::make_pair(rec.second.first, rec.second.second);
            });
    auto combined = labels.Union(messages).Union(messages_back);
    labels = ReduceByKey(combined, min_fn);

    // Convergence check: did any label shrink?
    bool changed = false;
    for (const auto& [node, label] : labels.Collect()) {
      BD_CHECK(node < num_nodes) << "edge endpoint " << node << " outside "
                                 << num_nodes << " nodes";
      if (current[node] != label) {
        current[node] = label;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return current;
}

}  // namespace bigdansing
