#include "repair/hypergraph.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "dataflow/stage_executor.h"
#include "repair/connected_components.h"

namespace bigdansing {

namespace {

/// A build of fewer than 2 * kShardMentions mentions is one shard on the
/// calling thread, since stage dispatch would cost more than it saves;
/// each doubling above that doubles the shards, up to 2^kMaxShardBits.
constexpr size_t kShardMentions = size_t{1} << 13;
constexpr size_t kMaxShardBits = 4;

/// Key of one mention after interning: its shard in bits 32-62, the
/// cell's id within the shard in bits 0-31, and kFirstMention when this is
/// the cell's first mention.
constexpr uint64_t kFirstMention = uint64_t{1} << 63;
constexpr uint64_t kLocalMask = 0xFFFFFFFFu;

/// Dense ids for distinct cells, in first-appearance order. Slots hold
/// id+1 (0 = empty) into the cell list and are probed linearly by
/// CellRefHash; the table grows at half load. The encode stage's
/// FlatValueSet uses the same layout.
class CellInterner {
 public:
  explicit CellInterner(size_t expected) {
    cells_.reserve(expected);
    uint64_t size = 16;
    while (size < 2 * expected) size <<= 1;
    Rehash(size);
  }

  /// Id of `ref`; sets `*fresh` when this call added it.
  uint32_t Intern(const CellRef& ref, bool* fresh) {
    if ((cells_.size() + 1) * 2 > slots_.size()) Rehash(2 * slots_.size());
    uint64_t i = CellRefHash()(ref) & mask_;
    while (uint32_t slot = slots_[i]) {
      if (cells_[slot - 1] == ref) {
        *fresh = false;
        return slot - 1;
      }
      i = (i + 1) & mask_;
    }
    BD_CHECK(cells_.size() < UINT32_MAX) << "too many distinct cells";
    slots_[i] = static_cast<uint32_t>(cells_.size()) + 1;
    cells_.push_back(ref);
    *fresh = true;
    return static_cast<uint32_t>(cells_.size() - 1);
  }

  size_t size() const { return cells_.size(); }

 private:
  void Rehash(uint64_t size) {
    slots_.assign(size, 0);
    mask_ = size - 1;
    for (uint32_t id = 0; id < cells_.size(); ++id) {
      uint64_t i = CellRefHash()(cells_[id]) & mask_;
      while (slots_[i]) i = (i + 1) & mask_;
      slots_[i] = id + 1;
    }
  }

  std::vector<uint32_t> slots_;
  uint64_t mask_ = 0;
  std::vector<CellRef> cells_;
};

/// A mention routed to its shard: the cell and its mention index.
struct Mention {
  CellRef ref;
  uint32_t index;
};

}  // namespace

ViolationHypergraph::ViolationHypergraph(const ViolationBuffer& violations,
                                         ExecutionContext* ctx)
    : violations_(&violations) {
  // Edge e's mentions are its buffer cells, [mention_begin(e),
  // mention_begin(e + 1)) in mention order.
  const size_t num_edges = violations.size();
  const size_t mentions = violations.num_cells();
  auto mention_begin = [&](size_t e) {
    return e < num_edges ? violations.cell_begin(e) : mentions;
  };
  BD_CHECK(mentions < UINT32_MAX) << "too many cell mentions";

  size_t shard_bits = 0;
  while (shard_bits < kMaxShardBits &&
         mentions >= (kShardMentions << (shard_bits + 1))) {
    ++shard_bits;
  }
  // Shards take the hash's top bits, leaving the low bits, which place a
  // cell in its shard's table, spread within every shard. Edges split into
  // as many contiguous chunks as there are shards.
  const size_t num_shards = size_t{1} << shard_bits;
  auto shard_of = [shard_bits](const CellRef& ref) -> size_t {
    return shard_bits == 0 ? 0 : CellRefHash()(ref) >> (64 - shard_bits);
  };
  auto chunk_edges = [&](size_t c) {
    return std::pair<size_t, size_t>{c * num_edges / num_shards,
                                     (c + 1) * num_edges / num_shards};
  };
  // Each step runs its num_shards tasks as one stage, or inline when there
  // is one shard. Tasks write disjoint slots of the step's outputs, so a
  // retried attempt rewrites its own slots.
  auto run = [&](const char* stage, const StageExecutor::TaskBody& body) {
    if (num_shards == 1) {
      TaskContext tc;
      body(0, tc);
      return;
    }
    const Status status = StageExecutor(ctx).Run(stage, num_shards, body);
    if (!status.ok()) throw StageError(status);
  };

  // 1. Route every mention to its shard; chunk c's mentions stay in
  //    mention order within each shard.
  std::vector<std::vector<std::vector<Mention>>> routed(num_shards);
  run("repair:hypergraph:route", [&](size_t c, TaskContext& tc) {
    const auto [begin, end] = chunk_edges(c);
    std::vector<std::vector<Mention>> out(num_shards);
    for (auto& bucket : out) {
      bucket.reserve((mention_begin(end) - mention_begin(begin)) /
                         num_shards + 16);
    }
    for (size_t m = mention_begin(begin); m < mention_begin(end); ++m) {
      const CellRef ref = violations.cell(m).ref();
      out[shard_of(ref)].push_back({ref, static_cast<uint32_t>(m)});
    }
    routed[c] = std::move(out);
    tc.records_in = end - begin;
    tc.records_out = mention_begin(end) - mention_begin(begin);
  });

  // 2. Intern each shard's mentions in mention order (chunk by chunk),
  //    flag first mentions, and count them per chunk.
  std::vector<uint64_t> keys(mentions);
  std::vector<std::vector<size_t>> firsts(num_shards);  // [shard][chunk]
  std::vector<size_t> shard_cells(num_shards, 0);
  run("repair:hypergraph:intern", [&](size_t s, TaskContext& tc) {
    size_t expected = 0;
    for (size_t c = 0; c < num_shards; ++c) expected += routed[c][s].size();
    CellInterner interner(expected);
    std::vector<size_t> count(num_shards, 0);
    for (size_t c = 0; c < num_shards; ++c) {
      for (const Mention& m : routed[c][s]) {
        bool fresh = false;
        uint64_t key = (uint64_t{s} << 32) | interner.Intern(m.ref, &fresh);
        if (fresh) {
          key |= kFirstMention;
          ++count[c];
        }
        keys[m.index] = key;
      }
    }
    firsts[s] = std::move(count);
    shard_cells[s] = interner.size();
    tc.records_in = expected;
    tc.records_out = interner.size();
  });
  routed.clear();
  routed.shrink_to_fit();

  // 3. Exclusive prefix sum over first mentions in mention order: node ids
  //    in first-appearance order. Each chunk starts after the first
  //    mentions of the chunks before it; the same pass sizes each edge.
  std::vector<uint64_t> chunk_base(num_shards, 0);
  uint64_t total = 0;
  for (size_t c = 0; c < num_shards; ++c) {
    chunk_base[c] = total;
    for (size_t s = 0; s < num_shards; ++s) total += firsts[s][c];
  }
  num_nodes_ = total;
  std::vector<std::vector<uint64_t>> node_of(num_shards);
  for (size_t s = 0; s < num_shards; ++s) node_of[s].resize(shard_cells[s]);
  offsets_.assign(num_edges + 1, 0);
  run("repair:hypergraph:number", [&](size_t c, TaskContext& tc) {
    const auto [begin, end] = chunk_edges(c);
    uint64_t next = chunk_base[c];
    std::vector<uint64_t> edge;
    for (size_t e = begin; e < end; ++e) {
      edge.assign(keys.begin() + mention_begin(e),
                  keys.begin() + mention_begin(e + 1));
      for (uint64_t& key : edge) {
        if (key & kFirstMention) {
          key &= ~kFirstMention;
          node_of[key >> 32][key & kLocalMask] = next++;
        }
      }
      std::sort(edge.begin(), edge.end());
      offsets_[e + 1] =
          std::unique(edge.begin(), edge.end()) - edge.begin();
    }
    tc.records_in = end - begin;
    tc.records_out = next - chunk_base[c];
  });
  for (size_t e = 0; e < num_edges; ++e) offsets_[e + 1] += offsets_[e];

  // 4. Each edge's ascending, deduplicated node ids into the CSR array.
  nodes_.resize(offsets_[num_edges]);
  run("repair:hypergraph:edges", [&](size_t c, TaskContext& tc) {
    const auto [begin, end] = chunk_edges(c);
    std::vector<uint64_t> edge;
    for (size_t e = begin; e < end; ++e) {
      edge.clear();
      for (size_t m = mention_begin(e); m < mention_begin(e + 1); ++m) {
        const uint64_t key = keys[m] & ~kFirstMention;
        edge.push_back(node_of[key >> 32][key & kLocalMask]);
      }
      std::sort(edge.begin(), edge.end());
      edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
      std::copy(edge.begin(), edge.end(), nodes_.begin() + offsets_[e]);
    }
    tc.records_in = end - begin;
    tc.records_out = offsets_[end] - offsets_[begin];
  });
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
