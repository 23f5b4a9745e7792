#include "repair/equivalence_class.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/hash.h"
#include "common/lineage.h"
#include "common/trace.h"
#include "obs/quality.h"
#include "dataflow/dataset.h"
#include "repair/blackbox.h"
#include "repair/connected_components.h"

namespace bigdansing {

namespace {

/// Value vote tally with deterministic winner selection: highest count,
/// ties broken toward the smaller value. std::map keeps value order.
Value WinningValue(const std::map<Value, size_t>& votes) {
  Value best;
  size_t best_count = 0;
  for (const auto& [value, count] : votes) {
    if (count > best_count) {
      best = value;
      best_count = count;
    }
  }
  return best;
}

/// Reduces (cell id, constant) votes to distinct pairs, compared exactly,
/// so a constant proposed for a cell by several fixes counts once.
void DedupConstantVotes(std::vector<std::pair<uint64_t, Value>>* votes) {
  std::sort(votes->begin(), votes->end());
  votes->erase(std::unique(votes->begin(), votes->end()), votes->end());
}

}  // namespace

std::vector<CellAssignment> EquivalenceClassAlgorithm::RepairComponent(
    const ViolationBuffer& violations, std::span<const size_t> edges) const {
  // Dense ids for the cells touched by equality fixes.
  std::unordered_map<CellRef, uint64_t, CellRefHash> ids;
  std::vector<CellRef> cells;
  std::vector<Value> current;  // Current (dirty) value per cell.
  auto intern = [&](const BufferCell& c) {
    auto [it, inserted] = ids.try_emplace(c.ref(), cells.size());
    if (inserted) {
      cells.push_back(c.ref());
      current.push_back(violations.value(c));
    }
    return it->second;
  };

  // Link cells joined by `cell = cell` fixes; remember `cell = constant`.
  std::vector<std::pair<uint64_t, uint64_t>> links;
  std::vector<std::pair<uint64_t, Value>> constant_votes;
  for (size_t e : edges) {
    const std::span<const BufferCell> edge_cells = violations.cells(e);
    for (const BufferFix& fix : violations.fixes(e)) {
      if (fix.op != FixOp::kEq) continue;  // EC consumes equality fixes only.
      const uint64_t left = intern(edge_cells[fix.left]);
      if (fix.right_is_cell) {
        links.emplace_back(left, intern(edge_cells[fix.right]));
      } else {
        constant_votes.emplace_back(left, violations.constant(fix));
      }
    }
  }
  const ComponentLabels classes =
      UnionFindConnectedComponents(cells.size(), links);

  // Tally votes per class: one vote per member's current value, plus one
  // per distinct (cell, constant) fix.
  std::vector<std::map<Value, size_t>> votes(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    votes[classes[i]][current[i]] += 1;
  }
  DedupConstantVotes(&constant_votes);
  for (const auto& [cell_id, value] : constant_votes) {
    votes[classes[cell_id]][value] += 1;
  }

  // Assign the winning value to members that differ.
  std::vector<CellAssignment> out;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Value target = WinningValue(votes[classes[i]]);
    if (current[i] != target) {
      out.push_back(CellAssignment{cells[i], target});
    }
  }
  return out;
}

std::vector<CellAssignment> DistributedEquivalenceClassRepair(
    ExecutionContext* ctx, const std::vector<ViolationWithFixes>& violations,
    std::vector<FixProvenance>* provenance) {
  return DistributedEquivalenceClassRepair(
      ctx, ObjectsAsBuffer(ctx, violations), provenance);
}

std::vector<CellAssignment> DistributedEquivalenceClassRepair(
    ExecutionContext* ctx, const ViolationBuffer& violations,
    std::vector<FixProvenance>* provenance) {
  const bool track_provenance =
      provenance != nullptr && ProvenanceTrackingEnabled();
  // Collect the equality-fix graph: nodes are cells, edges link the two
  // sides of `cell = cell` fixes. Cell identity is its dense id.
  std::unordered_map<CellRef, uint64_t, CellRefHash> ids;
  std::vector<CellRef> cells;
  std::vector<Value> current;
  // First violation (input index) mentioning each interned cell.
  std::vector<uint64_t> first_violation;
  uint64_t interning_violation = 0;
  auto intern = [&](const BufferCell& c) {
    auto [it, inserted] = ids.try_emplace(c.ref(), cells.size());
    if (inserted) {
      cells.push_back(c.ref());
      current.push_back(violations.value(c));
      if (track_provenance) first_violation.push_back(interning_violation);
    }
    return it->second;
  };
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  std::vector<std::pair<uint64_t, Value>> constant_votes;
  for (size_t v = 0; v < violations.size(); ++v) {
    const std::span<const BufferCell> violation_cells = violations.cells(v);
    interning_violation = v;
    for (const BufferFix& fix : violations.fixes(v)) {
      if (fix.op != FixOp::kEq) continue;
      uint64_t left = intern(violation_cells[fix.left]);
      if (fix.right_is_cell) {
        edges.emplace_back(left, intern(violation_cells[fix.right]));
      } else {
        constant_votes.emplace_back(left, violations.constant(fix));
      }
    }
  }
  if (cells.empty()) return {};

  TraceRecorder& trace = TraceRecorder::Instance();
  std::optional<ScopedSpan> repair_span;
  if (trace.enabled()) {
    repair_span.emplace("repair:distributed-ec", "operator");
    repair_span->Annotate("cells", static_cast<uint64_t>(cells.size()));
    repair_span->Annotate("edges", static_cast<uint64_t>(edges.size()));
  }

  // Equivalence classes = connected components of the equality graph,
  // computed with the BSP kernel (GraphX role).
  std::optional<ScopedSpan> cc_span;
  if (trace.enabled()) {
    cc_span.emplace("repair:ec-connected-components", "operator");
  }
  const ComponentLabels labels =
      BspConnectedComponents(ctx, cells.size(), edges);
  cc_span.reset();

  // First map-reduce sequence: ((class, value), 1) -> counts.
  // "If an element exists in multiple fixes, we only count its value once":
  // member votes are emitted per cell (once each); constant votes are
  // deduplicated per (cell, constant).
  struct KeyHash {
    size_t operator()(const std::pair<uint64_t, Value>& k) const {
      size_t seed = static_cast<size_t>(StableHashUint64(k.first));
      HashCombine(&seed, static_cast<size_t>(k.second.Hash()));
      return seed;
    }
  };
  using CountKey = std::pair<uint64_t, Value>;
  std::vector<std::pair<CountKey, uint64_t>> votes;
  votes.reserve(cells.size() + constant_votes.size());
  for (uint64_t i = 0; i < cells.size(); ++i) {
    votes.emplace_back(CountKey{labels[i], current[i]}, 1);
  }
  DedupConstantVotes(&constant_votes);
  for (const auto& [cell_id, value] : constant_votes) {
    votes.emplace_back(CountKey{labels[cell_id], value}, 1);
  }
  std::optional<ScopedSpan> mr1_span;
  if (trace.enabled()) mr1_span.emplace("repair:ec-mr1-count", "operator");
  auto counted = ReduceByKey<CountKey, uint64_t>(
      Dataset<std::pair<CountKey, uint64_t>>::FromVector(ctx, std::move(votes)),
      [](uint64_t a, uint64_t b) { return a + b; }, 0, KeyHash());
  mr1_span.reset();

  // Second sequence: (class, (value, count)) -> most frequent value.
  std::optional<ScopedSpan> mr2_span;
  if (trace.enabled()) mr2_span.emplace("repair:ec-mr2", "operator");
  auto per_class = counted.Map(
      [](const std::pair<CountKey, uint64_t>& rec) {
        return std::make_pair(rec.first.first,
                              std::make_pair(rec.first.second, rec.second));
      });
  using Best = std::pair<Value, uint64_t>;
  auto best = ReduceByKey(per_class, [](const Best& a, const Best& b) {
    if (a.second != b.second) return a.second > b.second ? a : b;
    return a.first <= b.first ? a : b;  // Deterministic tie-break.
  });

  std::vector<Value> target(cells.size());  // Indexed by class label.
  for (const auto& [cls, vc] : best.Collect()) target[cls] = vc.first;
  mr2_span.reset();

  std::vector<CellAssignment> out;
  for (uint64_t i = 0; i < cells.size(); ++i) {
    const Value& t = target[labels[i]];
    if (current[i] != t) {
      out.push_back(CellAssignment{cells[i], t});
      if (track_provenance) {
        FixProvenance p;
        p.rule = violations.rule_name(first_violation[i]);
        p.violation_id = first_violation[i];
        p.component = labels[i];
        p.strategy = "distributed-equivalence-class";
        provenance->push_back(std::move(p));
      }
    }
  }
  return out;
}

}  // namespace bigdansing
