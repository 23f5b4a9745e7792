#include "repair/blackbox.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>

#include "common/lineage.h"
#include "common/stopwatch.h"
#include "obs/quality.h"
#include "common/trace.h"
#include "dataflow/stage_executor.h"
#include <unordered_map>
#include <unordered_set>

#include "repair/hypergraph.h"
#include "repair/partitioner.h"

namespace bigdansing {

namespace {

/// Attributes each assignment of one repaired component to the first
/// violation (by input index) among `edges` whose fixes mention the
/// assigned cell — deterministic and exact for equality-fix repairs, where
/// every assigned cell appears in some fix of its component.
void AttributeAssignments(const ViolationBuffer& violations,
                          std::span<const size_t> edges,
                          const std::vector<CellAssignment>& assignments,
                          uint64_t component, const std::string& strategy,
                          std::vector<FixProvenance>* provenance) {
  std::unordered_map<CellRef, size_t, CellRefHash> owner;
  for (size_t e : edges) {
    const std::span<const BufferCell> cells = violations.cells(e);
    for (const BufferFix& fix : violations.fixes(e)) {
      owner.try_emplace(cells[fix.left].ref(), e);
      if (fix.right_is_cell) owner.try_emplace(cells[fix.right].ref(), e);
    }
  }
  for (const CellAssignment& a : assignments) {
    auto it = owner.find(a.cell);
    const size_t e = it != owner.end() ? it->second : edges.front();
    FixProvenance p;
    p.rule = violations.rule_name(e);
    p.violation_id = e;
    p.component = component;
    p.strategy = strategy;
    provenance->push_back(std::move(p));
  }
}

/// Repairs one oversized component under the master/slave protocol:
/// the component's hyperedges are split k-way; part 0 (master) repairs
/// first and its updated cells become immutable; the remaining parts repair
/// in parallel and any assignment touching an immutable cell is undone.
void RepairSplitComponent(ExecutionContext* ctx,
                          const ViolationHypergraph& graph,
                          const std::vector<size_t>& component_edges,
                          const RepairAlgorithm& algorithm,
                          const BlackBoxOptions& options,
                          std::vector<CellAssignment>* applied,
                          size_t* num_undone) {
  // Runs inside a repair:components task, so this span nests under that
  // task's stage via the pool thread's scope stack.
  std::optional<ScopedSpan> span;
  if (TraceRecorder::Instance().enabled()) {
    span.emplace("repair:kway-split", "operator");
    span->Annotate("component_edges",
                   static_cast<uint64_t>(component_edges.size()));
  }
  std::vector<std::vector<uint64_t>> edge_nodes;
  edge_nodes.reserve(component_edges.size());
  for (size_t e : component_edges) {
    const std::span<const uint64_t> nodes = graph.edge_nodes(e);
    edge_nodes.emplace_back(nodes.begin(), nodes.end());
  }
  std::vector<size_t> part_of = GreedyKWayPartition(edge_nodes, options.kway_parts);
  size_t k = 1 + *std::max_element(part_of.begin(), part_of.end());
  if (span) span->Annotate("parts", static_cast<uint64_t>(k));

  std::vector<std::vector<size_t>> parts(k);
  for (size_t i = 0; i < component_edges.size(); ++i) {
    parts[part_of[i]].push_back(component_edges[i]);
  }

  // Master (part 0) repairs first; its cells become immutable.
  const ViolationBuffer& violations = graph.violations();
  std::vector<CellAssignment> master =
      algorithm.RepairComponent(violations, parts[0]);
  std::unordered_set<CellRef, CellRefHash> immutable;
  for (const auto& a : master) immutable.insert(a.cell);
  applied->insert(applied->end(), master.begin(), master.end());

  // Slaves repair in parallel (in isolation, per the paper); conflicting
  // assignments are undone, triggering a new detect/repair iteration. The
  // immutability test covers master cells AND cut cells already assigned
  // by an earlier slave ("prevents us to change an element more than
  // once") — without the latter, two slaves sharing a cut vertex could
  // both rewrite it.
  if (k <= 1) return;
  // ParallelFor is re-entrant: when this runs on a pool worker (inside a
  // repair:components task), the caller helps drain the pool instead of
  // blocking a worker slot while waiting for the slave repairs.
  std::vector<std::vector<CellAssignment>> slave_results(k - 1);
  ctx->pool().ParallelFor(k - 1, [&](size_t s) {
    slave_results[s] = algorithm.RepairComponent(violations, parts[s + 1]);
  });
  for (auto& result : slave_results) {
    for (auto& a : result) {
      if (!immutable.insert(a.cell).second) {
        ++*num_undone;
      } else {
        applied->push_back(std::move(a));
      }
    }
  }
}

}  // namespace

ViolationBuffer ObjectsAsBuffer(ExecutionContext* ctx,
                                std::span<const ViolationWithFixes> violations) {
  // At least this many objects per task: borrowing one costs about
  // 0.15 µs and a stage about 40 µs, so smaller runs gain nothing.
  constexpr size_t kObjectsPerTask = 512;
  const size_t n = violations.size();
  if (n < 2 * kObjectsPerTask) return ViolationBuffer::FromObjects(violations);
  const size_t num_tasks = std::min(
      n / kObjectsPerTask, 4 * std::max<size_t>(1, ctx->num_workers()));
  auto parts = StageExecutor(ctx).RunProducing<ViolationBuffer>(
      "repair:objects", num_tasks, [&](size_t t, TaskContext& tc) {
        const size_t first = t * n / num_tasks;
        const size_t last = (t + 1) * n / num_tasks;
        tc.records_in = last - first;
        tc.records_out = last - first;
        return ViolationBuffer::FromObjects(
            violations.subspan(first, last - first));
      });
  if (!parts.ok()) throw StageError(parts.status());
  std::vector<ViolationBuffer*> runs;
  for (ViolationBuffer& part : *parts) runs.push_back(&part);
  ViolationBuffer out;
  out.AppendAll(runs);
  return out;
}

RepairPassResult BlackBoxRepair(
    ExecutionContext* ctx, const std::vector<ViolationWithFixes>& violations,
    const RepairAlgorithm& algorithm, const BlackBoxOptions& options) {
  return BlackBoxRepair(ctx, ObjectsAsBuffer(ctx, violations), algorithm,
                        options);
}

RepairPassResult BlackBoxRepair(ExecutionContext* ctx,
                                const ViolationBuffer& violations,
                                const RepairAlgorithm& algorithm,
                                const BlackBoxOptions& options) {
  RepairPassResult result;
  if (violations.empty()) return result;

  TraceRecorder& trace = TraceRecorder::Instance();
  if (!options.parallel) {
    // Centralized baseline: one repair instance over everything (the
    // algorithm itself still handles multiple equivalence classes). All
    // work lands on one worker slot.
    std::optional<ScopedSpan> span;
    if (trace.enabled()) {
      span.emplace("repair:centralized", "operator");
      span->Annotate("violations", static_cast<uint64_t>(violations.size()));
    }
    ThreadCpuStopwatch timer;
    std::vector<size_t> all(violations.size());
    std::iota(all.begin(), all.end(), size_t{0});
    result.applied = algorithm.RepairComponent(violations, all);
    result.num_components = 1;
    ctx->metrics().RecordTaskTime(0, timer.ElapsedSeconds());
    if (ProvenanceTrackingEnabled()) {
      AttributeAssignments(violations, all, result.applied, /*component=*/0,
                           algorithm.name(), &result.provenance);
    }
    return result;
  }

  // Hypergraph + connected components (GraphX role when BSP is selected).
  // The setup is itself a distributed job on a real cluster, so its cost is
  // spread over the worker slots in the simulated-cluster accounting; it is
  // still overhead the centralized repair does not pay, which is why a
  // serial repair can win at very low violation counts (Fig 12(b)).
  std::optional<ScopedSpan> repair_span;
  if (trace.enabled()) {
    repair_span.emplace("repair:blackbox", "operator");
    repair_span->Annotate("violations",
                          static_cast<uint64_t>(violations.size()));
  }
  ThreadCpuStopwatch setup_timer;
  std::optional<ScopedSpan> cc_span;
  if (trace.enabled()) cc_span.emplace("repair:hypergraph-cc", "operator");
  ViolationHypergraph graph(violations, ctx);
  std::vector<std::vector<size_t>> groups = graph.ConnectedComponentGroups(
      options.use_bsp_connected_components ? ctx : nullptr);
  result.num_components = groups.size();
  if (cc_span) {
    cc_span->Annotate("components", static_cast<uint64_t>(groups.size()));
    cc_span.reset();
  }
  const double setup_seconds = setup_timer.ElapsedSeconds();
  for (size_t s = 0; s < ctx->num_workers(); ++s) {
    ctx->metrics().RecordTaskTime(
        s, setup_seconds / static_cast<double>(ctx->num_workers()));
  }

  // Independent repair instance per component, scheduled on the pool. Each
  // task returns its outcome buffer (retryable: the algorithm is stateless
  // and the graph/group inputs are immutable), and the executor commits
  // exactly one outcome per component. Components are not row-splittable
  // (a repair instance needs its whole component), so this stage keeps
  // task granularity; to curb stragglers the tasks are dispatched largest
  // component first (LPT order) while outcomes commit under the original
  // component index, keeping the applied-fix order independent of the
  // schedule.
  struct ComponentOutcome {
    std::vector<CellAssignment> assignments;
    size_t undone = 0;
    bool split = false;
  };
  std::vector<size_t> order(groups.size());
  for (size_t g = 0; g < order.size(); ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return groups[a].size() > groups[b].size();
  });
  auto outcomes = StageExecutor(ctx).RunProducing<ComponentOutcome>(
      "repair:components", groups.size(), [&](size_t t, TaskContext& tc) {
        const size_t g = order[t];
        ComponentOutcome out;
        tc.records_in = groups[g].size();
        if (groups[g].size() > options.max_component_edges) {
          out.split = true;
          RepairSplitComponent(ctx, graph, groups[g], algorithm, options,
                               &out.assignments, &out.undone);
          tc.records_out = out.assignments.size();
          return out;
        }
        out.assignments = algorithm.RepairComponent(violations, groups[g]);
        tc.records_out = out.assignments.size();
        return out;
      });
  if (!outcomes.ok()) throw StageError(outcomes.status());

  std::vector<size_t> slot_of(groups.size());
  for (size_t t = 0; t < order.size(); ++t) slot_of[order[t]] = t;
  const bool lineage_on = ProvenanceTrackingEnabled();
  for (size_t g = 0; g < groups.size(); ++g) {
    ComponentOutcome& out = (*outcomes)[slot_of[g]];
    result.num_split_components += out.split ? 1 : 0;
    result.num_undone += out.undone;
    if (lineage_on) {
      AttributeAssignments(violations, groups[g], out.assignments,
                           static_cast<uint64_t>(g), algorithm.name(),
                           &result.provenance);
    }
    result.applied.insert(result.applied.end(),
                          std::make_move_iterator(out.assignments.begin()),
                          std::make_move_iterator(out.assignments.end()));
  }
  if (repair_span) {
    repair_span->Annotate("components",
                          static_cast<uint64_t>(result.num_components));
    repair_span->Annotate(
        "split_components",
        static_cast<uint64_t>(result.num_split_components));
    repair_span->Annotate("undone", static_cast<uint64_t>(result.num_undone));
    repair_span->Annotate("applied",
                          static_cast<uint64_t>(result.applied.size()));
  }
  return result;
}

}  // namespace bigdansing
