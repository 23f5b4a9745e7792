// Property tests over randomly generated violation sets: the repair
// deployments (per-component parallel, centralized serial, natively
// distributed) must agree, and repairs must make real progress.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/random.h"
#include "dataflow/context.h"
#include "repair/blackbox.h"
#include "repair/equivalence_class.h"
#include "repair/hypergraph.h"
#include "repair/hypergraph_repair.h"

namespace bigdansing {
namespace {

Cell MakeCell(RowId row, size_t col, Value v) {
  Cell c;
  c.ref = CellRef{row, col};
  c.attribute = "a" + std::to_string(col);
  c.value = std::move(v);
  return c;
}

/// Random equality-fix violations: pairs of cells over `num_rows` rows and
/// one column, each holding one of `num_values` values, linked by eq fixes.
std::vector<ViolationWithFixes> RandomEqViolations(size_t count,
                                                   size_t num_rows,
                                                   size_t num_values,
                                                   uint64_t seed) {
  Random rng(seed);
  // Fixed per-cell values so the same cell always carries the same value
  // (as real detection output would).
  std::map<RowId, Value> cell_values;
  auto value_of = [&](RowId r) {
    auto it = cell_values.find(r);
    if (it == cell_values.end()) {
      it = cell_values
               .emplace(r, Value("v" + std::to_string(rng.NextBounded(num_values))))
               .first;
    }
    return it->second;
  };
  std::vector<ViolationWithFixes> out;
  for (size_t i = 0; i < count; ++i) {
    RowId a = static_cast<RowId>(rng.NextBounded(num_rows));
    RowId b = static_cast<RowId>(rng.NextBounded(num_rows));
    if (a == b) b = (b + 1) % static_cast<RowId>(num_rows);
    ViolationWithFixes vf;
    Cell ca = MakeCell(a, 0, value_of(a));
    Cell cb = MakeCell(b, 0, value_of(b));
    vf.violation.rule_name = "rand";
    vf.violation.cells = {ca, cb};
    Fix fix;
    fix.left = ca;
    fix.op = FixOp::kEq;
    fix.right = FixTerm::MakeCell(cb);
    vf.fixes = {fix};
    out.push_back(std::move(vf));
  }
  return out;
}

/// Random hyperedges over `num_rows` rows that stress the hypergraph's
/// layout: three columns, negative and above-2^32 row ids, cells repeated
/// inside one hyperedge, fixes naming cells the violation does not list,
/// constant fixes, and empty hyperedges.
std::vector<ViolationWithFixes> RandomHyperedges(size_t count, uint64_t seed,
                                                 uint64_t num_rows = 30) {
  Random rng(seed);
  auto random_cell = [&rng, num_rows] {
    const int64_t r = static_cast<int64_t>(rng.NextBounded(num_rows));
    const RowId row = r % 3 == 0   ? -1 - r
                      : r % 3 == 1 ? (int64_t{1} << 32) + 7919 * r
                                   : r;
    // The value follows the row, as in real detection output.
    return MakeCell(row, rng.NextBounded(3),
                    Value("v" + std::to_string(r % 4)));
  };
  std::vector<ViolationWithFixes> out(count);
  for (ViolationWithFixes& vf : out) {
    vf.violation.rule_name = "rand";
    if (rng.NextBool(0.1)) continue;  // Empty hyperedge.
    const size_t width = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < width; ++i) {
      vf.violation.cells.push_back(random_cell());
    }
    if (rng.NextBool(0.3)) {
      vf.violation.cells.push_back(vf.violation.cells.front());
    }
    for (size_t i = 1; i < width; ++i) {
      Fix fix;
      fix.left = vf.violation.cells[0];
      fix.op = FixOp::kEq;
      fix.right = FixTerm::MakeCell(vf.violation.cells[i]);
      vf.fixes.push_back(fix);
    }
    if (rng.NextBool(0.2)) {
      Fix fix;
      fix.left = vf.violation.cells[0];
      fix.op = FixOp::kEq;
      fix.right = FixTerm::MakeCell(random_cell());
      vf.fixes.push_back(fix);
    }
    if (rng.NextBool(0.3)) {
      Fix fix;
      fix.left = vf.violation.cells.back();
      fix.op = FixOp::kEq;
      fix.right = FixTerm::MakeConstant(Value("k"));
      vf.fixes.push_back(fix);
    }
  }
  return out;
}

/// Every cell a hyperedge mentions, in the hypergraph's mention order: the
/// violation's cells, then each fix's left and right cell.
std::vector<CellRef> Mentions(const ViolationWithFixes& vf) {
  std::vector<CellRef> cells;
  for (const Cell& c : vf.violation.cells) cells.push_back(c.ref);
  for (const Fix& f : vf.fixes) {
    cells.push_back(f.left.ref);
    if (f.right.is_cell) cells.push_back(f.right.cell.ref);
  }
  return cells;
}

std::vector<CellAssignment> Sorted(std::vector<CellAssignment> v) {
  std::sort(v.begin(), v.end(),
            [](const CellAssignment& a, const CellAssignment& b) {
              return a.cell < b.cell;
            });
  return v;
}

class RepairEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepairEquivalence, AllThreeDeploymentsAgree) {
  auto violations = RandomEqViolations(120, 60, 4, GetParam());
  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(4);

  BlackBoxOptions parallel_options;
  auto parallel = BlackBoxRepair(&ctx, violations, ec, parallel_options);

  BlackBoxOptions serial_options;
  serial_options.parallel = false;
  auto serial = BlackBoxRepair(&ctx, violations, ec, serial_options);

  auto distributed = DistributedEquivalenceClassRepair(&ctx, violations);

  // Equivalence classes do not depend on how components are dispatched,
  // and the majority vote is deterministic — all three must agree exactly.
  EXPECT_EQ(Sorted(parallel.applied), Sorted(serial.applied));
  EXPECT_EQ(Sorted(parallel.applied), Sorted(distributed));
}

TEST_P(RepairEquivalence, EcAssignmentsUnifyEveryClass) {
  auto violations = RandomEqViolations(150, 80, 5, GetParam() + 100);
  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(4);
  auto result = BlackBoxRepair(&ctx, violations, ec, BlackBoxOptions());

  // Apply assignments over the cell-value view; afterwards every eq fix
  // must be satisfied (each class collapsed to one value).
  std::map<CellRef, Value> values;
  for (const auto& vf : violations) {
    for (const auto& c : vf.violation.cells) values[c.ref] = c.value;
  }
  for (const auto& a : result.applied) values[a.cell] = a.value;
  for (const auto& vf : violations) {
    for (const auto& fix : vf.fixes) {
      ASSERT_TRUE(fix.right.is_cell);
      EXPECT_EQ(values.at(fix.left.ref), values.at(fix.right.cell.ref));
    }
  }
}

TEST_P(RepairEquivalence, KWaySplitNeverDivergesFromUnsplit) {
  // Splitting components must preserve repair *validity* (master/slave
  // undo guarantees no contradictions), though it may repair less per
  // pass. Check: applied assignments never assign two values to one cell,
  // and every applied assignment matches some class majority computed on
  // the full component.
  auto violations = RandomEqViolations(100, 40, 3, GetParam() + 200);
  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(4);
  BlackBoxOptions split_options;
  split_options.max_component_edges = 5;
  split_options.kway_parts = 3;
  auto split = BlackBoxRepair(&ctx, violations, ec, split_options);
  std::map<CellRef, Value> seen;
  for (const auto& a : split.applied) {
    auto [it, inserted] = seen.emplace(a.cell, a.value);
    EXPECT_TRUE(inserted) << "cell assigned twice: " << a.cell.ToString();
  }
}

/// CSR layout of a violation hypergraph: edge e's nodes are
/// nodes[offsets[e] .. offsets[e + 1]).
struct Layout {
  std::vector<size_t> offsets;
  std::vector<uint64_t> nodes;
  size_t num_nodes = 0;

  bool operator==(const Layout&) const = default;
};

/// The serial build the sharded interner replaced, kept as an oracle: one
/// table interning every mention in mention order, then each edge's ids
/// sorted and deduplicated.
Layout SerialLayout(const std::vector<ViolationWithFixes>& violations) {
  std::unordered_map<CellRef, uint64_t, CellRefHash> ids;
  Layout out;
  out.offsets.push_back(0);
  for (const ViolationWithFixes& vf : violations) {
    const size_t begin = out.nodes.size();
    for (const CellRef& c : Mentions(vf)) {
      out.nodes.push_back(ids.emplace(c, ids.size()).first->second);
    }
    std::sort(out.nodes.begin() + begin, out.nodes.end());
    out.nodes.erase(std::unique(out.nodes.begin() + begin, out.nodes.end()),
                    out.nodes.end());
    out.offsets.push_back(out.nodes.size());
  }
  out.num_nodes = ids.size();
  return out;
}

Layout LayoutOf(const ViolationHypergraph& graph) {
  Layout out;
  out.offsets.push_back(0);
  for (size_t e = 0; e < graph.num_edges(); ++e) {
    const auto nodes = graph.edge_nodes(e);
    out.nodes.insert(out.nodes.end(), nodes.begin(), nodes.end());
    out.offsets.push_back(out.nodes.size());
  }
  out.num_nodes = graph.num_nodes();
  return out;
}

TEST_P(RepairEquivalence, HypergraphLayoutMatchesMapOracle) {
  // Pins the order contract of the repair pass: node ids in first-mention
  // order, and component groups ordered by their first hyperedge with
  // ascending members, on both component paths. The sharded interner must
  // give the serial build's exact layout with one shard (80 hyperedges,
  // run on the calling thread) and with the most shards (40000
  // hyperedges, run as stages), on 1 and 4 workers. The oracle keys cells
  // by std::map and finds components by BFS over shared cells.
  for (const auto& [count, num_rows] :
       {std::pair<size_t, uint64_t>{80, 30}, {40000, 30000}}) {
    SCOPED_TRACE("hyperedges=" + std::to_string(count));
    auto violations = RandomHyperedges(count, GetParam() + 300, num_rows);
    std::map<CellRef, uint64_t> node_of;
    std::map<CellRef, std::vector<size_t>> edges_of;
    size_t mentions = 0;
    for (size_t e = 0; e < violations.size(); ++e) {
      for (const CellRef& c : Mentions(violations[e])) {
        node_of.emplace(c, node_of.size());
        edges_of[c].push_back(e);
        ++mentions;
      }
    }
    // One shard holds fewer than 16384 mentions; 131072 or more take the
    // most shards.
    if (count == 80) {
      ASSERT_LT(mentions, 16384u);
    } else {
      ASSERT_GE(mentions, 131072u);
    }
    std::vector<std::vector<size_t>> expected_groups;
    std::vector<bool> seen(violations.size(), false);
    for (size_t first = 0; first < violations.size(); ++first) {
      if (seen[first] || Mentions(violations[first]).empty()) continue;
      std::vector<size_t> group;
      std::vector<size_t> frontier = {first};
      seen[first] = true;
      while (!frontier.empty()) {
        const size_t e = frontier.back();
        frontier.pop_back();
        group.push_back(e);
        for (const CellRef& c : Mentions(violations[e])) {
          for (size_t next : edges_of.at(c)) {
            if (!seen[next]) {
              seen[next] = true;
              frontier.push_back(next);
            }
          }
        }
      }
      std::sort(group.begin(), group.end());
      expected_groups.push_back(std::move(group));
    }
    ASSERT_GT(expected_groups.size(), 1u);
    const Layout serial = SerialLayout(violations);
    ASSERT_EQ(serial.num_nodes, node_of.size());

    for (size_t workers : {1, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ExecutionContext ctx(workers);
      const size_t stages_before = ctx.metrics().StageReports().size();
      const ViolationBuffer buffer = ViolationBuffer::FromObjects(violations);
      ViolationHypergraph graph(buffer, &ctx);
      // One shard builds on the calling thread; many run as stages.
      EXPECT_EQ(ctx.metrics().StageReports().size() > stages_before,
                count > 80);
      ASSERT_EQ(graph.num_nodes(), node_of.size());
      ASSERT_EQ(graph.num_edges(), violations.size());
      for (size_t e = 0; e < violations.size(); ++e) {
        std::vector<uint64_t> expected_nodes;
        for (const CellRef& c : Mentions(violations[e])) {
          expected_nodes.push_back(node_of.at(c));
        }
        std::sort(expected_nodes.begin(), expected_nodes.end());
        expected_nodes.erase(
            std::unique(expected_nodes.begin(), expected_nodes.end()),
            expected_nodes.end());
        const auto nodes = graph.edge_nodes(e);
        ASSERT_EQ(std::vector<uint64_t>(nodes.begin(), nodes.end()),
                  expected_nodes)
            << "hyperedge " << e;
      }
      EXPECT_TRUE(LayoutOf(graph) == serial);
      EXPECT_EQ(graph.ConnectedComponentGroups(), expected_groups);
      // The BSP path's supersteps grow with the component diameter, so it
      // runs on the small graph only: the large one checks the interner.
      if (count == 80) {
        EXPECT_EQ(graph.ConnectedComponentGroups(&ctx), expected_groups);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairEquivalence,
                         ::testing::Values(1, 7, 42, 1234));

TEST(HypergraphRepairProperty, MakesProgressOnRandomNumericViolations) {
  Random rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    // Random "rate" violations: a < b demanded between random cells.
    std::map<RowId, Value> cell_values;
    for (RowId r = 0; r < 30; ++r) {
      cell_values[r] = Value(static_cast<int64_t>(rng.NextBounded(100)));
    }
    std::vector<ViolationWithFixes> violations;
    for (int i = 0; i < 25; ++i) {
      RowId a = static_cast<RowId>(rng.NextBounded(30));
      RowId b = static_cast<RowId>(rng.NextBounded(30));
      if (a == b) continue;
      if (!(cell_values[a] > cell_values[b])) continue;  // Violated: want <=.
      ViolationWithFixes vf;
      Cell ca = MakeCell(a, 0, cell_values[a]);
      Cell cb = MakeCell(b, 0, cell_values[b]);
      vf.violation.cells = {ca, cb};
      Fix fix;
      fix.left = ca;
      fix.op = FixOp::kLeq;
      fix.right = FixTerm::MakeCell(cb);
      vf.fixes = {fix};
      violations.push_back(std::move(vf));
    }
    if (violations.empty()) continue;
    HypergraphRepairAlgorithm hg;
    ExecutionContext ctx(2);
    auto result = BlackBoxRepair(&ctx, violations, hg, BlackBoxOptions());
    // Progress: the repair resolves at least one violation per component.
    std::map<CellRef, Value> values;
    for (const auto& vf : violations) {
      for (const auto& c : vf.violation.cells) values[c.ref] = c.value;
    }
    for (const auto& a : result.applied) values[a.cell] = a.value;
    size_t resolved = 0;
    for (const auto& vf : violations) {
      if (values.at(vf.fixes[0].left.ref) <=
          values.at(vf.fixes[0].right.cell.ref)) {
        ++resolved;
      }
    }
    EXPECT_GE(resolved, result.num_components)
        << "trial " << trial << ": " << resolved << " resolved across "
        << result.num_components << " components";
  }
}

}  // namespace
}  // namespace bigdansing
