#include <gtest/gtest.h>

#include <algorithm>

#include "common/lineage.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "data/csv.h"
#include "repair/blackbox.h"
#include "repair/connected_components.h"
#include "repair/equivalence_class.h"
#include "repair/hypergraph.h"
#include "repair/hypergraph_repair.h"
#include "repair/partitioner.h"
#include "repair/quality.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

Cell MakeTestCell(RowId row, size_t col, Value v) {
  Cell c;
  c.ref = CellRef{row, col};
  c.attribute = "a" + std::to_string(col);
  c.value = std::move(v);
  return c;
}

ViolationWithFixes EqViolation(RowId r1, RowId r2, size_t col, Value v1,
                               Value v2) {
  ViolationWithFixes vf;
  vf.violation.rule_name = "test";
  Cell c1 = MakeTestCell(r1, col, std::move(v1));
  Cell c2 = MakeTestCell(r2, col, std::move(v2));
  vf.violation.cells = {c1, c2};
  Fix fix;
  fix.left = c1;
  fix.op = FixOp::kEq;
  fix.right = FixTerm::MakeCell(c2);
  vf.fixes = {fix};
  return vf;
}

TEST(ConnectedComponents, UnionFindBasics) {
  auto labels = UnionFindConnectedComponents(5, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(labels.at(0), labels.at(1));
  EXPECT_EQ(labels.at(1), labels.at(2));
  EXPECT_EQ(labels.at(3), labels.at(4));
  EXPECT_NE(labels.at(0), labels.at(3));
  EXPECT_EQ(labels.at(0), 0u);
  EXPECT_EQ(labels.at(3), 3u);
}

TEST(ConnectedComponents, BspMatchesUnionFind) {
  // A chain (worst-case diameter), a star, and isolated nodes.
  const size_t nodes = 30;
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t i = 9; i > 0; --i) edges.emplace_back(i, i - 1);  // Chain 0-9.
  for (uint64_t i = 11; i < 20; ++i) edges.emplace_back(10, i);   // Star.
  // 20..29 isolated.
  ExecutionContext ctx(4);
  auto bsp = BspConnectedComponents(&ctx, nodes, edges);
  auto uf = UnionFindConnectedComponents(nodes, edges);
  ASSERT_EQ(bsp.size(), uf.size());
  for (uint64_t node = 0; node < nodes; ++node) {
    EXPECT_EQ(bsp.at(node), uf.at(node)) << "node " << node;
  }
}

TEST(Hypergraph, GroupsEdgesByComponent) {
  std::vector<ViolationWithFixes> violations;
  violations.push_back(EqViolation(0, 1, 2, Value("a"), Value("b")));
  violations.push_back(EqViolation(1, 2, 2, Value("b"), Value("a")));
  violations.push_back(EqViolation(5, 6, 2, Value("x"), Value("y")));
  ExecutionContext ctx(2);
  const ViolationBuffer buffer = ViolationBuffer::FromObjects(violations);
  ViolationHypergraph graph(buffer, &ctx);
  EXPECT_EQ(graph.num_edges(), 3u);
  EXPECT_EQ(graph.num_nodes(), 5u);
  auto groups = graph.ConnectedComponentGroups();
  ASSERT_EQ(groups.size(), 2u);
  // First two violations share cell (1,2).
  EXPECT_EQ(groups[0].size(), 2u);
  EXPECT_EQ(groups[1].size(), 1u);
}

TEST(EquivalenceClass, MajorityWins) {
  // Cells (0,2)="LA", (1,2)="LA", (2,2)="SF" all equated.
  std::vector<ViolationWithFixes> violations;
  violations.push_back(EqViolation(0, 2, 2, Value("LA"), Value("SF")));
  violations.push_back(EqViolation(1, 2, 2, Value("LA"), Value("SF")));
  std::vector<const ViolationWithFixes*> edges;
  for (const auto& v : violations) edges.push_back(&v);
  EquivalenceClassAlgorithm ec;
  auto assignments = ec.RepairComponent(edges);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].cell, (CellRef{2, 2}));
  EXPECT_EQ(assignments[0].value, Value("LA"));
}

TEST(EquivalenceClass, ConstantFixesVote) {
  std::vector<ViolationWithFixes> violations;
  ViolationWithFixes vf;
  Cell c = MakeTestCell(0, 1, Value("bad"));
  vf.violation.cells = {c};
  Fix f1;
  f1.left = c;
  f1.op = FixOp::kEq;
  f1.right = FixTerm::MakeConstant(Value("good"));
  Fix f2 = f1;  // Same constant proposed twice: must count once.
  vf.fixes = {f1, f2};
  violations.push_back(vf);
  // A second violation adds another vote for "good" from a different fix
  // on the same component via a linked cell.
  ViolationWithFixes vf2;
  Cell c2 = MakeTestCell(1, 1, Value("good"));
  vf2.violation.cells = {c, c2};
  Fix f3;
  f3.left = c;
  f3.op = FixOp::kEq;
  f3.right = FixTerm::MakeCell(c2);
  vf2.fixes = {f3};
  violations.push_back(vf2);

  std::vector<const ViolationWithFixes*> edges;
  for (const auto& v : violations) edges.push_back(&v);
  EquivalenceClassAlgorithm ec;
  auto assignments = ec.RepairComponent(edges);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].cell, (CellRef{0, 1}));
  EXPECT_EQ(assignments[0].value, Value("good"));
}

TEST(EquivalenceClass, ConstantVotesAreKeyedByExactCellAndValue) {
  // Value(int).Hash() is the invertible splitmix64 finalizer, so the
  // (cell 0, 7) and (cell 1, c) votes below have equal 64-bit XORs of
  // cell-id and value hashes. Each is its own vote: c, proposed for two
  // cells, must win over the one-vote values of the class.
  const Value c(static_cast<int64_t>(-6587486439146025820LL));
  Cell t0 = MakeTestCell(0, 0, Value(static_cast<int64_t>(
                                   -9000000000000000000LL)));
  Cell t1 = MakeTestCell(1, 0, Value(static_cast<int64_t>(100)));
  Cell t2 = MakeTestCell(2, 0, Value(static_cast<int64_t>(200)));
  auto eq_cell = [](const Cell& left, const Cell& right) {
    Fix fix;
    fix.left = left;
    fix.op = FixOp::kEq;
    fix.right = FixTerm::MakeCell(right);
    return fix;
  };
  auto eq_constant = [](const Cell& left, const Value& constant) {
    Fix fix;
    fix.left = left;
    fix.op = FixOp::kEq;
    fix.right = FixTerm::MakeConstant(constant);
    return fix;
  };
  std::vector<ViolationWithFixes> violations(3);
  violations[0].violation.cells = {t0, t1};
  violations[0].fixes = {eq_cell(t0, t1),
                         eq_constant(t0, Value(static_cast<int64_t>(7)))};
  violations[1].violation.cells = {t1};
  violations[1].fixes = {eq_constant(t1, c)};
  violations[2].violation.cells = {t2, t1};
  violations[2].fixes = {eq_cell(t2, t1), eq_constant(t2, c)};

  const std::vector<CellAssignment> expected = {
      {t0.ref, c}, {t1.ref, c}, {t2.ref, c}};
  std::vector<const ViolationWithFixes*> edges;
  for (const auto& v : violations) edges.push_back(&v);
  EXPECT_EQ(EquivalenceClassAlgorithm().RepairComponent(edges), expected);
  ExecutionContext ctx(2);
  EXPECT_EQ(DistributedEquivalenceClassRepair(&ctx, violations), expected);
}

TEST(EquivalenceClass, DistributedMatchesCentralized) {
  // Several components with clear majorities.
  std::vector<ViolationWithFixes> violations;
  violations.push_back(EqViolation(0, 1, 2, Value("NY"), Value("XX")));
  violations.push_back(EqViolation(0, 2, 2, Value("NY"), Value("NY")));
  violations.push_back(EqViolation(10, 11, 3, Value("CA"), Value("YY")));
  violations.push_back(EqViolation(10, 12, 3, Value("CA"), Value("CA")));

  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(3);
  BlackBoxOptions options;
  auto parallel = BlackBoxRepair(&ctx, violations, ec, options);
  auto distributed = DistributedEquivalenceClassRepair(&ctx, violations);

  auto sort_assignments = [](std::vector<CellAssignment> v) {
    std::sort(v.begin(), v.end(),
              [](const CellAssignment& a, const CellAssignment& b) {
                return a.cell < b.cell;
              });
    return v;
  };
  EXPECT_EQ(sort_assignments(parallel.applied),
            sort_assignments(distributed));
  EXPECT_EQ(parallel.num_components, 2u);
}

TEST(HypergraphRepair, ResolvesInequalityViolation) {
  // Violation: t0.rate(=20) > t1.rate(=10) while t0.salary < t1.salary.
  // Fixes: t0.rate <= t1.rate OR t0.salary >= t1.salary.
  ViolationWithFixes vf;
  Cell rate0 = MakeTestCell(0, 5, Value(static_cast<int64_t>(20)));
  Cell rate1 = MakeTestCell(1, 5, Value(static_cast<int64_t>(10)));
  Cell sal0 = MakeTestCell(0, 4, Value(static_cast<int64_t>(100)));
  Cell sal1 = MakeTestCell(1, 4, Value(static_cast<int64_t>(200)));
  vf.violation.cells = {rate0, rate1, sal0, sal1};
  Fix f1;
  f1.left = rate0;
  f1.op = FixOp::kLeq;
  f1.right = FixTerm::MakeCell(rate1);
  Fix f2;
  f2.left = sal0;
  f2.op = FixOp::kGeq;
  f2.right = FixTerm::MakeCell(sal1);
  vf.fixes = {f1, f2};

  HypergraphRepairAlgorithm hg;
  auto assignments = hg.RepairComponent({&vf});
  ASSERT_FALSE(assignments.empty());
  // Verify the assignment actually resolves the violation.
  std::unordered_map<CellRef, Value, CellRefHash> values = {
      {rate0.ref, rate0.value},
      {rate1.ref, rate1.value},
      {sal0.ref, sal0.value},
      {sal1.ref, sal1.value}};
  for (const auto& a : assignments) values[a.cell] = a.value;
  bool resolved = values[rate0.ref] <= values[rate1.ref] ||
                  values[sal0.ref] >= values[sal1.ref];
  EXPECT_TRUE(resolved);
}

TEST(Partitioner, BalancedAndComplete) {
  std::vector<std::vector<uint64_t>> edges;
  for (uint64_t i = 0; i < 100; ++i) {
    edges.push_back({i, i + 1, i + 2});
  }
  auto assignment = GreedyKWayPartition(edges, 4);
  ASSERT_EQ(assignment.size(), edges.size());
  std::vector<size_t> load(4, 0);
  for (size_t p : assignment) {
    ASSERT_LT(p, 4u);
    ++load[p];
  }
  for (size_t l : load) {
    EXPECT_GT(l, 0u);
    EXPECT_LT(l, 60u);  // No part hogs everything.
  }
  EXPECT_GT(CountCutNodes(edges, assignment), 0u);  // A chain must be cut.
  // Connectivity heuristic keeps the cut modest: at most one boundary per
  // part transition region (2 shared nodes each).
  EXPECT_LT(CountCutNodes(edges, assignment), 40u);
}

TEST(BlackBox, SplitComponentProtocolUndoesConflicts) {
  // One big chain component forced to split: cells 0..N linked by eq fixes.
  std::vector<ViolationWithFixes> violations;
  for (RowId i = 0; i < 40; ++i) {
    violations.push_back(
        EqViolation(i, i + 1, 0, Value("v" + std::to_string(i % 3)),
                    Value("v" + std::to_string((i + 1) % 3))));
  }
  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(4);
  BlackBoxOptions options;
  options.max_component_edges = 10;  // Force the k-way split.
  options.kway_parts = 4;
  auto result = BlackBoxRepair(&ctx, violations, ec, options);
  EXPECT_EQ(result.num_components, 1u);
  EXPECT_EQ(result.num_split_components, 1u);
  EXPECT_FALSE(result.applied.empty());
  // No applied assignment may target the same cell twice (master immunity).
  std::set<std::pair<RowId, size_t>> cells;
  for (const auto& a : result.applied) {
    EXPECT_TRUE(cells.insert({a.cell.row_id, a.cell.column}).second)
        << "cell repaired twice: " << a.cell.ToString();
  }
}

TEST(BlackBox, BspAndUnionFindComponentsAgree) {
  // The two component paths must agree on the order of the assignments and
  // of their provenance, not only on the set: the fix-point loop applies
  // and records them in this order, so it fixes the lineage ledger.
  std::vector<ViolationWithFixes> violations;
  violations.push_back(EqViolation(0, 1, 2, Value("a"), Value("b")));
  violations.push_back(EqViolation(7, 6, 2, Value("e"), Value("f")));
  violations.push_back(EqViolation(2, 3, 2, Value("c"), Value("d")));
  violations.push_back(EqViolation(3, 4, 2, Value("d"), Value("c")));
  violations.push_back(EqViolation(5, 7, 2, Value("f"), Value("e")));
  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(2);
  BlackBoxOptions uf_options;
  BlackBoxOptions bsp_options;
  bsp_options.use_bsp_connected_components = true;
  LineageRecorder& lineage = LineageRecorder::Instance();
  lineage.Clear();
  lineage.set_enabled(true);
  auto a = BlackBoxRepair(&ctx, violations, ec, uf_options);
  auto b = BlackBoxRepair(&ctx, violations, ec, bsp_options);
  lineage.set_enabled(false);
  lineage.Clear();
  EXPECT_EQ(a.num_components, 3u);
  EXPECT_EQ(a.num_components, b.num_components);
  EXPECT_EQ(a.applied, b.applied);
  ASSERT_EQ(a.provenance.size(), a.applied.size());
  ASSERT_EQ(b.provenance.size(), b.applied.size());
  for (size_t i = 0; i < a.provenance.size(); ++i) {
    EXPECT_EQ(a.provenance[i].rule, b.provenance[i].rule) << i;
    EXPECT_EQ(a.provenance[i].violation_id, b.provenance[i].violation_id)
        << i;
    EXPECT_EQ(a.provenance[i].component, b.provenance[i].component) << i;
    EXPECT_EQ(a.provenance[i].strategy, b.provenance[i].strategy) << i;
  }
  // Components in order of their first violation: rows {0,1}, {7,6,5} and
  // {2,3,4}; each repairs its minority cell.
  ASSERT_EQ(a.applied.size(), 3u);
  EXPECT_EQ(a.applied[0].cell, (CellRef{1, 2}));
  EXPECT_EQ(a.applied[1].cell, (CellRef{7, 2}));
  EXPECT_EQ(a.applied[2].cell, (CellRef{3, 2}));
  EXPECT_EQ(a.provenance[1].component, 1u);
  EXPECT_EQ(a.provenance[2].component, 2u);
}

TEST(CleanEndToEnd, FdRepairReachesCleanInstance) {
  // 90210 block: LA, LA, LA, SF — majority repairs SF to LA.
  const char* csv =
      "zipcode,city\n"
      "90210,LA\n"
      "90210,LA\n"
      "90210,LA\n"
      "90210,SF\n"
      "10011,NY\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  ASSERT_TRUE(table.ok());
  auto rule = ParseRule("fd: FD: zipcode -> city");
  ASSERT_TRUE(rule.ok());
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  Table working = *table;
  auto report = system.Clean(&working, {*rule});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(working.row(3).value(1), Value("LA"));
  // Final state has no violations.
  RuleEngine engine(&ctx);
  auto final_check = engine.Detect(working, *rule);
  ASSERT_TRUE(final_check.ok());
  EXPECT_TRUE(final_check->violations.empty());
}

TEST(CleanEndToEnd, DistributedEcModeMatchesBlackBox) {
  const char* csv =
      "zipcode,city\n"
      "90210,LA\n"
      "90210,LA\n"
      "90210,SF\n"
      "60601,CH\n"
      "60601,CH\n"
      "60601,XX\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  auto rule = *ParseRule("fd: FD: zipcode -> city");

  Table a = *table;
  CleanOptions opt_a;
  BigDansing(&ctx, opt_a).Clean(&a, {rule});

  Table b = *table;
  CleanOptions opt_b;
  opt_b.repair_mode = RepairMode::kDistributedEquivalenceClass;
  BigDansing(&ctx, opt_b).Clean(&b, {rule});

  EXPECT_EQ(a, b);
  EXPECT_EQ(a.row(2).value(1), Value("LA"));
  EXPECT_EQ(a.row(5).value(1), Value("CH"));
}

TEST(Quality, PrecisionRecallComputation) {
  auto dirty = ReadCsvString("a,b\n1,x\n2,y\n3,z\n", CsvOptions{});
  auto truth = ReadCsvString("a,b\n1,X\n2,Y\n3,z\n", CsvOptions{});
  // Repair fixes row 0 correctly, row 1 wrongly, and touches row 2
  // needlessly.
  auto repaired = ReadCsvString("a,b\n1,X\n2,W\n3,q\n", CsvOptions{});
  ASSERT_TRUE(dirty.ok() && truth.ok() && repaired.ok());
  auto q = EvaluateRepair(*dirty, *repaired, *truth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->errors, 2u);
  EXPECT_EQ(q->updates, 3u);
  EXPECT_EQ(q->correct_updates, 1u);
  EXPECT_NEAR(q->precision, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(q->recall, 0.5, 1e-9);
}

}  // namespace
}  // namespace bigdansing
