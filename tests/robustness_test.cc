// Failure-injection and edge-case tests: malformed UDF output, fixes
// pointing at missing rows, degenerate tables, and adversarial repair
// inputs must degrade gracefully (skipped work, Status errors), never
// crash or corrupt unrelated data.
#include <gtest/gtest.h>

#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "data/csv.h"
#include "repair/blackbox.h"
#include "repair/equivalence_class.h"
#include "repair/hypergraph.h"
#include "repair/hypergraph_repair.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"

namespace bigdansing {
namespace {

Cell MakeTestCell(RowId row, size_t col, Value v) {
  Cell c;
  c.ref = CellRef{row, col};
  c.attribute = "a" + std::to_string(col);
  c.value = std::move(v);
  return c;
}

TEST(Robustness, ApplyAssignmentsIgnoresMissingRowsAndColumns) {
  auto table = ReadCsvString("a,b\n1,x\n2,y\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  std::vector<CellAssignment> assignments = {
      {CellRef{99, 0}, Value("ghost")},   // No such row.
      {CellRef{0, 17}, Value("ghost")},   // No such column.
      {CellRef{1, 1}, Value("z")},        // Valid.
  };
  size_t changed = ApplyAssignments(&*table, assignments, nullptr);
  EXPECT_EQ(changed, 1u);
  EXPECT_EQ(table->row(1).value(1), Value("z"));
  EXPECT_EQ(table->row(0).value(1), Value("x"));  // Untouched.
}

TEST(Robustness, ApplyAssignmentsRespectsFrozenCells) {
  auto table = ReadCsvString("a\nx\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  std::unordered_set<CellRef, CellRefHash> frozen = {CellRef{0, 0}};
  std::vector<CellAssignment> assignments = {{CellRef{0, 0}, Value("y")}};
  EXPECT_EQ(ApplyAssignments(&*table, assignments, &frozen), 0u);
  EXPECT_EQ(table->row(0).value(0), Value("x"));
}

TEST(Robustness, ViolationWithoutFixesIsCarriedNotRepaired) {
  // A UDF rule that reports violations but proposes no fixes: the cleanse
  // loop must terminate ("violations with no possible fixes") without
  // changing the data.
  auto table = ReadCsvString("a\n1\n2\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  auto rule = std::make_shared<UdfRule>("no-fixes");
  rule->set_symmetric(true).set_detect(
      [](const Schema& schema, const Row& a, const Row& b,
         std::vector<Violation>* out) {
        Violation v;
        v.rule_name = "no-fixes";
        v.cells.push_back(UdfRule::MakeUdfCell(a, 0, schema));
        out->push_back(std::move(v));
      });
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  Table working = *table;
  auto report = system.Clean(&working, {rule});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(working, *table);
  EXPECT_LE(report->num_iterations(), 2u);
}

TEST(Robustness, EmptyViolationListFromRepairAlgorithms) {
  EquivalenceClassAlgorithm ec;
  HypergraphRepairAlgorithm hg;
  EXPECT_TRUE(ec.RepairComponent({}).empty());
  EXPECT_TRUE(hg.RepairComponent({}).empty());
  ExecutionContext ctx(2);
  const std::vector<ViolationWithFixes> none;
  auto result = BlackBoxRepair(&ctx, none, ec, BlackBoxOptions());
  EXPECT_TRUE(result.applied.empty());
  EXPECT_EQ(result.num_components, 0u);
  EXPECT_TRUE(DistributedEquivalenceClassRepair(&ctx, none).empty());
}

TEST(Robustness, HypergraphRepairWithContradictoryFixes) {
  // x = "a" and x = "b" simultaneously: the algorithm must terminate and
  // pick one (majority/deterministic), not loop.
  ViolationWithFixes vf;
  Cell x = MakeTestCell(0, 0, Value("dirty"));
  vf.violation.cells = {x};
  Fix f1;
  f1.left = x;
  f1.op = FixOp::kEq;
  f1.right = FixTerm::MakeConstant(Value("a"));
  Fix f2 = f1;
  f2.right = FixTerm::MakeConstant(Value("b"));
  vf.fixes = {f1, f2};
  HypergraphRepairAlgorithm hg;
  auto assignments = hg.RepairComponent({&vf});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_TRUE(assignments[0].value == Value("a") ||
              assignments[0].value == Value("b"));
}

TEST(Robustness, HypergraphRepairInfeasibleBoundsTerminates) {
  // x > 10 and x < 5 cannot both hold; repair must not loop forever.
  ViolationWithFixes vf;
  Cell x = MakeTestCell(0, 0, Value(static_cast<int64_t>(7)));
  vf.violation.cells = {x};
  Fix f1;
  f1.left = x;
  f1.op = FixOp::kGt;
  f1.right = FixTerm::MakeConstant(Value(static_cast<int64_t>(10)));
  Fix f2;
  f2.left = x;
  f2.op = FixOp::kLt;
  f2.right = FixTerm::MakeConstant(Value(static_cast<int64_t>(5)));
  ViolationWithFixes both;
  both.violation.cells = {x};
  both.fixes = {f1, f2};
  HypergraphRepairAlgorithm hg;
  auto assignments = hg.RepairComponent({&both});
  // Either fix alone satisfies the violation (fixes are alternatives), so
  // some assignment resolving it must come back.
  ASSERT_EQ(assignments.size(), 1u);
  double v = assignments[0].value.AsNumber();
  EXPECT_TRUE(v > 10 || v < 5) << v;
}

TEST(Robustness, SingleRowTableHasNoPairViolations) {
  auto table = ReadCsvString("zipcode,city\n90210,LA\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(*table, *ParseRule("f: FD: zipcode -> city"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->violations.empty());
  EXPECT_EQ(result->detect_calls, 0u);
}

TEST(Robustness, AllNullBlockingColumnDetectsNothing) {
  auto table = ReadCsvString("zipcode,city\n,LA\n,SF\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(*table, *ParseRule("f: FD: zipcode -> city"));
  ASSERT_TRUE(result.ok());
  // Null blocking keys exclude the rows from every block (an FD cannot be
  // witnessed through null LHS values).
  EXPECT_TRUE(result->violations.empty());
}

TEST(Robustness, RuleReferencingMissingAttributeFailsCleanly) {
  auto table = ReadCsvString("a,b\n1,2\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(*table, *ParseRule("f: FD: nope -> b"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // Multi-rule: one bad rule fails the batch before any work.
  DetectRequest request;
  request.table = &*table;
  request.rules = {*ParseRule("g: FD: a -> b"), *ParseRule("f: FD: nope -> b")};
  auto batch = engine.Detect(request);
  EXPECT_FALSE(batch.ok());
}

TEST(Robustness, UdfDetectProducingMalformedViolationIsTolerated) {
  // A violation with zero cells: the hypergraph drops the empty hyperedge
  // and repair proceeds on the rest.
  ViolationWithFixes empty;
  empty.violation.rule_name = "weird";
  ViolationWithFixes good;
  Cell a = MakeTestCell(0, 0, Value("x"));
  Cell b = MakeTestCell(1, 0, Value("y"));
  good.violation.cells = {a, b};
  Fix fix;
  fix.left = a;
  fix.op = FixOp::kEq;
  fix.right = FixTerm::MakeCell(b);
  good.fixes = {fix};
  std::vector<ViolationWithFixes> violations = {empty, good};
  ExecutionContext ctx(2);
  const ViolationBuffer buffer = ViolationBuffer::FromObjects(violations);
  ViolationHypergraph graph(buffer, &ctx);
  EXPECT_EQ(graph.num_edges(), 2u);
  auto groups = graph.ConnectedComponentGroups();
  // The empty edge belongs to no component; the good one forms one.
  size_t edges_in_groups = 0;
  for (const auto& g : groups) edges_in_groups += g.size();
  EXPECT_EQ(edges_in_groups, 1u);
  EquivalenceClassAlgorithm ec;
  auto result = BlackBoxRepair(&ctx, violations, ec, BlackBoxOptions());
  EXPECT_EQ(result.applied.size(), 1u);
}

TEST(Robustness, DistributedEcIgnoresNonEqualityFixes) {
  // Only inequality fixes: the distributed EC has nothing to do.
  ViolationWithFixes vf;
  Cell a = MakeTestCell(0, 0, Value(static_cast<int64_t>(1)));
  Cell b = MakeTestCell(1, 0, Value(static_cast<int64_t>(2)));
  vf.violation.cells = {a, b};
  Fix fix;
  fix.left = a;
  fix.op = FixOp::kLt;
  fix.right = FixTerm::MakeCell(b);
  vf.fixes = {fix};
  ExecutionContext ctx(2);
  EXPECT_TRUE(DistributedEquivalenceClassRepair(&ctx, {vf}).empty());
}

TEST(Robustness, CleanWithNoRulesConvergesImmediately) {
  auto table = ReadCsvString("a\n1\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  Table working = *table;
  auto report = system.Clean(&working, {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(working, *table);
}

}  // namespace
}  // namespace bigdansing
