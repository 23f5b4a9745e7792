// Repair lineage ledger tests: the disabled recorder is inert, entries
// export as strict JSON, and — the reconciliation the ledger exists for —
// a real Fig 9(a)-style FD cleanse produces per-rule and per-iteration
// applied-fix counts that exactly match the CleanReport, a JSONL file that
// re-parses line by line, and lineage-derived precision/recall identical
// to the table-diff computation.
#include "common/lineage.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/bigdansing.h"
#include "datagen/datagen.h"
#include "obs/bootstrap.h"
#include "repair/quality.h"
#include "rules/parser.h"
#include "strict_json_test_util.h"

namespace bigdansing {
namespace {

/// RAII guard: enables the recorder for one test and restores the
/// disabled-and-empty state afterwards so tests stay order-independent.
struct LineageOn {
  LineageOn() {
    LineageRecorder::Instance().Clear();
    LineageRecorder::Instance().set_enabled(true);
  }
  ~LineageOn() {
    LineageRecorder::Instance().set_enabled(false);
    LineageRecorder::Instance().Clear();
  }
};

TEST(LineageRecorder, DisabledRecorderIsInert) {
  LineageRecorder& lineage = LineageRecorder::Instance();
  lineage.set_enabled(false);
  lineage.Clear();
  LineageEntry entry;
  entry.rule = "phi1";
  lineage.RecordFix(entry);
  lineage.RecordUnresolved("phi1", 3, 1);
  EXPECT_EQ(lineage.EntryCount(), 0u);
  EXPECT_TRUE(lineage.Entries().empty());
  EXPECT_TRUE(lineage.SummaryByRule().empty());
  EXPECT_EQ(lineage.ToJsonl(), "");
}

TEST(LineageEntry, ToJsonIsStrictWithTypedValues) {
  LineageEntry fix;
  fix.applied = true;
  fix.row_id = 42;
  fix.column = 3;
  fix.attribute = "ci\"ty";
  fix.old_value = Value("Old\nTown");
  fix.new_value = Value(int64_t{7});
  fix.rule = "phi1";
  fix.violation_id = 9;
  fix.iteration = 2;
  fix.strategy = "equivalence-class";
  fix.component = 5;

  JsonValue doc;
  StrictJsonParser parser(fix.ToJson());
  ASSERT_TRUE(parser.Parse(&doc)) << parser.error();
  EXPECT_EQ(doc.Find("kind")->str, "fix");
  EXPECT_EQ(doc.Find("rule")->str, "phi1");
  EXPECT_EQ(doc.Find("violation_id")->number, 9.0);
  EXPECT_EQ(doc.Find("iteration")->number, 2.0);
  EXPECT_EQ(doc.Find("row_id")->number, 42.0);
  EXPECT_EQ(doc.Find("column")->number, 3.0);
  EXPECT_EQ(doc.Find("attribute")->str, "ci\"ty");
  EXPECT_EQ(doc.Find("old_value")->str, "Old\nTown");
  // Typed values survive: the int fix value must stay a JSON number.
  EXPECT_EQ(doc.Find("new_value")->kind, JsonValue::kNumber);
  EXPECT_EQ(doc.Find("new_value")->number, 7.0);
  EXPECT_EQ(doc.Find("strategy")->str, "equivalence-class");
  EXPECT_EQ(doc.Find("component")->number, 5.0);

  LineageEntry unresolved;
  unresolved.applied = false;
  unresolved.rule = "phi2";
  unresolved.violation_id = 1;
  unresolved.iteration = 3;
  ASSERT_TRUE(ParsesStrictly(unresolved.ToJson(), &doc));
  EXPECT_EQ(doc.Find("kind")->str, "unresolved");
  // Unresolved records carry no cell fields.
  EXPECT_EQ(doc.Find("row_id"), nullptr);
  EXPECT_EQ(doc.Find("new_value"), nullptr);
}

TEST(LineageIntegration, Fig9aFdCleanseReconcilesLedgerWithReport) {
  LineageOn on;
  LineageRecorder& lineage = LineageRecorder::Instance();

  auto data = GenerateTaxA(1500, 0.1, /*seed=*/7);
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report =
      system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  size_t report_fixes = 0;
  for (const auto& iter : report->iterations) report_fixes += iter.applied_fixes;
  ASSERT_GT(report_fixes, 0u) << "the 10% error rate must force repairs";

  // Per-rule rollup: every applied fix in the report is a ledger entry for
  // phi1 and nothing else.
  auto by_rule = lineage.SummaryByRule();
  ASSERT_EQ(by_rule.count("phi1"), 1u);
  EXPECT_EQ(by_rule["phi1"].applied_fixes, report_fixes);
  EXPECT_EQ(by_rule.size(), 1u);

  // Per-iteration rollup matches the report's per-iteration fix counts
  // (iterations are 1-based in the ledger; iterations with no entries —
  // e.g. the converged final pass — simply have no key).
  auto by_iteration = lineage.SummaryByIteration();
  auto applied_in = [&](size_t iteration) -> uint64_t {
    auto it = by_iteration.find(iteration);
    return it == by_iteration.end() ? 0 : it->second.applied_fixes;
  };
  for (size_t i = 0; i < report->iterations.size(); ++i) {
    EXPECT_EQ(applied_in(i + 1), report->iterations[i].applied_fixes)
        << "iteration " << i + 1;
  }

  // JSONL round-trip: every line is strict JSON and the re-parsed applied
  // counts agree with the in-memory rollup.
  const std::string path = testing::TempDir() + "bd_lineage_test.jsonl";
  ASSERT_TRUE(WriteOutput(path, lineage.ToJsonl()));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::map<std::string, uint64_t> parsed_fixes;
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    JsonValue doc;
    StrictJsonParser parser(line);
    ASSERT_TRUE(parser.Parse(&doc)) << parser.error() << " in: " << line;
    ASSERT_NE(doc.Find("kind"), nullptr);
    ASSERT_NE(doc.Find("rule"), nullptr);
    ASSERT_NE(doc.Find("iteration"), nullptr);
    if (doc.Find("kind")->str == "fix") {
      ++parsed_fixes[doc.Find("rule")->str];
      ASSERT_NE(doc.Find("row_id"), nullptr);
      ASSERT_NE(doc.Find("column"), nullptr);
      ASSERT_NE(doc.Find("new_value"), nullptr);
      EXPECT_EQ(doc.Find("strategy")->str, "equivalence-class");
    }
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(lines, lineage.EntryCount());
  EXPECT_EQ(parsed_fixes["phi1"], report_fixes);

  // Quality computed from the ledger equals quality computed by diffing
  // the repaired table — the ledger is a faithful record of the repair.
  auto from_lineage =
      EvaluateRepairFromLineage(lineage.Entries(), data.dirty, data.clean);
  auto from_tables = EvaluateRepair(data.dirty, working, data.clean);
  ASSERT_TRUE(from_lineage.ok());
  ASSERT_TRUE(from_tables.ok());
  EXPECT_EQ(from_lineage->errors, from_tables->errors);
  EXPECT_EQ(from_lineage->updates, from_tables->updates);
  EXPECT_EQ(from_lineage->correct_updates, from_tables->correct_updates);
  EXPECT_DOUBLE_EQ(from_lineage->precision, from_tables->precision);
  EXPECT_DOUBLE_EQ(from_lineage->recall, from_tables->recall);
}

TEST(LineageIntegration, DistributedRepairRecordsItsStrategy) {
  LineageOn on;
  auto data = GenerateTaxA(800, 0.1, /*seed=*/13);
  ExecutionContext ctx(4);
  CleanOptions options;
  options.repair_mode = RepairMode::kDistributedEquivalenceClass;
  BigDansing system(&ctx, options);
  Table working = data.dirty;
  auto report =
      system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  size_t fixes = 0;
  for (const auto& e : LineageRecorder::Instance().Entries()) {
    if (!e.applied) continue;
    ++fixes;
    EXPECT_EQ(e.strategy, "distributed-equivalence-class");
    EXPECT_EQ(e.rule, "phi1");
  }
  size_t report_fixes = 0;
  for (const auto& iter : report->iterations) report_fixes += iter.applied_fixes;
  EXPECT_EQ(fixes, report_fixes);
}

}  // namespace
}  // namespace bigdansing
