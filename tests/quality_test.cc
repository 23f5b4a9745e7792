// Data-quality plane tests: the disabled recorder is inert; a real FD
// cleanse reconciles bit-exactly with the lineage ledger and the
// CleanReport (violations, fixes, unresolved, per-rule totals, per-
// iteration curve), and a stream session's windows reconcile with the
// ledger and the session stats; Flush's verification keeps the cumulative
// curve counts; provenance flows with the ledger off (quality-only runs);
// the drift report diffs two snapshots; and the JSONL export's records
// are byte-identical to the /quality snapshot's embedded runs.
#include "obs/quality.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/lineage.h"
#include "core/bigdansing.h"
#include "core/stream_session.h"
#include "data/csv.h"
#include "data/profile.h"
#include "datagen/datagen.h"
#include "obs/bootstrap.h"
#include "rules/parser.h"
#include "strict_json_test_util.h"

namespace bigdansing {
namespace {

/// RAII guard: enables the quality recorder for one test and restores the
/// disabled-and-empty state afterwards so tests stay order-independent.
struct QualityOn {
  QualityOn() {
    QualityRecorder::Instance().Clear();
    QualityRecorder::Instance().set_enabled(true);
  }
  ~QualityOn() {
    QualityRecorder::Instance().set_enabled(false);
    QualityRecorder::Instance().Clear();
  }
};

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

TEST(QualityRecorder, DisabledRecorderIsInert) {
  QualityRecorder& quality = QualityRecorder::Instance();
  quality.set_enabled(false);
  quality.Clear();
  EXPECT_EQ(quality.BeginRun(1, 100), 0u);
  QualityIterationSample sample;
  sample.iteration = 1;
  sample.fixes["phi1"]["city"] = 3;
  quality.RecordIteration(7, sample);
  EXPECT_EQ(quality.RunsBegun(), 0u);
  EXPECT_TRUE(quality.Runs().empty());
  EXPECT_EQ(quality.ToJsonl(), "");
  EXPECT_FALSE(ProvenanceTrackingEnabled() &&
               !LineageRecorder::Instance().enabled());
}

TEST(QualityRecorder, FoldsIterationsIntoRunRecord) {
  QualityOn on;
  QualityRecorder& quality = QualityRecorder::Instance();
  const uint64_t run = quality.BeginRun(2, 50);
  ASSERT_NE(run, 0u);
  EXPECT_TRUE(ProvenanceTrackingEnabled());

  QualityIterationSample first;
  first.iteration = 1;
  first.violations["phi1"]["city"] = 4;
  first.violations["phi2"]["state"] = 2;
  first.fixes["phi1"]["city"] = 3;
  first.unresolved["phi2"]["state"] = 2;
  quality.RecordIteration(run, first);

  QualityIterationSample second;
  second.iteration = 2;
  second.violations["phi1"]["city"] = 1;
  second.fixes["phi1"]["city"] = 1;
  second.frozen_cells = 1;
  second.oscillating_cells = 1;
  quality.RecordIteration(run, second);
  quality.EndRun(run, /*converged=*/true);

  QualityRunRecord rec;
  ASSERT_TRUE(quality.LatestRun(&rec));
  EXPECT_EQ(rec.run_id, run);
  EXPECT_FALSE(rec.in_progress);
  EXPECT_TRUE(rec.converged);
  EXPECT_TRUE(rec.oscillation);
  EXPECT_EQ(rec.TotalViolations(), 7u);
  EXPECT_EQ(rec.TotalFixes(), 4u);
  EXPECT_EQ(rec.TotalUnresolved(), 2u);
  EXPECT_EQ(rec.RuleTotals("phi1").violations, 5u);
  EXPECT_EQ(rec.RuleTotals("phi1").fixes, 4u);
  EXPECT_EQ(rec.RuleTotals("phi2").unresolved, 2u);
  ASSERT_EQ(rec.curve.size(), 2u);
  EXPECT_EQ(rec.curve[0].violations, 6u);
  EXPECT_EQ(rec.curve[0].cells_changed, 3u);
  EXPECT_EQ(rec.curve[1].violations, 1u);
  EXPECT_EQ(rec.curve[1].oscillating_cells, 1u);

  JsonValue doc;
  ASSERT_TRUE(ParsesStrictly(rec.ToJson(), &doc));
  EXPECT_EQ(doc.Find("run_id")->number, static_cast<double>(run));
  EXPECT_EQ(doc.Find("iterations")->number, 2.0);
  EXPECT_EQ(doc.Find("violations")->number, 7.0);
  EXPECT_EQ(doc.Find("fixes")->number, 4.0);
  EXPECT_EQ(doc.Find("unresolved")->number, 2.0);
  EXPECT_TRUE(doc.Find("oscillation")->boolean);
  ASSERT_EQ(doc.Find("curve")->array.size(), 2u);
  ASSERT_EQ(doc.Find("rules_breakdown")->array.size(), 2u);
  const JsonValue& phi1 = doc.Find("rules_breakdown")->array[0];
  EXPECT_EQ(phi1.Find("rule")->str, "phi1");
  EXPECT_EQ(phi1.Find("violations")->number, 5.0);
  ASSERT_EQ(phi1.Find("columns")->array.size(), 1u);
  EXPECT_EQ(phi1.Find("columns")->array[0].Find("column")->str, "city");
  EXPECT_EQ(doc.Find("profile")->kind, JsonValue::kNull);
}

TEST(QualityIntegration, CleanReconcilesBitExactWithLedgerAndReport) {
  QualityOn quality_on;
  LineageOn lineage_on;
  QualityRecorder& quality = QualityRecorder::Instance();
  LineageRecorder& lineage = LineageRecorder::Instance();

  auto data = GenerateTaxA(1500, 0.1, /*seed=*/7);
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report =
      system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  QualityRunRecord rec;
  ASSERT_TRUE(quality.LatestRun(&rec));
  EXPECT_FALSE(rec.in_progress);
  EXPECT_EQ(rec.converged, report->converged);
  EXPECT_EQ(rec.rows, data.dirty.num_rows());
  EXPECT_EQ(rec.rules, 1u);

  // The ledger and the quality record describe the same run bit-exactly.
  auto by_rule = lineage.SummaryByRule();
  ASSERT_EQ(by_rule.count("phi1"), 1u);
  EXPECT_EQ(rec.RuleTotals("phi1").fixes, by_rule["phi1"].applied_fixes);
  EXPECT_EQ(rec.RuleTotals("phi1").unresolved, by_rule["phi1"].unresolved);
  EXPECT_EQ(rec.by_rule_column.size(), by_rule.size());
  EXPECT_EQ(rec.TotalFixes(), by_rule["phi1"].applied_fixes);
  EXPECT_EQ(rec.TotalUnresolved(), by_rule["phi1"].unresolved);

  // The convergence curve matches the CleanReport iteration by iteration.
  size_t report_fixes = 0;
  size_t report_violations = 0;
  ASSERT_EQ(rec.curve.size(), report->iterations.size());
  for (size_t i = 0; i < report->iterations.size(); ++i) {
    EXPECT_EQ(rec.curve[i].iteration, i + 1);
    EXPECT_EQ(rec.curve[i].violations, report->iterations[i].violations);
    EXPECT_EQ(rec.curve[i].cells_changed, report->iterations[i].applied_fixes);
    report_fixes += report->iterations[i].applied_fixes;
    report_violations += report->iterations[i].violations;
  }
  ASSERT_GT(report_fixes, 0u) << "the 10% error rate must force repairs";
  EXPECT_EQ(rec.TotalFixes(), report_fixes);
  EXPECT_EQ(rec.TotalViolations(), report_violations);

  // The profiler observed the dirty input.
  ASSERT_TRUE(rec.has_profile);
  EXPECT_EQ(rec.profile.rows, data.dirty.num_rows());
  EXPECT_EQ(rec.profile.columns.size(),
            data.dirty.schema().num_attributes());
  const ColumnProfile* city = rec.profile.Find("city");
  ASSERT_NE(city, nullptr);
  EXPECT_GT(city->distinct, 0u);

  // Every fix attributed to the FD's right-hand side column.
  const auto& phi1_cols = rec.by_rule_column.at("phi1");
  ASSERT_EQ(phi1_cols.count("city"), 1u);
  EXPECT_EQ(phi1_cols.at("city").fixes, report_fixes);
}

TEST(QualityIntegration, StreamReconcilesWithLedgerAndSessionStats) {
  QualityOn quality_on;
  LineageOn lineage_on;
  QualityRecorder& quality = QualityRecorder::Instance();

  auto data = GenerateHai(6000, 0.1, /*seed=*/1);
  std::vector<RulePtr> rules = {
      *ParseRule("phi6: FD: zipcode -> state"),
      *ParseRule("phi7: FD: phone -> zipcode"),
      *ParseRule("phi8: FD: provider_id -> city, phone")};
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table streamed(data.dirty.schema());
  StreamOptions options;
  options.session_name = "quality-reconcile";
  options.batch_rows = 600;
  auto session = system.OpenStream(&streamed, rules, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const auto& rows = data.dirty.rows();
  for (size_t begin = 0; begin < rows.size(); begin += 600) {
    std::vector<Row> batch(rows.begin() + begin, rows.begin() + begin + 600);
    ASSERT_TRUE((*session)->Append(std::move(batch)).ok());
    auto window = (*session)->Poll();
    ASSERT_TRUE(window.ok()) << window.status().ToString();
  }
  auto flush = (*session)->Flush();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  ASSERT_TRUE(flush->converged);

  // Fold every window's quality run of this session, per rule.
  std::map<std::string, QualityCounts> by_rule_quality;
  for (const QualityRunRecord& rec : quality.Runs()) {
    if (rec.session != options.session_name) continue;
    EXPECT_FALSE(rec.in_progress);
    for (const auto& [rule, columns] : rec.by_rule_column) {
      const QualityCounts totals = rec.RuleTotals(rule);
      by_rule_quality[rule].fixes += totals.fixes;
      by_rule_quality[rule].unresolved += totals.unresolved;
    }
  }

  uint64_t fixes = 0;
  uint64_t unresolved = 0;
  for (const auto& [rule, summary] :
       LineageRecorder::Instance().SummaryByRule()) {
    EXPECT_EQ(by_rule_quality[rule].fixes, summary.applied_fixes) << rule;
    EXPECT_EQ(by_rule_quality[rule].unresolved, summary.unresolved) << rule;
    fixes += summary.applied_fixes;
    unresolved += summary.unresolved;
  }
  ASSERT_GT(fixes, 0u) << "the 10% error rate must force repairs";
  const StreamSessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.fixes_applied, fixes);
  EXPECT_EQ(stats.unresolved_violations, unresolved);
}

TEST(QualityIntegration, FlushVerificationKeepsCumulativeCurveCounts) {
  QualityOn on;
  QualityRecorder& quality = QualityRecorder::Instance();
  // Two FDs chained through zipcode: the first iteration repairs the fourth
  // row's zipcode and city together, which moves it into the z1 block,
  // where the second iteration repairs its city again (one oscillation).
  auto input = ReadCsvString(
      "phone,zipcode,city\n"
      "p1,z1,cA\np1,z1,cA\np1,z1,cA\n"
      "p1,z2,cB\np2,z2,cC\np3,z2,cC\np4,z2,cC\n",
      CsvOptions{});
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  std::vector<RulePtr> rules = {*ParseRule("fd1: FD: phone -> zipcode"),
                                *ParseRule("fd2: FD: zipcode -> city")};
  ExecutionContext ctx(2);
  BigDansing system(&ctx);

  Table cleaned = *input;
  auto report = system.Clean(&cleaned, rules);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->iterations.size(), 3u);
  QualityRunRecord clean_run;
  ASSERT_TRUE(quality.LatestRun(&clean_run));
  ASSERT_FALSE(clean_run.curve.empty());
  EXPECT_EQ(clean_run.curve.back().oscillating_cells, 1u);

  // The session's last curve point is Flush's verification; its cumulative
  // counts carry everything the session froze and saw oscillate.
  Table streamed = *input;
  StreamOptions options;
  options.session_name = "quality-flush-curve";
  auto session = system.OpenStream(&streamed, rules, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto flush = (*session)->Flush();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_TRUE(flush->converged);
  EXPECT_EQ(streamed, cleaned);
  QualityRunRecord last;
  ASSERT_TRUE(quality.LatestRun(&last));
  EXPECT_EQ(last.session, options.session_name);
  ASSERT_FALSE(last.curve.empty());
  EXPECT_EQ(last.curve.back().oscillating_cells, 1u);
  EXPECT_EQ(last.curve.back().frozen_cells,
            clean_run.curve.back().frozen_cells);
}

TEST(QualityIntegration, QualityOnlyRunTracksProvenanceWithLedgerOff) {
  QualityOn on;
  LineageRecorder& lineage = LineageRecorder::Instance();
  ASSERT_FALSE(lineage.enabled());

  auto data = GenerateTaxA(800, 0.1, /*seed=*/13);
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report =
      system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The ledger stayed empty, but the quality record still has rule- and
  // column-attributed fixes: provenance tracking follows the quality
  // recorder too, not the lineage toggle alone.
  EXPECT_EQ(lineage.EntryCount(), 0u);
  size_t report_fixes = 0;
  for (const auto& iter : report->iterations) {
    report_fixes += iter.applied_fixes;
  }
  ASSERT_GT(report_fixes, 0u);
  QualityRunRecord rec;
  ASSERT_TRUE(QualityRecorder::Instance().LatestRun(&rec));
  EXPECT_EQ(rec.TotalFixes(), report_fixes);
  EXPECT_EQ(rec.RuleTotals("phi1").fixes, report_fixes);
}

TEST(QualityDrift, DiffsTwoSnapshots) {
  QualityOn on;
  QualityRecorder& quality = QualityRecorder::Instance();
  ExecutionContext ctx(4);

  auto run_once = [&](double error_rate, uint64_t seed) {
    auto data = GenerateTaxA(600, error_rate, seed);
    BigDansing system(&ctx);
    Table working = data.dirty;
    auto report =
        system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  };
  run_once(0.05, 21);
  run_once(0.30, 22);

  std::vector<QualityRunRecord> runs = quality.Runs();
  ASSERT_EQ(runs.size(), 2u);
  const std::string drift = QualityDriftJson(runs[0], runs[1]);
  JsonValue doc;
  ASSERT_TRUE(ParsesStrictly(drift, &doc));
  EXPECT_EQ(doc.Find("before_run")->number,
            static_cast<double>(runs[0].run_id));
  EXPECT_EQ(doc.Find("after_run")->number,
            static_cast<double>(runs[1].run_id));
  // 6x the error rate must show up as a violation increase.
  EXPECT_GT(doc.Find("violations")->Find("delta")->number, 0.0);
  ASSERT_GE(doc.Find("rules")->array.size(), 1u);
  EXPECT_EQ(doc.Find("rules")->array[0].Find("rule")->str, "phi1");
  // Both runs profiled the same schema, so every column is diffed.
  EXPECT_EQ(doc.Find("columns")->array.size(),
            runs[0].profile.columns.size());

  // The snapshot embeds the same drift (between the two completed runs).
  JsonValue snapshot;
  ASSERT_TRUE(ParsesStrictly(quality.SnapshotJson(), &snapshot));
  ASSERT_NE(snapshot.Find("drift"), nullptr);
  EXPECT_EQ(snapshot.Find("drift")->kind, JsonValue::kObject);
  EXPECT_EQ(snapshot.Find("drift")->Find("after_run")->number,
            static_cast<double>(runs[1].run_id));
}

TEST(QualityRecorder, JsonlMatchesSnapshotByteExactly) {
  QualityOn on;
  QualityRecorder& quality = QualityRecorder::Instance();
  ExecutionContext ctx(4);
  auto data = GenerateTaxA(500, 0.1, /*seed=*/5);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report =
      system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::string path = testing::TempDir() + "bd_quality_test.jsonl";
  ASSERT_TRUE(WriteOutput(path, quality.ToJsonl()));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line, last;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    last = line;
    JsonValue doc;
    StrictJsonParser parser(line);
    ASSERT_TRUE(parser.Parse(&doc)) << parser.error() << " in: " << line;
  }
  in.close();
  std::remove(path.c_str());
  ASSERT_EQ(lines, 1u);

  // The JSONL line and the snapshot's embedded run render byte-identically
  // (the reconciliation contract /quality inherits from /stages).
  QualityRunRecord rec;
  ASSERT_TRUE(quality.LatestRun(&rec));
  EXPECT_EQ(last, rec.ToJson());
  EXPECT_NE(quality.SnapshotJson().find(last), std::string::npos);
}

}  // namespace
}  // namespace bigdansing
