#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

/// Incremental re-detection through the unified request API.
Result<DetectionResult> DetectIncremental(
    const RuleEngine& engine, const Table& table, const RulePtr& rule,
    const std::unordered_set<RowId>& changed) {
  DetectRequest request;
  request.table = &table;
  request.rules = {rule};
  request.changed_rows = &changed;
  auto results = engine.Detect(request);
  if (!results.ok()) return results.status();
  return std::move(results->front());
}

std::set<std::pair<RowId, RowId>> PairSet(const DetectionResult& result) {
  std::set<std::pair<RowId, RowId>> pairs;
  for (const auto& vf : result.violations) {
    auto ids = vf.violation.RowIds();
    if (ids.size() != 2) continue;
    pairs.insert({std::min(ids[0], ids[1]), std::max(ids[0], ids[1])});
  }
  return pairs;
}

TEST(Incremental, BlockedRuleFindsExactlyTouchedViolations) {
  auto data = GenerateTaxA(3000, 0.1, 31);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());

  // Changed rows = all rows involved in violations: the incremental pass
  // must find the same violation set.
  std::unordered_set<RowId> changed;
  for (const auto& vf : full->violations) {
    for (RowId id : vf.violation.RowIds()) changed.insert(id);
  }
  auto incremental = DetectIncremental(engine, data.dirty, rule, changed);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(PairSet(*incremental), PairSet(*full));
  // It visited fewer blocks than the full pass probed.
  EXPECT_LE(incremental->detect_calls, full->detect_calls);
}

TEST(Incremental, SubsetOfChangesFindsSubsetOfViolations) {
  auto data = GenerateTaxA(3000, 0.1, 32);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->violations.empty());

  // Only one violating row marked as changed: the incremental result must
  // be a non-empty subset of the full result containing that row.
  RowId target = full->violations[0].violation.RowIds()[0];
  auto incremental = DetectIncremental(engine, data.dirty, rule, {target});
  ASSERT_TRUE(incremental.ok());
  auto inc_pairs = PairSet(*incremental);
  auto full_pairs = PairSet(*full);
  EXPECT_FALSE(inc_pairs.empty());
  for (const auto& p : inc_pairs) {
    EXPECT_TRUE(full_pairs.count(p)) << p.first << "," << p.second;
  }
}

TEST(Incremental, EmptyChangeSetFindsNothing) {
  auto data = GenerateTaxA(500, 0.1, 33);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto incremental = DetectIncremental(engine, data.dirty, rule, {});
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->violations.empty());
  EXPECT_EQ(incremental->detect_calls, 0u);
}

TEST(Incremental, UnblockedDcMatchesFullOnChangedRows) {
  auto data = GenerateTaxB(800, 0.1, 34);
  auto rule = *ParseRule("phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());
  std::unordered_set<RowId> changed;
  for (const auto& vf : full->violations) {
    for (RowId id : vf.violation.RowIds()) changed.insert(id);
  }
  auto incremental = DetectIncremental(engine, data.dirty, rule, changed);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(PairSet(*incremental), PairSet(*full));
}

TEST(Incremental, NoDuplicateProbesWhenBothSidesChanged) {
  // Two changed rows violating with each other must yield exactly one
  // violation, not two.
  Table t(Schema({"salary", "rate"}));
  t.AppendRow({Value(static_cast<int64_t>(100)), Value(static_cast<int64_t>(9))});
  t.AppendRow({Value(static_cast<int64_t>(200)), Value(static_cast<int64_t>(5))});
  auto rule = *ParseRule("phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate");
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto incremental = DetectIncremental(engine, t, rule, {0, 1});
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(incremental->violations.size(), 1u);
}

}  // namespace
}  // namespace bigdansing
