#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "join_test_util.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"

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

/// Each violation of `result` rendered on its own (rule, cells and fixes),
/// aligned with result.violations.
std::vector<std::string> ViolationLines(const DetectionResult& result) {
  std::vector<std::string> lines;
  std::istringstream in(join_test::DetectFingerprint(result));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(lines.size(), result.violations.size());
  return lines;
}

/// The violations of `result` that hold a row of `rows`, order-insensitive.
std::multiset<std::string> Holding(const DetectionResult& result,
                                   const std::unordered_set<RowId>& rows) {
  const std::vector<std::string> lines = ViolationLines(result);
  std::multiset<std::string> held;
  for (size_t v = 0; v < result.violations.size(); ++v) {
    for (RowId id : result.violations[v].violation.RowIds()) {
      if (rows.count(id) > 0) {
        held.insert(lines[v]);
        break;
      }
    }
  }
  return held;
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

/// Four rows whose cities differ pairwise and whose states differ on every
/// pair but (LA, SF): five of the six unordered pairs violate `sym`.
Table CityStateRows() {
  Table t(Schema({"city", "state"}));
  for (const auto& [city, state] :
       std::vector<std::pair<const char*, const char*>>{
           {"NY", "NY"}, {"LA", "CA"}, {"SF", "CA"}, {"CH", "IL"}}) {
    t.AppendRow({Value(std::string(city)), Value(std::string(state))});
  }
  return t;
}

TEST(Incremental, SymmetricUnblockedRuleProbesEachPairOnce) {
  // A symmetric rule under UCrossProduct: Detect probes each unordered
  // pair once, lower table position first, and so must the request.
  const Table table = CityStateRows();
  auto rule = *ParseRule("sym: DC: t1.city != t2.city & t1.state != t2.state");
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(table, rule);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->violations.size(), 5u);

  const std::unordered_set<RowId> all = {0, 1, 2, 3};
  auto every = DetectIncremental(engine, table, rule, all);
  ASSERT_TRUE(every.ok()) << every.status().ToString();
  EXPECT_EQ(every->violations.size(), full->violations.size());
  EXPECT_EQ(join_test::ViolationFingerprint(*every),
            join_test::ViolationFingerprint(*full));
  // One probe per unordered pair.
  EXPECT_EQ(every->detect_calls, 6u);

  for (RowId id : all) {
    auto one = DetectIncremental(engine, table, rule, {id});
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_EQ(Holding(*one, {id}), Holding(*full, {id})) << "row " << id;
    EXPECT_EQ(one->violations.size(), Holding(*full, {id}).size());
  }
}

/// Sets about 6% of the cells of `columns` to null, seeded.
void AddNulls(Table* table, const std::vector<std::string>& columns,
              uint64_t seed) {
  Random rng(seed);
  for (size_t i = 0; i < table->num_rows(); ++i) {
    for (const std::string& name : columns) {
      if (rng.NextBool(0.06)) {
        table->mutable_row(i).set_value(*table->schema().IndexOf(name),
                                        Value::Null());
      }
    }
  }
}

TEST(Incremental, ChangedRowsAgreeWithFullDetect) {
  // Differential: the full pass is the oracle. A changed-rows request
  // returns every Detect violation that holds a changed row and nothing
  // Detect lacks (a blocked plan also re-reports a dirty block's other
  // violations); the single and unblocked passes return exactly the
  // violations that hold a changed row, so with every row changed they
  // equal Detect's.
  auto udf = std::make_shared<UdfRule>("udf");
  udf->set_symmetric(false)
      .set_relevant_attributes({"zipcode", "city"})
      .set_detect([](const Schema& schema, const Row& a, const Row& b,
                     std::vector<Violation>* out) {
        // Same zipcode, cities in the wrong order: no block key, so the
        // engine pairs every two rows.
        const size_t zip = *schema.IndexOf("zipcode");
        const size_t city = *schema.IndexOf("city");
        if (a.value(zip).is_null() || a.value(zip) != b.value(zip) ||
            !(a.value(city) < b.value(city))) {
          return;
        }
        Violation v;
        v.rule_name = "udf";
        v.cells.push_back(UdfRule::MakeUdfCell(a, city, schema));
        v.cells.push_back(UdfRule::MakeUdfCell(b, city, schema));
        out->push_back(std::move(v));
      })
      .set_gen_fix([](const Schema&, const Violation& v,
                      std::vector<Fix>* out) {
        Fix fix;
        fix.left = v.cells[0];
        fix.op = FixOp::kEq;
        fix.right = FixTerm::MakeCell(v.cells[1]);
        out->push_back(std::move(fix));
      });
  struct Case {
    RulePtr rule;
    bool tax_b;
    bool blocked;
  };
  const std::vector<Case> cases = {
      {*ParseRule("chk: CHECK: t1.salary < 40000"), false, false},
      {*ParseRule("phi1: FD: zipcode -> city"), false, true},
      {*ParseRule("dcb: DC: t1.zipcode = t2.zipcode & t1.state != t2.state"),
       false, true},
      {*ParseRule("phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate"), true,
       false},
      {*ParseRule("sym: DC: t1.city != t2.city & t1.state != t2.state"), false,
       false},
      {udf, false, false},
  };
  const std::vector<std::string> columns = {"zipcode", "city", "state",
                                            "salary", "rate"};
  for (uint64_t seed : {3, 4}) {
    Table tax_a = GenerateTaxA(300, 0.2, seed).dirty;
    Table tax_b = GenerateTaxB(300, 0.2, seed).dirty;
    AddNulls(&tax_a, columns, seed);
    AddNulls(&tax_b, columns, seed + 100);
    const size_t n = tax_a.num_rows();
    Random rng(seed);
    std::unordered_set<RowId> one = {static_cast<RowId>(rng.NextBounded(n))};
    std::unordered_set<RowId> some;
    while (some.size() < std::max<size_t>(1, n / 100)) {
      some.insert(static_cast<RowId>(rng.NextBounded(n)));
    }
    std::unordered_set<RowId> every;
    for (const Row& row : tax_a.rows()) every.insert(row.id());
    const std::vector<std::unordered_set<RowId>> changed_sets = {
        {}, one, some, every};
    for (const Case& c : cases) {
      const Table& table = c.tax_b ? tax_b : tax_a;
      ExecutionContext ctx(4);
      RuleEngine engine(&ctx);
      auto full = engine.Detect(table, c.rule);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      const std::vector<std::string> full_lines = ViolationLines(*full);
      const std::multiset<std::string> all(full_lines.begin(),
                                           full_lines.end());
      for (const auto& changed : changed_sets) {
        SCOPED_TRACE(c.rule->name() + ", seed " + std::to_string(seed) +
                     ", " + std::to_string(changed.size()) + " changed");
        auto got = DetectIncremental(engine, table, c.rule, changed);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const std::vector<std::string> got_lines = ViolationLines(*got);
        const std::multiset<std::string> found(got_lines.begin(),
                                               got_lines.end());
        const std::multiset<std::string> want = Holding(*full, changed);
        EXPECT_TRUE(std::includes(found.begin(), found.end(), want.begin(),
                                  want.end()))
            << "a violation holding a changed row is missing";
        EXPECT_TRUE(
            std::includes(all.begin(), all.end(), found.begin(), found.end()))
            << "a violation Detect lacks";
        if (!c.blocked) {
          EXPECT_TRUE(found == want)
              << found.size() << " violations, " << want.size()
              << " of Detect's hold a changed row";
        }
      }
    }
  }
}

}  // namespace
}  // namespace bigdansing
