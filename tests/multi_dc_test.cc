#include "core/multi_dc.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "data/csv.h"
#include "rules/parser.h"
#include "rules/similarity.h"

namespace bigdansing {
namespace {

/// The Appendix E scenario: a Local employee table L (with manager links)
/// and a Global table G. Rule c3: an employee t1 who manages someone (t2's
/// MID = t1's LID) must appear in G as a manager in their city — a triple
/// (t1, t2, t3) with matching city but differing names and role "M" on t3
/// is a violation witness (simplified from the paper's c3 to keep the
/// fixture readable; the predicate structure is identical).
Table LocalTable() {
  const char* csv =
      "LID,FN,LN,City,MID\n"
      "1,alice,smith,NYC,0\n"   // Manager of 2 and 3.
      "2,bob,jones,NYC,1\n"
      "3,carol,white,NYC,1\n"
      "4,dan,black,SF,0\n";     // Manages nobody.
  return *ReadCsvString(csv, CsvOptions{});
}

Table GlobalTable() {
  const char* csv =
      "GID,FN,LN,Role,City\n"
      "10,eve,green,M,NYC\n"    // Manager in NYC, different name -> witness.
      "11,alice,smith,M,NYC\n"  // Same name as alice -> no violation.
      "12,frank,gray,M,SF\n"    // Manager in SF (no managing pair there).
      "13,gina,blue,E,NYC\n";   // Not a manager.
  return *ReadCsvString(csv, CsvOptions{});
}

constexpr const char* kC3 =
    "c3: DC3: t1.LID != t2.LID & t1.LID = t2.MID & t1.FN != t3.FN & "
    "t1.LN != t3.LN & t1.City = t3.City & t3.Role = \"M\"";

TEST(ThreeTupleDc, ParserAcceptsC3) {
  auto rule = ParseThreeTupleDc(kC3);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ((*rule)->name(), "c3");
  EXPECT_EQ((*rule)->predicates().size(), 6u);
}

TEST(ThreeTupleDc, ParserRejectsBadForms) {
  EXPECT_FALSE(ParseThreeTupleDc("DC: t1.a = t2.a").ok());  // Wrong keyword.
  EXPECT_FALSE(
      ParseThreeTupleDc("DC3: t1.a = t2.a & t1.b != t2.b").ok());  // No t3.
  EXPECT_FALSE(ParseThreeTupleDc("DC3: ").ok());
}

TEST(ThreeTupleDc, TwoTupleParserRejectsT3) {
  EXPECT_FALSE(ParseRule("DC: t1.a = t3.a & t1.b != t2.b").ok());
}

TEST(ThreeTupleDc, BindRequiresLinks) {
  // No t3 equality link.
  auto no_third = ParseThreeTupleDc("DC3: t1.a = t2.a & t1.b != t3.b");
  ASSERT_TRUE(no_third.ok());
  Schema s({"a", "b"});
  EXPECT_FALSE((*no_third)->Bind(s, s).ok());
  // No pair link.
  auto no_pair = ParseThreeTupleDc("DC3: t1.a != t2.a & t1.b = t3.b");
  ASSERT_TRUE(no_pair.ok());
  EXPECT_FALSE((*no_pair)->Bind(s, s).ok());
  // Unknown attribute.
  auto bad_attr = ParseThreeTupleDc("DC3: t1.a = t2.a & t1.zz = t3.b");
  ASSERT_TRUE(bad_attr.ok());
  EXPECT_FALSE((*bad_attr)->Bind(s, s).ok());
}

TEST(ThreeTupleDc, DetectsAppendixEViolations) {
  Table local = LocalTable();
  Table global = GlobalTable();
  auto rule = ParseThreeTupleDc(kC3);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ExecutionContext ctx(2);
  uint64_t probes = 0;
  auto violations = DetectThreeTuple(&ctx, local, global, *rule, &probes);
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();

  // Managing pairs in L: (alice, bob) and (alice, carol). NYC managers in
  // G with a name differing from alice: eve. So two violations:
  // (alice, bob, eve) and (alice, carol, eve).
  EXPECT_EQ(violations->size(), 2u);
  for (const auto& vf : *violations) {
    EXPECT_EQ(vf.violation.rule_name, "c3");
    EXPECT_FALSE(vf.fixes.empty());
  }
  // The t3 scope (Role = "M") and the city link keep probing tiny.
  EXPECT_LE(probes, 8u);
}

TEST(ThreeTupleDc, MatchesBruteForceOnRandomData) {
  // Random tables; the bushy plan must agree with triple-nested loops.
  Random rng(61);
  Table pair_table(Schema({"id", "link", "x", "city"}));
  for (int64_t i = 0; i < 60; ++i) {
    pair_table.AppendRow({Value(i), Value(static_cast<int64_t>(rng.NextBounded(60))),
                          Value(static_cast<int64_t>(rng.NextBounded(5))),
                          Value("c" + std::to_string(rng.NextBounded(4)))});
  }
  Table third_table(Schema({"gid", "city", "y"}));
  for (int64_t i = 0; i < 40; ++i) {
    third_table.AppendRow({Value(i),
                           Value("c" + std::to_string(rng.NextBounded(4))),
                           Value(static_cast<int64_t>(rng.NextBounded(5)))});
  }
  auto rule = ParseThreeTupleDc(
      "r: DC3: t1.id = t2.link & t1.x > t2.x & t1.city = t3.city & "
      "t1.x <= t3.y");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();

  ExecutionContext ctx(3);
  auto violations = DetectThreeTuple(&ctx, pair_table, third_table, *rule);
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();

  // Brute force.
  size_t expected = 0;
  for (const Row& t1 : pair_table.rows()) {
    for (const Row& t2 : pair_table.rows()) {
      if (t1.id() == t2.id()) continue;
      if (t1.value(0) != t2.value(1)) continue;
      if (!(t1.value(2) > t2.value(2))) continue;
      for (const Row& t3 : third_table.rows()) {
        if (t1.value(3) != t3.value(1)) continue;
        if (!(t1.value(2) <= t3.value(2))) continue;
        ++expected;
      }
    }
  }
  EXPECT_EQ(violations->size(), expected);
  EXPECT_GT(expected, 0u);  // The fixture must actually exercise the path.
}

TEST(ThreeTupleDc, SimilarityPredicatesMatchBruteForce) {
  // `~` on a pair predicate (the co-block's early filter) and on a t3
  // predicate (the residual after the join), against triple-nested loops
  // deciding similarity straight from LevenshteinSimilarity.
  const char* names[] = {"johnson", "jonson", "johnsen", "smith", "smyth",
                         "brown"};
  Random rng(83);
  Table pair_table(Schema({"id", "link", "name", "city"}));
  for (int64_t i = 0; i < 50; ++i) {
    pair_table.AppendRow(
        {Value(i), Value(static_cast<int64_t>(rng.NextBounded(50))),
         Value(names[rng.NextBounded(6)]),
         Value("c" + std::to_string(rng.NextBounded(3)))});
  }
  Table third_table(Schema({"gid", "city", "name"}));
  for (int64_t i = 0; i < 30; ++i) {
    third_table.AppendRow({Value(i),
                           Value("c" + std::to_string(rng.NextBounded(3))),
                           Value(names[rng.NextBounded(6)])});
  }
  auto rule = ParseThreeTupleDc(
      "r: DC3: t1.id = t2.link & t1.name ~0.6 t2.name & "
      "t1.city = t3.city & t2.name ~0.8 t3.name");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();

  ExecutionContext ctx(3);
  auto violations = DetectThreeTuple(&ctx, pair_table, third_table, *rule);
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();

  auto similar = [](const Value& a, const Value& b, double threshold) {
    return LevenshteinSimilarity(a.as_string(), b.as_string()) >= threshold;
  };
  std::multiset<std::vector<RowId>> expected;
  for (const Row& t1 : pair_table.rows()) {
    for (const Row& t2 : pair_table.rows()) {
      if (t1.id() == t2.id() || t1.value(0) != t2.value(1)) continue;
      if (!similar(t1.value(2), t2.value(2), 0.6)) continue;
      for (const Row& t3 : third_table.rows()) {
        if (t1.value(3) != t3.value(1)) continue;
        if (!similar(t2.value(2), t3.value(2), 0.8)) continue;
        expected.insert({t1.id(), t2.id(), t3.id()});
      }
    }
  }
  // Cells come one per predicate operand: t1.id, t2.link, t1.name,
  // t2.name, t1.city, t3.city, t2.name, t3.name.
  std::multiset<std::vector<RowId>> got;
  for (const auto& vf : *violations) {
    ASSERT_EQ(vf.violation.cells.size(), 8u);
    got.insert({vf.violation.cells[0].ref.row_id,
                vf.violation.cells[1].ref.row_id,
                vf.violation.cells[5].ref.row_id});
    // `~` negates to != of the compared cells.
    ASSERT_EQ(vf.fixes.size(), 4u);
    EXPECT_EQ(vf.fixes[1].op, FixOp::kNeq);
    EXPECT_EQ(vf.fixes[3].op, FixOp::kNeq);
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT(expected.size(), 0u);  // The fixture must exercise the path.
}

TEST(ThreeTupleDc, GenFixNegatesEachPredicate) {
  Table local = LocalTable();
  Table global = GlobalTable();
  auto rule = ParseThreeTupleDc(kC3);
  ASSERT_TRUE(rule.ok());
  ExecutionContext ctx(2);
  auto violations = DetectThreeTuple(&ctx, local, global, *rule);
  ASSERT_TRUE(violations.ok());
  ASSERT_FALSE(violations->empty());
  const auto& vf = (*violations)[0];
  ASSERT_EQ(vf.fixes.size(), 6u);
  // First predicate t1.LID != t2.LID negates to equality.
  EXPECT_EQ(vf.fixes[0].op, FixOp::kEq);
  // Last predicate t3.Role = "M" negates to != against the constant.
  EXPECT_EQ(vf.fixes[5].op, FixOp::kNeq);
  ASSERT_FALSE(vf.fixes[5].right.is_cell);
  EXPECT_EQ(vf.fixes[5].right.constant, Value("M"));
}

}  // namespace
}  // namespace bigdansing
