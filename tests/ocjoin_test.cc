#include "core/ocjoin.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/rule_engine.h"
#include "join_test_util.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

using join_test::AsDataset;
using join_test::AsSet;
using join_test::BruteForce;
using join_test::BruteForceCount;
using join_test::Cond;
using join_test::IntRows;
using join_test::MixedRows;

std::vector<Row> RandomRows(size_t n, size_t cols, uint64_t seed,
                            double null_rate = 0.0) {
  return IntRows(n, cols, seed, /*bound=*/50, null_rate);
}

std::vector<RowIndexPair> Join(ExecutionContext* ctx,
                               const std::vector<Row>& rows,
                               const std::vector<OrderingCondition>& conditions,
                               const OCJoinOptions& options = OCJoinOptions(),
                               OCJoinStats* stats = nullptr) {
  return OCJoin(ctx, AsDataset(ctx, rows), conditions, options, stats);
}

/// Checks `candidate_pairs` against the brute-force count of pairs
/// satisfying the first condition. Pruning drops a partition pair when any
/// condition's code ranges rule it out, so with residual conditions over
/// several partitions the join may skip pairs that satisfy the first
/// condition alone; the count is exact with one partition or one condition.
void ExpectCandidateCount(const OCJoinStats& stats,
                          const std::vector<Row>& rows,
                          const std::vector<OrderingCondition>& conditions) {
  const size_t first_condition_pairs = BruteForceCount(rows, conditions[0]);
  if (stats.num_partitions == 1 || conditions.size() == 1) {
    EXPECT_EQ(stats.candidate_pairs, first_condition_pairs);
  } else {
    EXPECT_LE(stats.candidate_pairs, first_condition_pairs);
  }
  EXPECT_GE(stats.candidate_pairs, stats.result_pairs);
}

/// Property sweep: every operator combination over random data must match
/// the brute-force self-join, across partition counts and null rates.
class OCJoinProperty
    : public ::testing::TestWithParam<std::tuple<CmpOp, CmpOp, size_t, double>> {};

TEST_P(OCJoinProperty, MatchesBruteForce) {
  auto [op0, op1, num_partitions, null_rate] = GetParam();
  std::vector<Row> rows = RandomRows(300, 3, /*seed=*/17, null_rate);
  std::vector<OrderingCondition> conditions = {Cond(0, op0, 0),
                                               Cond(1, op1, 2)};
  ExecutionContext ctx(4);
  OCJoinOptions options;
  options.num_partitions = num_partitions;
  OCJoinStats stats;
  auto pairs = Join(&ctx, rows, conditions, options, &stats);
  EXPECT_EQ(AsSet(pairs), BruteForce(rows, conditions));
  EXPECT_EQ(stats.result_pairs, pairs.size());
  ExpectCandidateCount(stats, rows, conditions);
  EXPECT_LE(stats.partition_pairs_after_pruning, stats.partition_pairs_total);
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndPartitions, OCJoinProperty,
    ::testing::Combine(
        ::testing::Values(CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq),
        ::testing::Values(CmpOp::kLt, CmpOp::kGeq),
        ::testing::Values(size_t{1}, size_t{4}, size_t{13}),
        ::testing::Values(0.0, 0.1)));

constexpr CmpOp kOps[] = {CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq};

/// 1-3 conditions: the first uses `op0`, residual j cycles through the
/// other operators. Cross-column conditions compare different columns on
/// the two sides, which only a pool shared across columns can decide.
std::vector<OrderingCondition> MixedConditions(size_t op0, size_t count,
                                               bool cross_column) {
  std::vector<OrderingCondition> conditions;
  for (size_t j = 0; j < count; ++j) {
    conditions.push_back(Cond(j, kOps[(op0 + j) % 4],
                              cross_column ? (j + 1) % 3 : j));
  }
  return conditions;
}

/// Mixed-type sweep: int/double ties, strings, NaN and nulls, all four
/// operators in the driving and residual positions, 1-3 conditions, same-
/// and cross-column. The pair set and the result count must match brute
/// force over Value comparisons, and so must the candidate count where
/// pruning cannot skip first-condition pairs.
class OCJoinMixedProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, bool, size_t>> {
};

TEST_P(OCJoinMixedProperty, MatchesBruteForce) {
  auto [op0, count, cross_column, num_partitions] = GetParam();
  const std::vector<Row> rows =
      MixedRows(220, 3, /*seed=*/op0 * 31 + count, /*null_rate=*/0.08);
  const auto conditions = MixedConditions(op0, count, cross_column);
  ExecutionContext ctx(4);
  OCJoinOptions options;
  options.num_partitions = num_partitions;
  OCJoinStats stats;
  const auto pairs = Join(&ctx, rows, conditions, options, &stats);
  const auto expected = BruteForce(rows, conditions);
  EXPECT_EQ(AsSet(pairs), expected);
  EXPECT_EQ(pairs.size(), expected.size());  // No pair twice.
  EXPECT_EQ(stats.result_pairs, pairs.size());
  ExpectCandidateCount(stats, rows, conditions);
}

INSTANTIATE_TEST_SUITE_P(
    MixedTypes, OCJoinMixedProperty,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{3}),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{3}),
                       ::testing::Bool(),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{7})));

/// Detect through OCJoin and through IEJoin (the check the repository
/// benchmark makes on TaxB) must report the same violations, cells and
/// fixes, on mixed-type data.
class DetectJoinAgreement
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, bool>> {};

TEST_P(DetectJoinAgreement, OCJoinAndIEJoinFingerprintsMatch) {
  auto [op0, count, cross_column] = GetParam();
  const std::vector<std::string> names = {"a", "b", "c"};
  Table table(Schema(names),
              MixedRows(180, 3, /*seed=*/op0 * 7 + count + 3, 0.05));
  std::string rule = "phi: DC: ";
  for (const auto& c : MixedConditions(op0, count, cross_column)) {
    if (rule.back() != ' ') rule += " & ";
    rule += "t1." + names[c.left_column] + " " + CmpOpName(c.op) + " t2." +
            names[c.right_column];
  }
  ExecutionContext ctx(4);
  auto ocjoin = RuleEngine(&ctx).Detect(table, *ParseRule(rule));
  ASSERT_TRUE(ocjoin.ok()) << ocjoin.status().ToString();
  EXPECT_NE(ocjoin->plan_description.find("OCJoin"), std::string::npos);
  PlannerOptions ie;
  ie.use_iejoin = true;
  auto iejoin = RuleEngine(&ctx, ie).Detect(table, *ParseRule(rule));
  ASSERT_TRUE(iejoin.ok()) << iejoin.status().ToString();
  EXPECT_GT(iejoin->iejoin_stats.rows_joined, 0u);
  EXPECT_EQ(ocjoin->violations.size(), iejoin->violations.size()) << rule;
  EXPECT_EQ(join_test::ViolationFingerprint(*ocjoin),
            join_test::ViolationFingerprint(*iejoin))
      << rule;
  EXPECT_EQ(ocjoin->detect_calls, iejoin->detect_calls);
}

INSTANTIATE_TEST_SUITE_P(
    MixedTypes, DetectJoinAgreement,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{3}),
                       ::testing::Values(size_t{2}, size_t{3}),
                       ::testing::Bool()));

TEST(OCJoin, SingleConditionMatchesBruteForce) {
  std::vector<Row> rows = RandomRows(200, 2, 3);
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGt, 1)};
  ExecutionContext ctx(2);
  auto pairs = Join(&ctx, rows, conditions);
  EXPECT_EQ(AsSet(pairs), BruteForce(rows, conditions));
}

TEST(OCJoin, ThreeConditions) {
  std::vector<Row> rows = RandomRows(150, 3, 5);
  std::vector<OrderingCondition> conditions = {
      Cond(0, CmpOp::kGt, 0), Cond(1, CmpOp::kLt, 1), Cond(2, CmpOp::kLeq, 2)};
  ExecutionContext ctx(2);
  auto pairs = Join(&ctx, rows, conditions);
  EXPECT_EQ(AsSet(pairs), BruteForce(rows, conditions));
}

TEST(OCJoin, EmptyInputs) {
  ExecutionContext ctx(2);
  EXPECT_TRUE(Join(&ctx, {}, {Cond(0, CmpOp::kLt, 0)}).empty());
  std::vector<Row> rows = RandomRows(10, 2, 7);
  EXPECT_TRUE(Join(&ctx, rows, {}).empty());
}

TEST(OCJoin, AllNullColumnProducesNothing) {
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value::Null(), Value::Null()});
  }
  ExecutionContext ctx(2);
  auto pairs = Join(&ctx, rows, {Cond(0, CmpOp::kLt, 1)});
  EXPECT_TRUE(pairs.empty());
}

TEST(OCJoin, PruningActuallyPrunesOnSortedData) {
  // Monotone data (rate grows with salary, like clean TaxB): the DC's
  // condition pair is unsatisfiable across most partition pairs, so
  // pruning must discard the bulk of them.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4000; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i), Value(i * 2)});
  }
  // t1.c0 > t2.c0 & t1.c1 < t2.c1 is unsatisfiable on this data.
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGt, 0),
                                               Cond(1, CmpOp::kLt, 1)};
  ExecutionContext ctx(4);
  OCJoinOptions options;
  options.num_partitions = 16;
  OCJoinStats stats;
  auto pairs = Join(&ctx, rows, conditions, options, &stats);
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(stats.num_partitions, 16u);
  // Only near-diagonal partition pairs can survive the min/max check.
  EXPECT_LT(stats.partition_pairs_after_pruning,
            stats.partition_pairs_total / 4);
}

TEST(OCJoin, DuplicateValuesHandled) {
  // Many ties on the join attribute stress the merge boundaries.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 60; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i % 3), Value(i % 5)});
  }
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kLeq, 0),
                                               Cond(1, CmpOp::kGt, 1)};
  ExecutionContext ctx(3);
  auto pairs = Join(&ctx, rows, conditions);
  EXPECT_EQ(AsSet(pairs), BruteForce(rows, conditions));
}

TEST(OCJoin, SelectivityOrderingPicksRareCondition) {
  // Condition 0 (c0 >= c0) holds for ~half of all pairs; condition 1
  // (c1 < c1 where c1 is constant) never holds. Selectivity ordering must
  // run the never-true condition first, collapsing the candidate count.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 400; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i), Value(static_cast<int64_t>(7))});
  }
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGeq, 0),
                                               Cond(1, CmpOp::kLt, 1)};
  ExecutionContext ctx(2);

  OCJoinStats plain_stats;
  auto plain_pairs = Join(&ctx, rows, conditions, OCJoinOptions(), &plain_stats);

  OCJoinOptions ordered;
  ordered.order_conditions_by_selectivity = true;
  OCJoinStats ordered_stats;
  auto ordered_pairs = Join(&ctx, rows, conditions, ordered, &ordered_stats);

  // Same (empty) result either way; far fewer candidates when ordered.
  EXPECT_EQ(AsSet(plain_pairs), AsSet(ordered_pairs));
  EXPECT_EQ(ordered_stats.primary_condition, 1u);
  EXPECT_LT(ordered_stats.candidate_pairs, plain_stats.candidate_pairs / 10 + 1);
}

TEST(OCJoin, SelectivityOrderingPreservesResults) {
  std::vector<Row> rows = RandomRows(300, 3, 23);
  std::vector<OrderingCondition> conditions = {
      Cond(0, CmpOp::kGeq, 0), Cond(1, CmpOp::kLt, 2), Cond(2, CmpOp::kGt, 1)};
  ExecutionContext ctx(2);
  OCJoinOptions ordered;
  ordered.order_conditions_by_selectivity = true;
  auto pairs = Join(&ctx, rows, conditions, ordered);
  EXPECT_EQ(AsSet(pairs), BruteForce(rows, conditions));
}

TEST(OCJoin, StatsCandidateCountBoundsResults) {
  std::vector<Row> rows = RandomRows(500, 2, 11);
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGt, 0),
                                               Cond(1, CmpOp::kLt, 1)};
  ExecutionContext ctx(4);
  OCJoinStats stats;
  Join(&ctx, rows, conditions, OCJoinOptions(), &stats);
  EXPECT_GE(stats.candidate_pairs, stats.result_pairs);
}

}  // namespace
}  // namespace bigdansing
