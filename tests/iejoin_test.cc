#include "core/iejoin.h"

#include <gtest/gtest.h>

#include <tuple>

#include "join_test_util.h"

namespace bigdansing {
namespace {

using join_test::AsDataset;
using join_test::AsSet;
using join_test::BruteForce;
using join_test::Cond;
using join_test::IntRows;
using join_test::MixedRows;

std::vector<Row> RandomRows(size_t n, size_t cols, uint64_t seed,
                            double null_rate = 0.0) {
  return IntRows(n, cols, seed, /*bound=*/40, null_rate);
}

std::vector<RowIndexPair> Join(ExecutionContext* ctx,
                               const std::vector<Row>& rows,
                               const std::vector<OrderingCondition>& conditions,
                               IEJoinStats* stats = nullptr) {
  return IEJoin(ctx, AsDataset(ctx, rows), conditions, stats);
}

class IEJoinProperty
    : public ::testing::TestWithParam<std::tuple<CmpOp, CmpOp, double>> {};

TEST_P(IEJoinProperty, MatchesBruteForce) {
  auto [op1, op2, null_rate] = GetParam();
  std::vector<Row> rows = RandomRows(250, 3, 19, null_rate);
  std::vector<OrderingCondition> conditions = {Cond(0, op1, 0),
                                               Cond(1, op2, 2)};
  ExecutionContext ctx(2);
  IEJoinStats stats;
  auto pairs = Join(&ctx, rows, conditions, &stats);
  EXPECT_EQ(AsSet(pairs), BruteForce(rows, conditions));
  EXPECT_EQ(stats.result_pairs, pairs.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IEJoinProperty,
    ::testing::Combine(
        ::testing::Values(CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq),
        ::testing::Values(CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq),
        ::testing::Values(0.0, 0.15)));

/// Mixed-type sweep: int/double ties, strings, NaN and nulls; every
/// operator pair on the two driving conditions, same- and cross-column
/// (which only a pool shared across columns can decide), with and without
/// a residual third condition.
class IEJoinMixedProperty
    : public ::testing::TestWithParam<std::tuple<CmpOp, CmpOp, bool, bool>> {};

TEST_P(IEJoinMixedProperty, MatchesBruteForce) {
  auto [op1, op2, cross_column, residual] = GetParam();
  const std::vector<Row> rows =
      MixedRows(220, 3, /*seed=*/static_cast<uint64_t>(op1) * 13 +
                             static_cast<uint64_t>(op2),
                /*null_rate=*/0.08);
  std::vector<OrderingCondition> conditions = {
      Cond(0, op1, cross_column ? 1 : 0), Cond(1, op2, cross_column ? 2 : 1)};
  if (residual) conditions.push_back(Cond(2, op1, cross_column ? 0 : 2));
  ExecutionContext ctx(2);
  IEJoinStats stats;
  const auto pairs = Join(&ctx, rows, conditions, &stats);
  const auto expected = BruteForce(rows, conditions);
  EXPECT_EQ(AsSet(pairs), expected);
  EXPECT_EQ(pairs.size(), expected.size());  // No pair twice.
  EXPECT_EQ(stats.result_pairs, pairs.size());
}

INSTANTIATE_TEST_SUITE_P(
    MixedTypes, IEJoinMixedProperty,
    ::testing::Combine(
        ::testing::Values(CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq),
        ::testing::Values(CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq),
        ::testing::Bool(), ::testing::Bool()));

TEST(IEJoin, ResidualThirdCondition) {
  std::vector<Row> rows = RandomRows(150, 3, 29);
  std::vector<OrderingCondition> conditions = {
      Cond(0, CmpOp::kGt, 0), Cond(1, CmpOp::kLt, 1), Cond(2, CmpOp::kLeq, 2)};
  ExecutionContext ctx(2);
  auto pairs = Join(&ctx, rows, conditions);
  EXPECT_EQ(AsSet(pairs), BruteForce(rows, conditions));
}

TEST(IEJoin, SingleConditionNotApplicable) {
  EXPECT_FALSE(IEJoinApplicable({Cond(0, CmpOp::kLt, 0)}));
  EXPECT_TRUE(IEJoinApplicable({Cond(0, CmpOp::kLt, 0), Cond(1, CmpOp::kGt, 1)}));
  ExecutionContext ctx(1);
  std::vector<Row> rows = RandomRows(10, 2, 3);
  EXPECT_TRUE(Join(&ctx, rows, {Cond(0, CmpOp::kLt, 0)}).empty());
}

TEST(IEJoin, EmptyAndDegenerateInputs) {
  ExecutionContext ctx(1);
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kLt, 0),
                                               Cond(1, CmpOp::kGt, 1)};
  EXPECT_TRUE(Join(&ctx, {}, conditions).empty());
  // One row cannot pair with itself.
  std::vector<Row> one = RandomRows(1, 2, 5);
  EXPECT_TRUE(Join(&ctx, one, conditions).empty());
  // All-null column joins nothing.
  std::vector<Row> nulls;
  for (int i = 0; i < 10; ++i) {
    nulls.emplace_back(i, std::vector<Value>{Value::Null(), Value::Null()});
  }
  EXPECT_TRUE(Join(&ctx, nulls, conditions).empty());
}

TEST(IEJoin, HeavyDuplicatesMatchBruteForce) {
  // Many ties on both join attributes stress the boundary logic.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 80; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i % 4), Value(i % 3)});
  }
  for (CmpOp op1 : {CmpOp::kLeq, CmpOp::kGeq}) {
    for (CmpOp op2 : {CmpOp::kLeq, CmpOp::kGeq}) {
      std::vector<OrderingCondition> conditions = {Cond(0, op1, 0),
                                                   Cond(1, op2, 1)};
      ExecutionContext ctx(2);
      auto pairs = Join(&ctx, rows, conditions);
      EXPECT_EQ(AsSet(pairs), BruteForce(rows, conditions))
          << CmpOpName(op1) << " " << CmpOpName(op2);
    }
  }
}

TEST(IEJoin, MonotoneDataProducesNoPairsCheaply) {
  // Clean-TaxB-shaped data: the DC's conditions are jointly unsatisfiable.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20000; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i), Value(i * 2)});
  }
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGt, 0),
                                               Cond(1, CmpOp::kLt, 1)};
  ExecutionContext ctx(2);
  IEJoinStats stats;
  auto pairs = Join(&ctx, rows, conditions, &stats);
  EXPECT_TRUE(pairs.empty());
  // Word-skipping keeps probing near-linear, far below n²/64 words.
  EXPECT_LT(stats.bitmap_probes, 20000u * 20000u / 64 / 8);
}

}  // namespace
}  // namespace bigdansing
