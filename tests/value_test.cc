#include "data/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "data/dictionary.h"

namespace bigdansing {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "");
}

TEST(Value, TypedConstructors) {
  EXPECT_TRUE(Value(static_cast<int64_t>(42)).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_TRUE(Value(std::string("abc")).is_string());
  EXPECT_TRUE(Value(static_cast<int64_t>(1)).is_numeric());
  EXPECT_TRUE(Value(1.0).is_numeric());
  EXPECT_FALSE(Value("1").is_numeric());
}

TEST(Value, ParseSniffsTypes) {
  EXPECT_EQ(Value::Parse("42").type(), ValueType::kInt);
  EXPECT_EQ(Value::Parse("-17").type(), ValueType::kInt);
  EXPECT_EQ(Value::Parse("3.14").type(), ValueType::kDouble);
  EXPECT_EQ(Value::Parse("1e3").type(), ValueType::kDouble);
  EXPECT_EQ(Value::Parse("abc").type(), ValueType::kString);
  EXPECT_EQ(Value::Parse("12ab").type(), ValueType::kString);
  EXPECT_EQ(Value::Parse("").type(), ValueType::kNull);
  EXPECT_EQ(Value::Parse("   ").type(), ValueType::kNull);
  EXPECT_EQ(Value::Parse("42").as_int(), 42);
  EXPECT_DOUBLE_EQ(Value::Parse("3.14").as_double(), 3.14);
}

TEST(Value, ParseOverflowFallsBackToString) {
  // Larger than int64 range.
  Value v = Value::Parse("99999999999999999999999999");
  EXPECT_TRUE(v.is_string());
}

TEST(Value, CrossNumericEquality) {
  EXPECT_EQ(Value(static_cast<int64_t>(1)), Value(1.0));
  EXPECT_EQ(Value(static_cast<int64_t>(1)).Hash(), Value(1.0).Hash());
  EXPECT_NE(Value(static_cast<int64_t>(1)), Value(1.5));
}

TEST(Value, TotalOrderNullNumericString) {
  Value null = Value::Null();
  Value num = Value(static_cast<int64_t>(5));
  Value str = Value("5");
  EXPECT_LT(null, num);
  EXPECT_LT(num, str);
  EXPECT_LT(null, str);
}

TEST(Value, StringComparison) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value("abc"), Value("abc"));
  EXPECT_GT(Value("b"), Value("aaaa"));
}

TEST(Value, ToStringRoundTripsThroughParse) {
  for (const Value& v :
       {Value(static_cast<int64_t>(-7)), Value(2.5), Value("hello"),
        Value::Null(), Value(static_cast<int64_t>(0))}) {
    EXPECT_EQ(Value::Parse(v.ToString()), v) << v.ToString();
  }
}

TEST(Value, AsNumberWidens) {
  EXPECT_DOUBLE_EQ(Value(static_cast<int64_t>(3)).AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsNumber(), 2.5);
  EXPECT_DOUBLE_EQ(Value("x").AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Value::Null().AsNumber(), 0.0);
}

class ValueOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(ValueOrderProperty, CompareIsAntisymmetricAndTransitive) {
  // A fixed pool of mixed-type values; every pair/triple must satisfy the
  // total-order axioms.
  std::vector<Value> pool = {
      Value::Null(),       Value(static_cast<int64_t>(-3)),
      Value(0.0),          Value(static_cast<int64_t>(0)),
      Value(7.25),         Value(static_cast<int64_t>(100)),
      Value(""),           Value("a"),
      Value("abc"),        Value("z"),
  };
  int salt = GetParam();
  std::rotate(pool.begin(), pool.begin() + salt % pool.size(), pool.end());
  for (const auto& a : pool) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const auto& b : pool) {
      int ab = a.Compare(b);
      int ba = b.Compare(a);
      EXPECT_EQ(ab > 0, ba < 0);
      EXPECT_EQ(ab == 0, ba == 0);
      if (ab == 0) EXPECT_EQ(a.Hash(), b.Hash());
      for (const auto& c : pool) {
        if (ab <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rotations, ValueOrderProperty,
                         ::testing::Range(0, 5));

TEST(ValueNaN, ParseGivesADoubleNaN) {
  for (const char* text : {"nan", "NaN", "-nan"}) {
    const Value v = Value::Parse(text);
    ASSERT_TRUE(v.is_double()) << text;
    EXPECT_TRUE(std::isnan(v.as_double())) << text;
  }
}

TEST(ValueNaN, SortsAfterEveryNumberAndEqualsOnlyNaN) {
  const Value nan = Value::Parse("nan");
  const Value other_nan(-std::numeric_limits<double>::quiet_NaN());
  const Value inf(std::numeric_limits<double>::infinity());
  EXPECT_EQ(nan.Compare(other_nan), 0);
  EXPECT_EQ(nan, other_nan);
  for (const Value& number :
       {Value(1.5), Value(2.5), inf, Value(-inf.as_double()),
        Value(static_cast<int64_t>(7))}) {
    EXPECT_GT(nan, number) << number.ToString();
    EXPECT_LT(number, nan) << number.ToString();
    EXPECT_NE(nan, number) << number.ToString();
  }
  // Still a number: after null, before every string.
  EXPECT_GT(nan, Value::Null());
  EXPECT_LT(nan, Value(""));
}

TEST(ValueNaN, CompareStaysTransitiveAndHashAgreesWithEquality) {
  const std::vector<Value> pool = {
      Value::Null(),
      Value(1.5),
      Value::Parse("nan"),
      Value(2.5),
      Value(-std::numeric_limits<double>::quiet_NaN()),
      Value(static_cast<int64_t>(2)),
      Value(2.0),
      Value(std::numeric_limits<double>::infinity()),
      Value("nan"),
      // Beyond 2^53 Compare widens ints to doubles that are no longer
      // exact: 2^53 + 1 equals 2^53, so both must hash like the double.
      Value(int64_t{1} << 53),
      Value((int64_t{1} << 53) + 1),
      Value(static_cast<double>(int64_t{1} << 53)),
      Value(std::numeric_limits<int64_t>::max()),
      Value(-(int64_t{1} << 53) - 1),
  };
  for (const auto& a : pool) {
    for (const auto& b : pool) {
      const int ab = a.Compare(b);
      EXPECT_EQ(ab > 0, b.Compare(a) < 0);
      EXPECT_EQ(ab == 0, a == b);
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " " << b.ToString();
      }
      for (const auto& c : pool) {
        if (ab <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
        if (ab == 0 && b.Compare(c) == 0) {
          EXPECT_EQ(a.Compare(c), 0);
        }
      }
    }
  }
}

TEST(ValueNaN, PoolCodesAgreeWithValueOrder) {
  // EncodeColumns sorts its distinct values with Compare; NaN must get one
  // code, after 2.5, and every spelling of NaN must find it.
  ValuePool pool({Value(1.5), Value(2.5), Value::Parse("nan")});
  EXPECT_EQ(pool.CodeOf(Value(1.5)), 0u);
  EXPECT_EQ(pool.CodeOf(Value(2.5)), 1u);
  EXPECT_EQ(pool.CodeOf(Value::Parse("nan")), 2u);
  EXPECT_EQ(pool.CodeOf(Value(-std::numeric_limits<double>::quiet_NaN())),
            2u);
  EXPECT_EQ(pool.LowerBound(Value::Parse("nan")), 2u);
  EXPECT_EQ(pool.UpperBound(Value(2.5)), 2u);
  EXPECT_EQ(pool.UpperBound(Value::Parse("nan")), 3u);

  std::vector<Value> values = {Value::Parse("nan"), Value(2.5), Value(1.5),
                               Value::Parse("nan")};
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values[0], Value(1.5));
  EXPECT_EQ(values[1], Value(2.5));
  EXPECT_TRUE(std::isnan(values[2].as_double()));
  EXPECT_TRUE(std::isnan(values[3].as_double()));
}

TEST(Value, HashIsStableAcrossRuns) {
  // Pinned values guard against accidental hash-function changes, which
  // would silently re-partition persisted experiment data.
  EXPECT_EQ(Value("").Hash(), StableHashBytes(""));
  EXPECT_EQ(Value(static_cast<int64_t>(1)).Hash(), StableHashUint64(1));
}

}  // namespace
}  // namespace bigdansing
