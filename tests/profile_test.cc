// Column profiler tests: known-table statistics (null rate, distinct,
// min/max, top-k with deterministic tie-breaks), the profile on the
// calling thread and in stages each matching a brute-force reference
// profile (down to which of two equal values, such as 0 and -0.0, it
// reports) at several worker counts, strict JSON rendering, and the
// profile stages publishing through the metrics plane like any other
// engine stage.
#include "data/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "data/table.h"
#include "dataflow/context.h"
#include "strict_json_test_util.h"

namespace bigdansing {
namespace {

Table MakeMixedTable() {
  Table t(Schema({"city", "salary"}));
  t.AppendRow({Value("paris"), Value(int64_t{100})});
  t.AppendRow({Value("paris"), Value(int64_t{200})});
  t.AppendRow({Value("oslo"), Value::Null()});
  t.AppendRow({Value(), Value(int64_t{100})});
  t.AppendRow({Value("lima"), Value(int64_t{50})});
  t.AppendRow({Value("paris"), Value(int64_t{200})});
  return t;
}

/// `rows` rows over a string, an int and a double column with nulls,
/// repeated values and count ties, so top-k truncation and both
/// tie-breaks are exercised.
Table MakeSkewedTable(size_t rows) {
  Table t(Schema({"city", "salary", "rate"}));
  for (size_t i = 0; i < rows; ++i) {
    std::string city_name = "c";
    city_name += std::to_string(i % 7 == 0 ? 0 : i % 13);
    const Value city = i % 11 == 0 ? Value() : Value(city_name);
    const Value salary =
        i % 17 == 0 ? Value() : Value(static_cast<int64_t>(i % 23) * 100);
    const Value rate(static_cast<double>(i % 9) / 4.0);
    t.AppendRow({city, salary, rate});
  }
  return t;
}

/// `rows` rows whose equal values change form halfway through: -0.0 and
/// doubles in the first half, 0 and ints in the second. "numeric" holds
/// only those numbers, so each of the 8 partitions 4 workers cut 4096 rows
/// into is all doubles or all ints; "mixed" adds nulls, NaNs and strings. The
/// profile must keep the first half's forms, as the brute-force
/// reference does.
Table MakeMixedFormTable(size_t rows) {
  Table t(Schema({"numeric", "mixed"}));
  for (size_t i = 0; i < rows; ++i) {
    const int64_t key = static_cast<int64_t>(i % 5);
    const Value number = i >= rows / 2 ? Value(key)
                         : key == 0    ? Value(-0.0)
                                       : Value(static_cast<double>(key));
    Value mixed = number;
    if (i % 11 == 0) {
      mixed = Value();
    } else if (i % 13 == 0) {
      mixed = Value(std::numeric_limits<double>::quiet_NaN());
    } else if (i % 7 == 0) {
      mixed = Value("s" + std::to_string(i % 3));
    }
    t.AppendRow({number, mixed});
  }
  return t;
}

/// `rows` rows of three column shapes: all-distinct strings in no sorted
/// order (every value in one partition), three ints that occur in every
/// partition, and nothing but nulls.
Table MakeShapesTable(size_t rows) {
  Table t(Schema({"distinct", "few", "empty"}));
  for (size_t i = 0; i < rows; ++i) {
    // 7919 is prime and divides no row count used here: a permutation.
    t.AppendRow({Value("k" + std::to_string(i * 7919 % rows)),
                 Value(static_cast<int64_t>(i % 3)), Value()});
  }
  return t;
}

/// Brute-force reference: std::map counts per column (so value-ascending),
/// then a stable count-descending sort for the top-k.
TableProfile ReferenceProfile(const Table& t) {
  TableProfile out;
  out.rows = t.num_rows();
  for (size_t c = 0; c < t.schema().num_attributes(); ++c) {
    ColumnProfile prof;
    prof.name = t.schema().attribute(c);
    prof.index = c;
    prof.rows = out.rows;
    std::map<Value, uint64_t> counts;
    for (const Row& row : t.rows()) {
      if (row.value(c).is_null()) {
        ++prof.nulls;
      } else {
        ++counts[row.value(c)];
      }
    }
    prof.distinct = counts.size();
    if (!counts.empty()) {
      prof.min = counts.begin()->first;
      prof.max = counts.rbegin()->first;
    }
    for (const auto& [v, n] : counts) prof.top.push_back({v, n});
    std::stable_sort(
        prof.top.begin(), prof.top.end(),
        [](const TopValue& a, const TopValue& b) { return a.count > b.count; });
    if (prof.top.size() > kProfileTopK) prof.top.resize(kProfileTopK);
    out.columns.push_back(std::move(prof));
  }
  return out;
}

bool RanStage(const ExecutionContext& ctx, const std::string& name) {
  for (const StageReport& r : ctx.metrics().StageReports()) {
    if (r.name == name) return true;
  }
  return false;
}

TEST(ColumnProfiler, ProfilesKnownTable) {
  ExecutionContext ctx(4);
  const Table t = MakeMixedTable();
  TableProfile profile = ProfileTable(&ctx, t);

  ASSERT_EQ(profile.rows, 6u);
  ASSERT_EQ(profile.columns.size(), 2u);

  const ColumnProfile* city = profile.Find("city");
  ASSERT_NE(city, nullptr);
  EXPECT_EQ(city->index, 0u);
  EXPECT_EQ(city->rows, 6u);
  EXPECT_EQ(city->nulls, 1u);
  EXPECT_DOUBLE_EQ(city->null_rate(), 1.0 / 6.0);
  EXPECT_EQ(city->distinct, 3u);
  EXPECT_EQ(city->min, Value("lima"));
  EXPECT_EQ(city->max, Value("paris"));
  // Top-k: count-descending, ties broken by ascending Value order.
  ASSERT_GE(city->top.size(), 3u);
  EXPECT_EQ(city->top[0].value, Value("paris"));
  EXPECT_EQ(city->top[0].count, 3u);
  EXPECT_EQ(city->top[1].value, Value("lima"));
  EXPECT_EQ(city->top[1].count, 1u);
  EXPECT_EQ(city->top[2].value, Value("oslo"));
  EXPECT_EQ(city->top[2].count, 1u);

  const ColumnProfile* salary = profile.Find("salary");
  ASSERT_NE(salary, nullptr);
  EXPECT_EQ(salary->nulls, 1u);
  EXPECT_EQ(salary->distinct, 3u);
  EXPECT_EQ(salary->min, Value(int64_t{50}));
  EXPECT_EQ(salary->max, Value(int64_t{200}));
  ASSERT_GE(salary->top.size(), 3u);
  // 100 and 200 both occur twice: the smaller value leads the tie.
  EXPECT_EQ(salary->top[0].value, Value(int64_t{100}));
  EXPECT_EQ(salary->top[0].count, 2u);
  EXPECT_EQ(salary->top[1].value, Value(int64_t{200}));
  EXPECT_EQ(salary->top[1].count, 2u);

  EXPECT_EQ(profile.Find("missing"), nullptr);
}

TEST(ColumnProfiler, TopKTruncates) {
  ExecutionContext ctx(2);
  Table t(Schema({"v"}));
  for (int i = 0; i < 10; ++i) {
    for (int reps = 0; reps <= i; ++reps) {
      t.AppendRow({Value(int64_t{i})});
    }
  }
  TableProfile profile = ProfileTable(&ctx, t);
  ASSERT_EQ(profile.columns.size(), 1u);
  ASSERT_EQ(profile.columns[0].top.size(), 5u);
  EXPECT_EQ(profile.columns[0].top[0].value, Value(int64_t{9}));
  EXPECT_EQ(profile.columns[0].top[0].count, 10u);
  EXPECT_EQ(profile.columns[0].top[4].value, Value(int64_t{5}));
  EXPECT_EQ(profile.columns[0].top[4].count, 6u);
  EXPECT_EQ(profile.columns[0].distinct, 10u);
}

TEST(ColumnProfiler, BothPathsMatchBruteForceProfile) {
  // No option forces a path: one row under the cutoff profiles on the
  // calling thread, the cutoff itself in the count and merge stages.
  // Byte-identical JSON, not just equal stats: the paths must be
  // indistinguishable to every downstream consumer (drift diff, JSONL).
  for (const size_t rows : {kProfileInlineRows - 1, kProfileInlineRows}) {
    for (const Table& t : {MakeSkewedTable(rows), MakeMixedFormTable(rows)}) {
      ExecutionContext ctx(4);
      EXPECT_EQ(ProfileTable(&ctx, t).ToJson(), ReferenceProfile(t).ToJson())
          << rows << " rows";
      for (const char* stage : {"profile:count", "profile:merge"}) {
        EXPECT_EQ(RanStage(ctx, stage), rows >= kProfileInlineRows)
            << rows << " rows, " << stage;
      }
    }
  }
}

TEST(ColumnProfiler, ColumnShapesMatchBruteForceAtEveryWorkerCount) {
  // Worker counts change the partitions counted and the hash ranges
  // folded in the stages, never the profile.
  for (const size_t rows : {kProfileInlineRows, size_t{20000}}) {
    const Table t = MakeShapesTable(rows);
    const std::string expected = ReferenceProfile(t).ToJson();
    for (const size_t workers : {1, 2, 4}) {
      ExecutionContext ctx(workers);
      EXPECT_EQ(ProfileTable(&ctx, t).ToJson(), expected)
          << rows << " rows, " << workers << " workers";
    }
  }
}

TEST(ColumnProfiler, RunsNoStageUnderTheCutoffAndNoEncodeAtIt) {
  ExecutionContext small_ctx(4);
  ProfileTable(&small_ctx, MakeSkewedTable(kProfileInlineRows - 1));
  EXPECT_TRUE(small_ctx.metrics().StageReports().empty());

  // Counting by hash needs no dictionary: a large table runs no
  // kernel:encode:* stage.
  ExecutionContext ctx(4);
  ProfileTable(&ctx, MakeSkewedTable(kProfileInlineRows));
  EXPECT_TRUE(RanStage(ctx, "profile:count"));
  for (const StageReport& r : ctx.metrics().StageReports()) {
    EXPECT_FALSE(r.name.starts_with("kernel:encode:")) << r.name;
  }
}

TEST(ColumnProfiler, EmptyTableAndNullContext) {
  ExecutionContext ctx(2);
  Table empty(Schema({"a", "b"}));
  TableProfile profile = ProfileTable(&ctx, empty);
  EXPECT_EQ(profile.rows, 0u);
  ASSERT_EQ(profile.columns.size(), 2u);
  EXPECT_EQ(profile.columns[0].nulls, 0u);
  EXPECT_EQ(profile.columns[0].distinct, 0u);
  EXPECT_DOUBLE_EQ(profile.columns[0].null_rate(), 0.0);
  EXPECT_TRUE(profile.columns[0].min.is_null());

  // Null context degrades to the name-only shell instead of crashing.
  TableProfile no_ctx = ProfileTable(nullptr, MakeMixedTable());
  ASSERT_EQ(no_ctx.columns.size(), 2u);
  EXPECT_EQ(no_ctx.columns[0].name, "city");
  EXPECT_EQ(no_ctx.columns[0].distinct, 0u);
}

TEST(ColumnProfiler, ToJsonIsStrictAndTyped) {
  ExecutionContext ctx(4);
  Table t(Schema({"na\"me"}));
  t.AppendRow({Value("a\nb")});
  t.AppendRow({Value()});
  TableProfile profile = ProfileTable(&ctx, t);

  JsonValue doc;
  ASSERT_TRUE(ParsesStrictly(profile.ToJson(), &doc));
  EXPECT_EQ(doc.Find("rows")->number, 2.0);
  const JsonValue* columns = doc.Find("columns");
  ASSERT_NE(columns, nullptr);
  ASSERT_EQ(columns->array.size(), 1u);
  const JsonValue& col = columns->array[0];
  EXPECT_EQ(col.Find("name")->str, "na\"me");
  EXPECT_EQ(col.Find("nulls")->number, 1.0);
  EXPECT_EQ(col.Find("distinct")->number, 1.0);
  EXPECT_EQ(col.Find("min")->str, "a\nb");
  ASSERT_EQ(col.Find("top")->array.size(), 1u);
  EXPECT_EQ(col.Find("top")->array[0].Find("value")->str, "a\nb");
  EXPECT_EQ(col.Find("top")->array[0].Find("count")->number, 1.0);
}

TEST(ColumnProfiler, PublishesProfileStages) {
  ExecutionContext ctx(4);
  const Table t = MakeSkewedTable(kProfileInlineRows);
  ProfileTable(&ctx, t);
  bool saw_count = false;
  bool saw_merge = false;
  for (const StageReport& r : ctx.metrics().StageReports()) {
    if (r.name != "profile:count" && r.name != "profile:merge") continue;
    saw_count |= r.name == "profile:count";
    saw_merge |= r.name == "profile:merge";
    EXPECT_TRUE(r.finished);
    if (r.name == "profile:count") {
      EXPECT_EQ(r.records_in, t.num_rows());
    }
    EXPECT_GT(r.start_ms, 0u);
    EXPECT_GE(r.end_ms, r.start_ms);
  }
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_merge);
}

}  // namespace
}  // namespace bigdansing
