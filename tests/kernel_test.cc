// Columnar detect kernels: bit-equality against the interpreted oracle.
// Every test runs the same detection twice — kernels on vs BD_KERNELS=0
// semantics (ctx.set_kernels_enabled(false)) — and requires byte-identical
// violation streams (same violations, same fixes, same order) plus equal
// detect_calls, across FD/DC/CFD/CHECK/dedup rules, null-heavy data, empty
// and single-row blocks, injected faults, and the Clean() fixpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "baselines/nadeef_baseline.h"
#include "common/fault.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "data/csv.h"
#include "data/dictionary.h"
#include "datagen/datagen.h"
#include "dataflow/context.h"
#include "rules/cfd_rule.h"
#include "rules/detect_kernel.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"
#include "join_test_util.h"

namespace bigdansing {
namespace {

using join_test::DetectFingerprint;

Table PaperTable() {
  const char* csv =
      "name,zipcode,city,state,salary,rate\n"
      "Annie,10011,NY,NY,24000,15\n"
      "Laure,90210,LA,CA,25000,10\n"
      "John,60601,CH,IL,40000,25\n"
      "Mark,90210,SF,CA,88000,30\n"
      "Robert,68027,CH,IL,30000,5\n"
      "Mary,90210,LA,CA,88000,30\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return *table;
}

/// Nulls in blocking keys, RHS values, and whole rows; a unique key
/// (single-row block) and an all-null key row (no block at all).
Table NullTable() {
  const char* csv =
      "name,zipcode,city,state\n"
      "a,90210,LA,CA\n"
      "b,90210,,CA\n"
      "c,,NY,NY\n"
      "d,90210,SF,\n"
      "e,,,\n"
      "f,10011,NY,NY\n"
      "g,90210,,CA\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return *table;
}

std::string TableFingerprint(const Table& table) {
  std::string out;
  for (const Row& row : table.rows()) {
    out += std::to_string(row.id());
    for (size_t c = 0; c < row.size(); ++c) {
      out += '|';
      out += row.value(c).ToString();
    }
    out += "\n";
  }
  return out;
}

std::vector<DetectionResult> RunDetect(const Table& table,
                                       const std::vector<RulePtr>& rules,
                                       bool kernels, size_t workers = 4,
                                       PlannerOptions options = {}) {
  ExecutionContext ctx(workers);
  ctx.set_kernels_enabled(kernels);
  RuleEngine engine(&ctx, options);
  DetectRequest request;
  request.table = &table;
  request.rules = rules;
  auto results = engine.Detect(request);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  return std::move(*results);
}

/// The core oracle check: kernel vs interpreted runs must agree byte for
/// byte. `expect_kernel` additionally asserts the kernel path actually
/// engaged (plan description carries the [kernel] marker) — without it a
/// silently-fallback path would vacuously pass.
void ExpectBitIdentical(const Table& table, const std::vector<RulePtr>& rules,
                        bool expect_kernel = true, size_t workers = 4,
                        PlannerOptions options = {}) {
  auto kernel = RunDetect(table, rules, /*kernels=*/true, workers, options);
  auto interp = RunDetect(table, rules, /*kernels=*/false, workers, options);
  ASSERT_EQ(kernel.size(), interp.size());
  for (size_t r = 0; r < kernel.size(); ++r) {
    EXPECT_EQ(DetectFingerprint(kernel[r]), DetectFingerprint(interp[r]))
        << "rule " << r << " diverged";
    EXPECT_EQ(kernel[r].detect_calls, interp[r].detect_calls)
        << "rule " << r << " evaluated a different candidate count";
    if (expect_kernel) {
      EXPECT_NE(kernel[r].plan_description.find("[kernel]"),
                std::string::npos)
          << kernel[r].plan_description;
    }
    EXPECT_EQ(interp[r].plan_description.find("[kernel]"), std::string::npos)
        << interp[r].plan_description;
  }
}

TEST(ValuePoolTest, CodesPreserveOrderEqualityAndHashes) {
  ValuePool pool({Value(int64_t{5}), Value(10.5), Value("NY"), Value("ny")});
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.CodeOf(Value(int64_t{5})), 0u);
  EXPECT_EQ(pool.CodeOf(Value(5.0)), 0u);  // int 5 == double 5.0
  EXPECT_EQ(pool.CodeOf(Value("NY")), 2u);
  EXPECT_EQ(pool.CodeOf(Value::Null()), ValuePool::kNullCode);
  EXPECT_EQ(pool.CodeOf(Value("absent")), ValuePool::kAbsentCode);
  // value < 10.5 ⟺ code < LowerBound; value <= 10.5 ⟺ code < UpperBound.
  EXPECT_EQ(pool.LowerBound(Value(10.5)), 1u);
  EXPECT_EQ(pool.UpperBound(Value(10.5)), 2u);
  for (uint32_t c = 0; c < pool.size(); ++c) {
    EXPECT_EQ(pool.hash(c), pool.value(c).Hash());
  }
}

TEST(ValuePoolTest, EncodeColumnsSharesOnePoolAcrossAGroup) {
  // Three partitions with overlapping, unordered values, ties across
  // physical types and nulls, in a group of two columns sharing one pool
  // (the inequality joins encode every condition column this way).
  auto row = [](RowId id, Value a, Value b) {
    return Row(id, std::vector<Value>{std::move(a), std::move(b)});
  };
  std::vector<std::vector<Row>> parts = {
      {row(0, Value("b"), Value(2.0)), row(1, Value(int64_t{3}), Value::Null())},
      {row(2, Value(int64_t{2}), Value(0.5)), row(3, Value("a"), Value("b"))},
      {row(4, Value(3.0), Value(int64_t{3})), row(5, Value::Null(), Value(9.5))},
  };
  ExecutionContext ctx(2);
  EncodedColumnSet set = EncodeColumns(Dataset<Row>(&ctx, parts), {{0, 1}});
  ASSERT_EQ(set.rows, 6u);
  const ValuePool& pool = *set.columns.at(0).pool;
  EXPECT_EQ(set.columns.at(1).pool.get(), &pool);
  // Sorted, one code per equality class: 0.5 < 2 < 3 < 9.5 < "a" < "b".
  ASSERT_EQ(pool.size(), 6u);
  for (uint32_t c = 1; c < pool.size(); ++c) {
    EXPECT_LT(pool.value(c - 1), pool.value(c));
  }
  EXPECT_EQ(set.columns.at(0).codes[0],
            (std::vector<uint32_t>{5, 2}));
  EXPECT_EQ(set.columns.at(1).codes[0],
            (std::vector<uint32_t>{1, ValuePool::kNullCode}));
  EXPECT_EQ(set.columns.at(0).codes[2],
            (std::vector<uint32_t>{2, ValuePool::kNullCode}));
}

TEST(ValuePoolTest, PoolFromTaskSortedRunsKeepsLowestPartitionValue) {
  // Each encode task sorts its partition's distinct values and the driver
  // merges the sorted runs. The pool must equal the sorted distinct values
  // of the whole column set, and of values that compare equal (int 1 and
  // 1.0, 0.0 and -0.0, two NaNs) keep the one seen first in the lowest
  // partition: within a partition, column by column, then row by row.
  // A partition of ints only takes the key sort, the others the Value
  // sort; empty partitions add nothing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto row = [](RowId id, Value a, Value b) {
    return Row(id, std::vector<Value>{std::move(a), std::move(b)});
  };
  std::vector<std::vector<Row>> parts = {
      {},
      {row(0, Value(int64_t{5}), Value(int64_t{1})),
       row(1, Value(int64_t{1}), Value(int64_t{-7}))},
      {row(2, Value(1.0), Value(0.0)), row(3, Value(nan), Value(2.5)),
       row(4, Value(-0.0), Value(-nan))},
      {},
      {row(5, Value("b"), Value(5.0)), row(6, Value(int64_t{0}), Value::Null()),
       row(7, Value(2.5), Value("a"))},
      {row(8, Value::Null(), Value(-nan)),
       row(9, Value("a"), Value(int64_t{3}))},
  };
  // Brute force: first representative of each equal class in scan order,
  // then sorted.
  std::vector<Value> expected;
  for (const auto& part : parts) {
    for (size_t c : {0, 1}) {
      for (const Row& r : part) {
        const Value& v = r.value(c);
        if (v.is_null()) continue;
        if (std::none_of(expected.begin(), expected.end(),
                         [&](const Value& e) { return e == v; })) {
          expected.push_back(v);
        }
      }
    }
  }
  std::sort(expected.begin(), expected.end());

  ExecutionContext ctx(2);
  EncodedColumnSet set = EncodeColumns(Dataset<Row>(&ctx, parts), {{0, 1}});
  const ValuePool& pool = *set.columns.at(0).pool;
  ASSERT_EQ(pool.size(), expected.size());
  for (uint32_t code = 0; code < pool.size(); ++code) {
    const Value& got = pool.value(code);
    EXPECT_EQ(got, expected[code]) << "code " << code;
    EXPECT_EQ(got.type(), expected[code].type()) << "code " << code;
    if (got.is_double()) {
      EXPECT_EQ(std::signbit(got.as_double()),
                std::signbit(expected[code].as_double()))
          << "code " << code;
    }
  }
  // -0.0 (partition 2) beats int 0 (partition 4); int 1 (partition 1)
  // beats 1.0 (partition 2).
  EXPECT_TRUE(pool.value(pool.CodeOf(Value(0.0))).is_double());
  EXPECT_TRUE(std::signbit(pool.value(pool.CodeOf(Value(0.0))).as_double()));
  EXPECT_TRUE(pool.value(pool.CodeOf(Value(1.0))).is_int());
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t c : {0, 1}) {
      ASSERT_EQ(set.columns.at(c).codes[p].size(), parts[p].size());
      for (size_t i = 0; i < parts[p].size(); ++i) {
        const Value& v = parts[p][i].value(c);
        EXPECT_EQ(set.columns.at(c).codes[p][i],
                  v.is_null() ? ValuePool::kNullCode : pool.CodeOf(v));
      }
    }
  }
}

TEST(ValuePoolTest, InternAppendsAndKeepsEveryEarlierCode) {
  ValuePool pool({Value(int64_t{5}), Value(10.5), Value("NY")});
  // Pooled values keep their codes; an absent value takes the next one.
  EXPECT_EQ(pool.Intern(Value(10.5)), 1u);
  EXPECT_EQ(pool.Intern(Value(int64_t{7})), 3u);
  EXPECT_EQ(pool.Intern(Value("AB")), 4u);
  EXPECT_EQ(pool.Intern(Value::Null()), ValuePool::kNullCode);
  EXPECT_EQ(pool.Intern(Value(int64_t{7})), 3u);
  ASSERT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.CodeOf(Value(int64_t{5})), 0u);
  EXPECT_EQ(pool.CodeOf(Value(10.5)), 1u);
  EXPECT_EQ(pool.CodeOf(Value("NY")), 2u);
  EXPECT_EQ(pool.CodeOf(Value(int64_t{7})), 3u);
  EXPECT_EQ(pool.CodeOf(Value("AB")), 4u);
  EXPECT_EQ(pool.CodeOf(Value("absent")), ValuePool::kAbsentCode);
  for (uint32_t c = 0; c < pool.size(); ++c) {
    EXPECT_EQ(pool.hash(c), pool.value(c).Hash());
  }
}

TEST(ValuePoolTest, InternFoldsEqualValuesToOneCode) {
  ValuePool pool(std::vector<Value>{});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const uint32_t one = pool.Intern(Value(int64_t{1}));
  EXPECT_EQ(pool.Intern(Value(1.0)), one);
  const uint32_t nan_code = pool.Intern(Value::Parse("nan"));
  EXPECT_NE(nan_code, one);
  EXPECT_EQ(pool.Intern(Value(nan)), nan_code);
  EXPECT_EQ(pool.Intern(Value(-nan)), nan_code);
  EXPECT_EQ(pool.Intern(Value(std::numeric_limits<double>::signaling_NaN())),
            nan_code);
  // 2^53 + 1 widens to 2^53, so the two ints are one value.
  const uint32_t big = pool.Intern(Value(int64_t{1} << 53));
  EXPECT_EQ(pool.Intern(Value((int64_t{1} << 53) + 1)), big);
  EXPECT_EQ(pool.Intern(Value(static_cast<double>(int64_t{1} << 53))), big);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ValuePoolTest, InternedCodesSurviveIndexGrowth) {
  // 10,000 distinct values double the hash index many times over; every
  // code must stay where Intern put it.
  ValuePool pool(std::vector<Value>{});
  std::vector<Value> values;
  for (int64_t i = 0; i < 10000; ++i) {
    values.push_back(i % 2 == 0 ? Value(i * 7919)
                                : Value("s" + std::to_string(i)));
  }
  for (uint32_t code = 0; code < values.size(); ++code) {
    ASSERT_EQ(pool.Intern(values[code]), code);
  }
  ASSERT_EQ(pool.size(), values.size());
  for (uint32_t code = 0; code < values.size(); ++code) {
    EXPECT_EQ(pool.CodeOf(values[code]), code);
    EXPECT_EQ(pool.Intern(values[code]), code);
    EXPECT_EQ(pool.hash(code), values[code].Hash());
  }
  EXPECT_EQ(pool.size(), values.size());
  EXPECT_EQ(pool.CodeOf(Value("absent")), ValuePool::kAbsentCode);
}

TEST(ValuePoolTest, EncodeColumnsPoolStaysInValueOrder) {
  // Mixed ints, doubles and strings with duplicates across partitions: the
  // pool is sorted, so a value's code is its rank and LowerBound and
  // UpperBound bracket it.
  std::mt19937_64 rng(41);
  std::vector<std::vector<Row>> parts(3);
  RowId id = 0;
  for (auto& part : parts) {
    for (int i = 0; i < 700; ++i) {
      const int64_t k = static_cast<int64_t>(rng() % 400);
      Value v = k % 3 == 0   ? Value(k)
                : k % 3 == 1 ? Value(k + 0.5)
                             : Value("v" + std::to_string(k));
      part.emplace_back(id++, std::vector<Value>{std::move(v)});
    }
  }
  ExecutionContext ctx(2);
  EncodedColumnSet set = EncodeColumns(Dataset<Row>(&ctx, parts), {{0}});
  const ValuePool& pool = *set.columns.at(0).pool;
  ASSERT_GT(pool.size(), 100u);
  for (uint32_t code = 0; code < pool.size(); ++code) {
    if (code > 0) {
      EXPECT_LT(pool.value(code - 1), pool.value(code));
    }
    EXPECT_EQ(pool.LowerBound(pool.value(code)), code);
    EXPECT_EQ(pool.UpperBound(pool.value(code)), code + 1);
  }
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t i = 0; i < parts[p].size(); ++i) {
      EXPECT_EQ(pool.value(set.columns.at(0).codes[p][i]),
                parts[p][i].value(0));
    }
  }
}

TEST(ValuePoolTest, GrowPoolMergesInValueOrderAndMapsOldCodes) {
  ValuePool base({Value(int64_t{2}), Value(int64_t{5}), Value("b")});
  std::vector<uint32_t> old_to_new;
  ValuePool grown = GrowPool(
      base,
      {Value(int64_t{3}), Value::Null(), Value(5.0), Value("a"),
       Value(int64_t{3}), Value(int64_t{9})},
      &old_to_new);
  // 2 < 3 < 5 < 9 < "a" < "b"; pooled, null and repeated values add nothing.
  ASSERT_EQ(grown.size(), 6u);
  for (uint32_t code = 1; code < grown.size(); ++code) {
    EXPECT_LT(grown.value(code - 1), grown.value(code));
  }
  EXPECT_EQ(old_to_new, (std::vector<uint32_t>{0, 2, 5}));
  for (uint32_t code = 0; code < base.size(); ++code) {
    EXPECT_EQ(grown.value(old_to_new[code]), base.value(code));
  }
}

TEST(KernelRegistryTest, CompilesDeclarativeRulesRejectsUdfAndSimilarity) {
  Table table = PaperTable();
  auto fd = *ParseRule("f: FD: zipcode -> city");
  ASSERT_TRUE(fd->Bind(table.schema()).ok());
  EXPECT_NE(KernelRegistry::Instance().Compile(*fd, table.schema()), nullptr);

  auto udf = std::make_shared<UdfRule>("u");
  EXPECT_EQ(KernelRegistry::Instance().Compile(*udf, table.schema()), nullptr);

  Predicate sim;
  sim.left_attr = "city";
  sim.op = CmpOp::kSimilar;
  sim.right_attr = "city";
  DcRule sim_rule("s", {sim});
  EXPECT_EQ(KernelRegistry::Instance().Compile(sim_rule, table.schema()),
            nullptr);
}

/// Compiles `rule` over `schema` and binds every kernel slot to `pool`.
std::unique_ptr<DetectKernel> BindKernel(const Rule& rule,
                                         const Schema& schema,
                                         const ValuePool& pool) {
  auto tmpl = KernelRegistry::Instance().Compile(rule, schema);
  EXPECT_NE(tmpl, nullptr);
  if (tmpl == nullptr) return nullptr;
  return tmpl->Bind(std::vector<const ValuePool*>(tmpl->columns().size(),
                                                  &pool));
}

/// Seeded random blocks of 0-40 tuples over `slots` code columns: each
/// block draws every cell from one code or from two (two LHS codes in one
/// block send the FD kernel to its pair loop), with or without nulls.
/// AnyMatchUpper must agree with MatchUpper on every block, and the
/// blocks must include both outcomes.
void ExpectAnyMatchAgrees(const DetectKernel& kernel, size_t slots,
                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  size_t matching = 0;
  size_t clean = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t n = rng() % 41;
    const uint32_t distinct = 1 + rng() % 2;
    const bool nulls = rng() % 2 == 0;
    std::vector<std::vector<uint32_t>> cols(slots, std::vector<uint32_t>(n));
    for (auto& col : cols) {
      for (uint32_t& code : col) {
        const bool null = nulls && rng() % 8 == 0;
        code = null ? ValuePool::kNullCode
                    : static_cast<uint32_t>(rng() % distinct);
      }
    }
    std::vector<const uint32_t*> data;
    for (const auto& col : cols) data.push_back(col.data());
    std::vector<CodeTuple> tuples;
    for (size_t i = 0; i < n; ++i) tuples.push_back({data.data(), i});
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    kernel.MatchUpper(tuples.data(), n, &pairs);
    EXPECT_EQ(kernel.AnyMatchUpper(tuples.data(), n), !pairs.empty())
        << "trial " << trial << ": " << n << " tuples, " << distinct
        << " codes, nulls " << nulls;
    ++(pairs.empty() ? clean : matching);
  }
  EXPECT_GT(matching, 0u);
  EXPECT_GT(clean, 0u);
}

/// Only Matches (an asymmetric one): the base class's batched calls run.
class AscendingKernel : public DetectKernel {
 public:
  bool Matches(const CodeTuple& t1, const CodeTuple& t2) const override {
    return t1.code(0) != ValuePool::kNullCode &&
           t2.code(0) != ValuePool::kNullCode && t1.code(0) < t2.code(0);
  }
};

TEST(KernelRegistryTest, OrderedSlotsAndConstantsComeFromTheRule) {
  const Table table = PaperTable();
  const Schema& schema = table.schema();
  auto compile = [&](const std::string& text) {
    auto tmpl = KernelRegistry::Instance().Compile(**ParseRule(text), schema);
    EXPECT_NE(tmpl, nullptr) << text;
    return tmpl;
  };
  auto column_of = [](const KernelTemplate& tmpl, uint16_t slot) {
    return tmpl.columns()[slot];
  };
  const size_t salary = *schema.IndexOf("salary");
  const size_t rate = *schema.IndexOf("rate");

  // Equality only: no slot needs value order, and no constant is bound.
  auto fd = compile("f: FD: zipcode -> city");
  EXPECT_TRUE(fd->ordered_slots().empty());
  EXPECT_TRUE(fd->constants().empty());
  auto dcb = compile("d: DC: t1.zipcode = t2.zipcode & t1.state != t2.state");
  EXPECT_TRUE(dcb->ordered_slots().empty());

  // An ordering predicate between tuples orders its column's slot.
  auto dco = compile("d: DC: t1.zipcode = t2.zipcode & t1.salary > t2.salary");
  ASSERT_EQ(dco->ordered_slots().size(), 1u);
  EXPECT_EQ(column_of(*dco, dco->ordered_slots()[0]), salary);
  EXPECT_TRUE(dco->constants().empty());

  // A range constant orders its slot; an equality constant does not, and
  // both are bound by lookup.
  auto check = compile("c: CHECK: t1.salary > 30000 & t1.rate = 10");
  ASSERT_EQ(check->ordered_slots().size(), 1u);
  EXPECT_EQ(column_of(*check, check->ordered_slots()[0]), salary);
  ASSERT_EQ(check->constants().size(), 2u);
  EXPECT_EQ(column_of(*check, check->constants()[0].slot), salary);
  EXPECT_EQ(check->constants()[0].value, Value(int64_t{30000}));
  EXPECT_EQ(column_of(*check, check->constants()[1].slot), rate);
  EXPECT_EQ(check->constants()[1].value, Value(int64_t{10}));

  // A CFD binds its pattern constants and compares codes for equality.
  auto cfd = compile("c: CFD: state=\"CA\", zipcode -> city");
  EXPECT_TRUE(cfd->ordered_slots().empty());
  ASSERT_EQ(cfd->constants().size(), 1u);
  EXPECT_EQ(column_of(*cfd, cfd->constants()[0].slot),
            *schema.IndexOf("state"));
  EXPECT_EQ(cfd->constants()[0].value, Value("CA"));
}

TEST(KernelAnyMatchUpper, AgreesWithMatchUpper) {
  const Schema schema({"a", "b", "c"});
  // Code 0 is "CA", the variable CFD's pattern constant.
  const ValuePool pool({Value("CA"), Value("NY")});
  const std::vector<std::string> specs = {
      "fd11: FD: a -> b",
      "fd21: FD: a, b -> c",
      "fd12: FD: a -> b, c",  // the provider_id -> city, phone shape
      "cfd: CFD: a=\"CA\", b -> c",
      "dcb: DC: t1.a = t2.a & t1.b != t2.b"};
  uint64_t seed = 1;
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    auto rule = ParseRule(spec);
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
    ASSERT_TRUE((*rule)->Bind(schema).ok());
    auto kernel = BindKernel(**rule, schema, pool);
    ASSERT_NE(kernel, nullptr);
    ExpectAnyMatchAgrees(*kernel, /*slots=*/3, seed++);
  }
  SCOPED_TRACE("base class default");
  ExpectAnyMatchAgrees(AscendingKernel(), /*slots=*/1, seed);
}

TEST(KernelBitEquality, FdPaperTable) {
  Table table = PaperTable();
  auto rule = *ParseRule("phiF: FD: zipcode -> city");
  ExpectBitIdentical(table, {rule});
  // The canonical result survives the kernel routing unchanged.
  auto results = RunDetect(table, {rule}, /*kernels=*/true);
  std::set<std::pair<RowId, RowId>> pairs;
  for (const auto& vf : results[0].violations) {
    auto ids = vf.violation.RowIds();
    pairs.insert({std::min(ids[0], ids[1]), std::max(ids[0], ids[1])});
  }
  EXPECT_EQ(pairs, (std::set<std::pair<RowId, RowId>>{{1, 3}, {3, 5}}));
  EXPECT_EQ(results[0].detect_calls, 3u);
}

TEST(KernelBitEquality, FdTaxWorkloadSharedScope) {
  auto data = GenerateTaxA(3000, 0.1, /*seed=*/17);
  // Two FDs sharing scope/blocking columns exercise the encode/block caches.
  ExpectBitIdentical(data.dirty, {*ParseRule("phi1: FD: zipcode -> city"),
                                  *ParseRule("phi6: FD: zipcode -> state")});
}

TEST(KernelBitEquality, BlockedSymmetricDc) {
  auto data = GenerateTaxA(1500, 0.15, /*seed=*/5);
  ExpectBitIdentical(
      data.dirty,
      {*ParseRule("dcb: DC: t1.zipcode = t2.zipcode & t1.state != t2.state")});
}

TEST(KernelBitEquality, BlockedOrderingDcUsesCrossProductOrder) {
  // Equality blocking plus an ordering predicate: the planner picks OCJoin
  // but the blocked executor enumerates ordered pairs per block — the
  // kernel must reproduce that exact (asymmetric) order.
  Table table = PaperTable();
  ExpectBitIdentical(
      table,
      {*ParseRule("dco: DC: t1.zipcode = t2.zipcode & t1.salary > t2.salary")});
}

TEST(KernelBitEquality, UnblockedDcAndCrossProductWrapper) {
  Table table = PaperTable();
  auto rule =
      *ParseRule("dcu: DC: t1.city != t2.city & t1.state != t2.state");
  ExpectBitIdentical(table, {rule});
  // Same rule through the CrossProduct wrapper (UCrossProduct disabled):
  // pair-list materialization order must survive kernelization too.
  PlannerOptions no_ucross;
  no_ucross.enable_ucross_product = false;
  ExpectBitIdentical(table, {rule}, /*expect_kernel=*/true, 4, no_ucross);
  // And with blocking disabled entirely for an FD (unblocked FD path).
  PlannerOptions no_block;
  no_block.enable_blocking = false;
  ExpectBitIdentical(table, {*ParseRule("f: FD: zipcode -> city")},
                     /*expect_kernel=*/true, 4, no_block);
}

TEST(KernelBitEquality, CheckRuleSinglePath) {
  Table table = PaperTable();
  ExpectBitIdentical(
      table, {*ParseRule("chk: CHECK: t1.salary > 30000 & t1.rate < 27")});
}

TEST(KernelBitEquality, VariableAndConstantCfd) {
  Table table = PaperTable();
  // Variable CFD: within state = CA, zipcode -> city.
  auto variable = std::make_shared<CfdRule>(
      "cfd_var",
      std::vector<CfdPatternAttr>{{"state", Value("CA")},
                                  {"zipcode", std::nullopt}},
      CfdPatternAttr{"city", std::nullopt});
  // Constant CFD: zipcode 90210 implies city LA (Mark/SF violates).
  auto constant = std::make_shared<CfdRule>(
      "cfd_const",
      std::vector<CfdPatternAttr>{{"zipcode", Value(int64_t{90210})}},
      CfdPatternAttr{"city", Value("LA")});
  ExpectBitIdentical(table, {variable, constant});
  auto results = RunDetect(table, {constant}, /*kernels=*/true);
  ASSERT_EQ(results[0].violations.size(), 1u);  // Mark only
  EXPECT_EQ(results[0].violations[0].violation.cells[0].ref.row_id, 3);
}

TEST(KernelBitEquality, NullKeysEmptyAndSingleRowBlocks) {
  Table table = NullTable();
  ExpectBitIdentical(table, {*ParseRule("f: FD: zipcode -> city"),
                             *ParseRule("g: FD: zipcode -> state"),
                             *ParseRule("h: FD: city -> state")});
  // Empty input: zero blocks everywhere.
  Table empty =
      *ReadCsvString("name,zipcode,city,state\n", CsvOptions{});
  ExpectBitIdentical(empty, {*ParseRule("f: FD: zipcode -> city")});
}

TEST(KernelBitEquality, ConstantsAbsentNullAndRanges) {
  Table table = PaperTable();
  // Range constant between two pooled values, an absent equality constant,
  // and a never-true null constant.
  Predicate range;  // t1.salary >= 30000 (range bound in code space)
  range.left_attr = "salary";
  range.op = CmpOp::kGeq;
  range.right_is_constant = true;
  range.constant = Value(int64_t{30000});
  Predicate block;  // t1.zipcode = t2.zipcode
  block.left_attr = "zipcode";
  block.op = CmpOp::kEq;
  block.right_attr = "zipcode";
  Predicate neq;  // t1.city != t2.city
  neq.left_attr = "city";
  neq.op = CmpOp::kNeq;
  neq.right_attr = "city";
  auto ranged = std::make_shared<DcRule>(
      "ranged", std::vector<Predicate>{range, block, neq});

  Predicate absent = range;  // = 12345 appears nowhere in the data
  absent.op = CmpOp::kEq;
  absent.constant = Value(int64_t{12345});
  auto absent_rule = std::make_shared<DcRule>(
      "absent", std::vector<Predicate>{absent, block, neq});

  Predicate null_const = range;  // null constant: statically false
  null_const.constant = Value::Null();
  auto never_rule = std::make_shared<DcRule>(
      "never", std::vector<Predicate>{null_const, block, neq});

  ExpectBitIdentical(table, {ranged, absent_rule, never_rule});
  auto results = RunDetect(table, {absent_rule, never_rule}, true);
  EXPECT_TRUE(results[0].violations.empty());
  EXPECT_TRUE(results[1].violations.empty());
}

TEST(KernelBitEquality, IntsBeyondTwoToThe53AgreeWithNadeef) {
  // 2^53 and 2^53 + 1 compare equal (Compare widens ints to doubles), so
  // rows 2 and 3 share their `a` and violate a -> b, while rows 0 and 1
  // agree on `b`. Two workers cut the four rows into four partitions, so
  // the two large `a` values are pooled from different partitions.
  const char* csv =
      "a,b\n"
      "1,9007199254740992\n"
      "1,9007199254740993\n"
      "9007199254740992,7\n"
      "9007199254740993,8\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE(table->row(3).value(0).is_int());
  auto rule = *ParseRule("fd: FD: a -> b");

  auto nadeef = NadeefDetect(*table, rule);
  ASSERT_TRUE(nadeef.ok()) << nadeef.status().ToString();
  ASSERT_EQ(nadeef->violations.size(), 1u);
  auto ids = nadeef->violations[0].violation.RowIds();
  EXPECT_EQ(std::set<RowId>(ids.begin(), ids.end()), (std::set<RowId>{2, 3}));

  ExpectBitIdentical(*table, {rule}, /*expect_kernel=*/true, /*workers=*/2);
  for (bool kernels : {true, false}) {
    auto results = RunDetect(*table, {rule}, kernels, /*workers=*/2);
    ASSERT_EQ(results[0].violations.size(), 1u) << "kernels " << kernels;
    ids = results[0].violations[0].violation.RowIds();
    EXPECT_EQ(std::set<RowId>(ids.begin(), ids.end()),
              (std::set<RowId>{2, 3}));
  }
}

TEST(KernelBitEquality, UdfDedupStaysInterpreted) {
  DedupData data = GenerateCustomerDedup(300, 2, 0.05, /*seed=*/3);
  auto dedup = std::make_shared<UdfRule>("dedup");
  dedup->set_relevant_attributes({"name", "address", "phone"})
      .set_blocking_attributes({"address"})
      .set_symmetric(true)
      .set_detect([](const Schema& schema, const Row& a, const Row& b,
                     std::vector<Violation>* out) {
        // Detect sees the scoped schema — resolve columns by name.
        size_t name_col = *schema.IndexOf("name");
        size_t phone_col = *schema.IndexOf("phone");
        if (a.value(name_col) == b.value(name_col) &&
            a.value(phone_col) == b.value(phone_col)) {
          Violation v;
          v.rule_name = "dedup";
          v.cells.push_back(UdfRule::MakeUdfCell(a, name_col, schema));
          v.cells.push_back(UdfRule::MakeUdfCell(b, name_col, schema));
          out->push_back(std::move(v));
        }
      });
  // UDF rules have no kernel compiler: identical by construction, and the
  // kernels-on run must NOT carry the kernel marker.
  ExpectBitIdentical(data.table, {dedup}, /*expect_kernel=*/false);
}

TEST(KernelBitEquality, UnderInjectedFaults) {
  struct InjectorGuard {
    ~InjectorGuard() {
      FaultInjector::Instance().Clear();
      FaultInjector::Instance().set_site_tracking(false);
      FaultInjector::Instance().ClearSeenSites();
    }
  } guard;
  auto data = GenerateTaxA(800, 0.1, /*seed=*/23);
  std::vector<RulePtr> rules = {*ParseRule("phi1: FD: zipcode -> city")};

  auto fault_free = RunDetect(data.dirty, rules, /*kernels=*/true);
  auto interp = RunDetect(data.dirty, rules, /*kernels=*/false);

  ASSERT_TRUE(FaultInjector::Instance()
                  .Configure("stage=*,kind=throw,prob=0.05", /*seed=*/13)
                  .ok());
  auto faulted = RunDetect(data.dirty, rules, /*kernels=*/true);
  FaultInjector::Instance().Clear();

  EXPECT_EQ(DetectFingerprint(faulted[0]), DetectFingerprint(fault_free[0]));
  EXPECT_EQ(DetectFingerprint(faulted[0]), DetectFingerprint(interp[0]));
  EXPECT_EQ(faulted[0].detect_calls, interp[0].detect_calls);
}

TEST(KernelBitEquality, CleanFixpointByteIdentical) {
  auto data = GenerateTaxA(600, 0.1, /*seed=*/29);
  std::vector<RulePtr> rules = {*ParseRule("phi1: FD: zipcode -> city"),
                                *ParseRule("phi6: FD: zipcode -> state")};
  std::string with_kernels;
  {
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(true);
    BigDansing system(&ctx);
    Table working = data.dirty;
    auto report = system.Clean(&working, rules);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    with_kernels = TableFingerprint(working);
  }
  std::string interpreted;
  {
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(false);
    BigDansing system(&ctx);
    Table working = data.dirty;
    auto report = system.Clean(&working, rules);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    interpreted = TableFingerprint(working);
  }
  EXPECT_EQ(with_kernels, interpreted);
}

TEST(KernelStages, ReportedWithKernelPrefixOnlyWhenEnabled) {
  Table table = PaperTable();
  auto rule = *ParseRule("phiF: FD: zipcode -> city");
  auto has_kernel_stage = [](const Metrics& metrics) {
    for (const auto& report : metrics.StageReports()) {
      if (report.name.rfind("kernel:", 0) == 0) return true;
    }
    return false;
  };
  {
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(true);
    RuleEngine engine(&ctx);
    ASSERT_TRUE(engine.Detect(table, rule).ok());
    EXPECT_TRUE(has_kernel_stage(ctx.metrics()));
  }
  {
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(false);
    RuleEngine engine(&ctx);
    ASSERT_TRUE(engine.Detect(table, rule).ok());
    EXPECT_FALSE(has_kernel_stage(ctx.metrics()));
  }

  // Without a kernel, a scoped rule still reads the table in place: each
  // unit's detect-schema row is built on demand inside the block and
  // iterate stages, so no stage projects the table first.
  auto udf = std::make_shared<UdfRule>("u");
  udf->set_relevant_attributes({"zipcode", "city"})
      .set_block_key([](const Schema& schema, const Row& row) {
        return row.value(*schema.IndexOf("zipcode"));
      })
      .set_detect([](const Schema& schema, const Row& a, const Row& b,
                     std::vector<Violation>* out) {
        const size_t city = *schema.IndexOf("city");
        if (a.value(city) == b.value(city)) return;
        Violation v;
        v.rule_name = "u";
        v.cells.push_back(UdfRule::MakeUdfCell(a, city, schema));
        v.cells.push_back(UdfRule::MakeUdfCell(b, city, schema));
        out->push_back(std::move(v));
      });
  for (const RulePtr& scoped : {rule, RulePtr(udf)}) {
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(false);
    RuleEngine engine(&ctx);
    auto result = engine.Detect(table, scoped);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->violations.size(), 2u) << scoped->name();
    for (const auto& report : ctx.metrics().StageReports()) {
      EXPECT_EQ(report.name.find("scope"), std::string::npos)
          << scoped->name() << " ran " << report.name;
    }
  }

  // A changed-rows request reads the table in place too, through the
  // single, blocked and unblocked stages, and binds no kernel whatever the
  // switch says: a kernel's codes would cover the whole table.
  const std::unordered_set<RowId> changed = {1, 3};
  for (const RulePtr& scoped :
       {rule, RulePtr(udf), *ParseRule("chk: CHECK: t1.salary < 30000"),
        *ParseRule("phiD: DC: t1.rate > t2.rate & t1.salary < t2.salary")}) {
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(true);
    RuleEngine engine(&ctx);
    DetectRequest request;
    request.table = &table;
    request.rules = {scoped};
    request.changed_rows = &changed;
    auto result = engine.Detect(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(has_kernel_stage(ctx.metrics())) << scoped->name();
    for (const auto& report : ctx.metrics().StageReports()) {
      EXPECT_EQ(report.name.find("scope"), std::string::npos)
          << scoped->name() << " ran " << report.name;
    }
  }
}

}  // namespace
}  // namespace bigdansing
