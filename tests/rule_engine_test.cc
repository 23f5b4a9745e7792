#include "core/rule_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/hash.h"
#include "data/csv.h"
#include "datagen/datagen.h"
#include "rules/parser.h"
#include "rules/similarity.h"
#include "rules/udf_rule.h"
#include "join_test_util.h"

namespace bigdansing {
namespace {

/// The running example of the paper (Table 1), with numbers adjusted so the
/// described violations hold exactly.
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

/// Unordered row-id pair set of a detection result.
std::set<std::pair<RowId, RowId>> PairSet(const DetectionResult& result) {
  std::set<std::pair<RowId, RowId>> pairs;
  for (const auto& vf : result.violations) {
    auto ids = vf.violation.RowIds();
    EXPECT_EQ(ids.size(), 2u);
    RowId a = std::min(ids[0], ids[1]);
    RowId b = std::max(ids[0], ids[1]);
    pairs.insert({a, b});
  }
  return pairs;
}

TEST(RuleEngine, FdDetectsPaperViolations) {
  Table table = PaperTable();
  auto rule = ParseRule("phiF: FD: zipcode -> city");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(table, *rule);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // zipcode 90210 block: {t1=Laure(LA), t3=Mark(SF), t5=Mary(LA)} (0-based
  // ids 1, 3, 5). Violations: (1,3) and (3,5); (1,5) agree on city.
  std::set<std::pair<RowId, RowId>> expected = {{1, 3}, {3, 5}};
  EXPECT_EQ(PairSet(*result), expected);
  // Blocking means only the 3 pairs inside the 90210 block are probed.
  EXPECT_EQ(result->detect_calls, 3u);
}

TEST(RuleEngine, FdGenFixEquatesCities) {
  Table table = PaperTable();
  auto rule = ParseRule("phiF: FD: zipcode -> city");
  ASSERT_TRUE(rule.ok());
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(table, *rule);
  ASSERT_TRUE(result.ok());
  for (const auto& vf : result->violations) {
    ASSERT_EQ(vf.fixes.size(), 1u);
    const Fix& fix = vf.fixes[0];
    EXPECT_EQ(fix.op, FixOp::kEq);
    EXPECT_EQ(fix.left.attribute, "city");
    ASSERT_TRUE(fix.right.is_cell);
    EXPECT_EQ(fix.right.cell.attribute, "city");
    // Cells must reference the original column index of `city` (2).
    EXPECT_EQ(fix.left.ref.column, 2u);
  }
}

TEST(RuleEngine, DcMatchesBruteForce) {
  Table table = PaperTable();
  auto rule = ParseRule("phiD: DC: t1.rate > t2.rate & t1.salary < t2.salary");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(table, *rule);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Reference: brute-force ordered pairs.
  std::set<std::pair<RowId, RowId>> expected;
  for (const auto& a : table.rows()) {
    for (const auto& b : table.rows()) {
      if (a.id() == b.id()) continue;
      double ra = a.value(5).AsNumber(), rb = b.value(5).AsNumber();
      double sa = a.value(4).AsNumber(), sb = b.value(4).AsNumber();
      if (ra > rb && sa < sb) {
        expected.insert({std::min(a.id(), b.id()), std::max(a.id(), b.id())});
      }
    }
  }
  // The paper's example: (t1, t2) and (t2, t5) violate φD.
  EXPECT_TRUE(expected.count({0, 1}));
  EXPECT_TRUE(expected.count({1, 4}));
  EXPECT_EQ(PairSet(*result), expected);
  // OCJoin was selected.
  EXPECT_NE(result->plan_description.find("OCJoin"),
            std::string::npos);
}

TEST(RuleEngine, DcGenFixNegatesPredicates) {
  Table table = PaperTable();
  auto rule = ParseRule("phiD: DC: t1.rate > t2.rate & t1.salary < t2.salary");
  ASSERT_TRUE(rule.ok());
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(table, *rule);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->violations.empty());
  for (const auto& vf : result->violations) {
    ASSERT_EQ(vf.fixes.size(), 2u);
    EXPECT_EQ(vf.fixes[0].op, FixOp::kLeq);  // negation of >
    EXPECT_EQ(vf.fixes[1].op, FixOp::kGeq);  // negation of <
  }
}

TEST(RuleEngine, UdfDedupWithBlocking) {
  const char* csv =
      "name,phone\n"
      "john smith,555-1234\n"
      "jon smith,555-1234\n"
      "mary jones,555-9999\n"
      "completely different,111-0000\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  ASSERT_TRUE(table.ok());
  auto rule = std::make_shared<UdfRule>("dedup");
  rule->set_symmetric(true)
      .set_block_key([](const Schema& schema, const Row& row) {
        // Block on the first character of the name.
        std::string name = row.value(0).ToString();
        return name.empty() ? Value() : Value(name.substr(0, 1));
      })
      .set_detect([](const Schema& schema, const Row& a, const Row& b,
                     std::vector<Violation>* out) {
        if (LevenshteinSimilarity(a.value(0).ToString(),
                                  b.value(0).ToString()) >= 0.8) {
          Violation v;
          v.rule_name = "dedup";
          v.cells.push_back(UdfRule::MakeUdfCell(a, 0, schema));
          v.cells.push_back(UdfRule::MakeUdfCell(b, 0, schema));
          out->push_back(std::move(v));
        }
      })
      .set_gen_fix([](const Schema& schema, const Violation& v,
                      std::vector<Fix>* out) {
        Fix fix;
        fix.left = v.cells[0];
        fix.op = FixOp::kEq;
        fix.right = FixTerm::MakeCell(v.cells[1]);
        out->push_back(std::move(fix));
      });
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(*table, rule);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->violations.size(), 1u);
  auto ids = result->violations[0].violation.RowIds();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RowId>{0, 1}));
  // Only the j-block pair was probed (blocking pruned the rest).
  EXPECT_EQ(result->detect_calls, 1u);
}

TEST(RuleEngine, SameNamedUdfRulesKeepTheirOwnBlocks) {
  // Two UDF rules named alike, one keyed on a and one on b, each reporting
  // every candidate pair: each is detected inside its own blocks, alone or
  // after the other in one request.
  auto table = ReadCsvString("a,b\n1,x\n1,y\n2,x\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  auto keyed_on = [](size_t column) {
    auto rule = std::make_shared<UdfRule>("u");
    rule->set_symmetric(true)
        .set_block_key([column](const Schema&, const Row& row) {
          return row.value(column);
        })
        .set_detect([](const Schema& schema, const Row& a, const Row& b,
                       std::vector<Violation>* out) {
          Violation v;
          v.rule_name = "u";
          v.cells.push_back(UdfRule::MakeUdfCell(a, 0, schema));
          v.cells.push_back(UdfRule::MakeUdfCell(b, 0, schema));
          out->push_back(std::move(v));
        });
    return rule;
  };
  const RulePtr by_a = keyed_on(0);
  const RulePtr by_b = keyed_on(1);
  const std::set<std::pair<RowId, RowId>> a_pairs = {{0, 1}};
  const std::set<std::pair<RowId, RowId>> b_pairs = {{0, 2}};
  for (bool kernels : {true, false}) {
    ExecutionContext ctx(2);
    ctx.set_kernels_enabled(kernels);
    RuleEngine engine(&ctx);
    auto alone = engine.Detect(*table, by_b);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    EXPECT_EQ(PairSet(*alone), b_pairs);
    DetectRequest request;
    request.table = &*table;
    request.rules = {by_a, by_b};
    auto both = engine.Detect(request);
    ASSERT_TRUE(both.ok()) << both.status().ToString();
    EXPECT_EQ(PairSet((*both)[0]), a_pairs);
    EXPECT_EQ(PairSet((*both)[1]), b_pairs)
        << "kernels " << (kernels ? "on" : "off");
  }
}

TEST(RuleEngine, CheckRuleSingleUnit) {
  const char* csv = "salary,rate\n100,5\n-50,3\n200,0\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  ASSERT_TRUE(table.ok());
  auto rule = ParseRule("nonneg: CHECK: t1.salary < 0");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto result = engine.Detect(*table, *rule);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->violations.size(), 1u);
  EXPECT_EQ(result->violations[0].violation.cells[0].ref.row_id, 1);
  ASSERT_EQ(result->violations[0].fixes.size(), 1u);
  EXPECT_EQ(result->violations[0].fixes[0].op, FixOp::kGeq);
}

TEST(RuleEngine, CrossTableCoBlock) {
  // The paper's DC (1): same name+phone across tables implies same city.
  const char* customers =
      "c_name,c_phone,c_city\n"
      "acme,111,NYC\n"
      "blue,222,LA\n"
      "core,333,SF\n";
  const char* suppliers =
      "s_name,s_phone,s_city\n"
      "acme,111,BOSTON\n"
      "blue,222,LA\n"
      "delta,444,SF\n";
  auto left = ReadCsvString(customers, CsvOptions{});
  auto right = ReadCsvString(suppliers, CsvOptions{});
  ASSERT_TRUE(left.ok() && right.ok());
  auto parsed = ParseRule(
      "dc1: DC: t1.c_name = t2.s_name & t1.c_phone = t2.s_phone & "
      "t1.c_city != t2.s_city");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto dc = std::dynamic_pointer_cast<DcRule>(*parsed);
  ASSERT_NE(dc, nullptr);
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  DetectRequest request;
  request.table = &*left;
  request.right = &*right;
  request.rules = {dc};
  auto results = engine.Detect(request);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const DetectionResult& result = results->front();
  // Only (acme, acme) has equal name+phone but different city.
  ASSERT_EQ(result.violations.size(), 1u);
  // CoBlock limits probes to co-blocks: acme-acme and blue-blue.
  EXPECT_EQ(result.detect_calls, 2u);
}

TEST(RuleEngine, CrossTableWithoutLinkPairsInPlace) {
  // A two-table DC with no equality link pairs every left row with every
  // right row where the rows live: no stage materializes the pairs or
  // broadcasts the right table, so the stages allocate little beyond the
  // violations.
  const Table left = GenerateTaxB(2000, 0.1, /*seed=*/21).dirty;
  const Table right = GenerateTaxB(2000, 0.1, /*seed=*/22).dirty;
  auto dc = std::dynamic_pointer_cast<DcRule>(
      *ParseRule("x: DC: t1.salary > t2.salary & t1.rate < t2.rate"));
  ASSERT_NE(dc, nullptr);
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  DetectRequest request;
  request.table = &left;
  request.right = &right;
  request.rules = {dc};
  auto results = engine.Detect(request);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_GT(results->front().violations.size(), 0u);
  EXPECT_EQ(results->front().detect_calls, 2000u * 2000u);
  EXPECT_EQ(ctx.metrics().pairs_enumerated(), 2000u * 2000u);
  EXPECT_EQ(ctx.metrics().shuffled_records(), 0u);
  uint64_t alloc_bytes = 0;
  for (const auto& report : ctx.metrics().StageReports()) {
    EXPECT_EQ(report.name.find("cartesian"), std::string::npos)
        << report.name;
    alloc_bytes += report.alloc_bytes;
  }
  EXPECT_LT(alloc_bytes, uint64_t{64} << 20);
}

TEST(RuleEngine, StrategiesAgreeOnViolationSet) {
  Table table = PaperTable();
  ExecutionContext ctx(3);
  auto make_rule = [] {
    return *ParseRule("phiD: DC: t1.rate > t2.rate & t1.salary < t2.salary");
  };

  PlannerOptions with_ocjoin;
  PlannerOptions no_ocjoin;
  no_ocjoin.enable_ocjoin = false;
  PlannerOptions nothing;
  nothing.enable_ocjoin = false;
  nothing.enable_ucross_product = false;
  nothing.enable_blocking = false;
  nothing.enable_scope = false;

  auto run = [&](const PlannerOptions& opts) {
    RuleEngine engine(&ctx, opts);
    auto result = engine.Detect(table, make_rule());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return PairSet(*result);
  };
  auto a = run(with_ocjoin);
  auto b = run(no_ocjoin);
  auto c = run(nothing);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a.empty());
}

TEST(RuleEngine, DetectInPlaceKeepsViolationOrder) {
  // Detect reads the table through a view cut on FromVector's partition
  // boundaries, so every rule shape must emit the violations, in the order,
  // of the engine that copied the table into a dataset first. The expected
  // fingerprints were recorded from that engine. Sizes: empty, one row,
  // one row short of the 8 partitions of 4 workers (a trailing partition
  // stays empty), and 10 * 8 + 3 rows.
  struct Case {
    const char* rule;
    bool iejoin;
  };
  const std::vector<Case> cases = {
      {"fd: FD: zipcode -> city", false},
      {"cfd: CFD: state=\"AL\", zipcode -> city", false},
      {"chk: CHECK: t1.salary < 40000", false},
      {"oc: DC: t1.salary > t2.salary & t1.rate < t2.rate", false},
      {"ie: DC: t1.salary > t2.salary & t1.rate < t2.rate", true},
  };
  const std::vector<size_t> sizes = {0, 1, 7, 83};
  // expected[case][size]: the hashed order-sensitive fingerprint (every
  // violation's rule, cells and candidate fixes, in stream order).
  const uint64_t kEmpty = 0x14650fb0739d0383ULL;
  const uint64_t expected[5][4] = {
      {kEmpty, kEmpty, 0x81caeeb131b4a57bULL, 0xdf942835aae9609cULL},
      {kEmpty, kEmpty, 0x371292da904319f2ULL, 0xf1c2fc525b1983c7ULL},
      {kEmpty, kEmpty, 0x8781bd19970cc6edULL, 0x560f71c86d8d769bULL},
      {kEmpty, kEmpty, 0x528129773863cf2aULL, 0x2368f0a6c9921918ULL},
      {kEmpty, kEmpty, 0x3dfb9b5270e57346ULL, 0x9e8ac5a47c2ec738ULL},
  };

  for (size_t s = 0; s < sizes.size(); ++s) {
    // The DC cases read TaxB, whose rates break the salary order.
    const Table tax_a = GenerateTaxA(sizes[s], 0.5, /*seed=*/5).dirty;
    const Table tax_b = GenerateTaxB(sizes[s], 0.2, /*seed=*/5).dirty;
    for (size_t c = 0; c < cases.size(); ++c) {
      const bool dc = c >= 3;
      PlannerOptions options;
      options.use_iejoin = cases[c].iejoin;
      for (bool kernels : {true, false}) {
        ExecutionContext ctx(4);
        ctx.set_kernels_enabled(kernels);
        RuleEngine engine(&ctx, options);
        auto result =
            engine.Detect(dc ? tax_b : tax_a, *ParseRule(cases[c].rule));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // The table counts as read once; a join's pairs are its output,
        // not records read.
        EXPECT_EQ(ctx.metrics().records_read(), sizes[s]);
        EXPECT_EQ(StableHashBytes(join_test::DetectFingerprint(*result)),
                  expected[c][s])
            << cases[c].rule << ", " << sizes[s] << " rows, kernels "
            << (kernels ? "on" : "off");
      }
    }
  }

  // Rules and requests that never take a kernel, kernels on or off: a UDF
  // rule with a scope and a procedural block key, a similarity DC, the
  // changed-rows requests of a blocked FD, a scoped CHECK and an unblocked
  // ordering DC, the storage-pushdown request of a blocked FD, and
  // two-table DCs with and without an equality link. Their expected
  // fingerprints were recorded from the engine that copied the table (both
  // tables of a two-table request) into a dataset, projected it and
  // shuffled whole rows for them.
  auto udf = std::make_shared<UdfRule>("udf");
  udf->set_symmetric(false)
      .set_relevant_attributes({"zipcode", "city"})
      .set_block_key([](const Schema& schema, const Row& row) {
        return row.value(*schema.IndexOf("zipcode"));
      })
      .set_detect([](const Schema& schema, const Row& a, const Row& b,
                     std::vector<Violation>* out) {
        // One violation per unordered pair of differing cities, in the
        // orientation that puts the smaller city first.
        const size_t city = *schema.IndexOf("city");
        if (!(a.value(city) < b.value(city))) return;
        Violation v;
        v.rule_name = "udf";
        v.cells.push_back(UdfRule::MakeUdfCell(a, city, schema));
        v.cells.push_back(UdfRule::MakeUdfCell(b, city, schema));
        out->push_back(std::move(v));
      })
      .set_gen_fix([](const Schema&, const Violation& v,
                      std::vector<Fix>* out) {
        Fix fix;
        fix.left = v.cells[1];
        fix.op = FixOp::kEq;
        fix.right = FixTerm::MakeCell(v.cells[0]);
        out->push_back(std::move(fix));
      });
  const RulePtr fd = *ParseRule("fd: FD: zipcode -> city");
  enum class Shape { kTable, kChangedRows, kStorage, kAcross };
  struct RequestCase {
    const char* label;
    RulePtr rule;
    Shape shape;
    // Reads TaxB, whose rates break the salary order, instead of TaxA.
    bool tax_b = false;
  };
  const std::vector<RequestCase> requests = {
      {"udf", udf, Shape::kTable},
      {"similarity dc",
       *ParseRule("sim: DC: t1.zipcode = t2.zipcode & t1.name ~0.6 t2.name & "
                  "t1.city != t2.city"),
       Shape::kTable},
      {"changed-rows fd", fd, Shape::kChangedRows},
      {"storage-pushdown fd", fd, Shape::kStorage},
      {"changed-rows check", *ParseRule(cases[2].rule), Shape::kChangedRows},
      {"changed-rows ordering dc", *ParseRule(cases[3].rule),
       Shape::kChangedRows, true},
      {"two-table coblock dc",
       *ParseRule("xco: DC: t1.zipcode = t2.zipcode & t1.city != t2.city"),
       Shape::kAcross},
      {"two-table dc without a link", *ParseRule(cases[3].rule),
       Shape::kAcross, true},
  };
  const uint64_t expected_requests[8][4] = {
      {kEmpty, kEmpty, 0xb15b1bb01216508cULL, 0x917c13f6d50d11b0ULL},
      {kEmpty, kEmpty, 0xdf83a752897191ccULL, 0x2f7ff3fd81570ff6ULL},
      {kEmpty, kEmpty, 0x81caeeb131b4a57bULL, 0x0fb4ccddd4f10121ULL},
      {kEmpty, kEmpty, 0x81caeeb131b4a57bULL, 0xa751178e21b461e6ULL},
      {kEmpty, kEmpty, kEmpty, kEmpty},
      {kEmpty, kEmpty, kEmpty, 0xf54e91a291edce4dULL},
      {kEmpty, kEmpty, 0x71c5d39b60a9ed69ULL, 0x5ea833e7d8ac1593ULL},
      {kEmpty, kEmpty, 0x528129773863cf2aULL, 0xb2a7e3a0a705fc07ULL},
  };

  for (size_t s = 0; s < sizes.size(); ++s) {
    const Table tax_b = GenerateTaxB(sizes[s], 0.2, /*seed=*/5).dirty;
    // The right-hand tables of the two-table requests.
    const Table right_a = GenerateTaxA(sizes[s], 0.5, /*seed=*/6).dirty;
    const Table right_b = GenerateTaxB(sizes[s], 0.2, /*seed=*/6).dirty;
    Table tax_a = GenerateTaxA(sizes[s], 0.5, /*seed=*/5).dirty;
    // Names a few edits apart, so the similarity predicate holds on some
    // pairs and not on others.
    for (size_t i = 0; i < tax_a.num_rows(); ++i) {
      tax_a.mutable_row(i).set_value(
          0, Value(std::string(i % 3 == 0 ? "annie" : "anna") +
                   std::string(i % 5, 'x')));
    }
    std::unordered_set<RowId> changed;
    for (const Row& row : tax_a.rows()) {
      if (row.id() % 17 == 5) changed.insert(row.id());
    }
    StorageManager storage;
    ASSERT_TRUE(storage.Store("taxa", tax_a, "zipcode", 8).ok());
    for (size_t c = 0; c < requests.size(); ++c) {
      const Shape shape = requests[c].shape;
      for (bool kernels : {true, false}) {
        ExecutionContext ctx(4);
        ctx.set_kernels_enabled(kernels);
        RuleEngine engine(&ctx);
        DetectRequest request;
        request.rules = {requests[c].rule};
        if (shape == Shape::kStorage) {
          request.storage = &storage;
          request.dataset = "taxa";
        } else {
          request.table = requests[c].tax_b ? &tax_b : &tax_a;
        }
        if (shape == Shape::kChangedRows) request.changed_rows = &changed;
        if (shape == Shape::kAcross) {
          request.right = requests[c].tax_b ? &right_b : &right_a;
        }
        auto result = engine.Detect(request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Each table counts as read once; an empty changed-row set returns
        // before reading the table.
        EXPECT_EQ(ctx.metrics().records_read(),
                  shape == Shape::kChangedRows && changed.empty() ? 0
                  : shape == Shape::kAcross                       ? 2 * sizes[s]
                                                                  : sizes[s]);
        EXPECT_EQ(
            StableHashBytes(join_test::DetectFingerprint((*result)[0])),
            expected_requests[c][s])
            << requests[c].label << ", " << sizes[s] << " rows, kernels "
            << (kernels ? "on" : "off");
      }
    }
  }
}

}  // namespace
}  // namespace bigdansing
