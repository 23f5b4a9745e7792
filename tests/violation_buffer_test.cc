// The violation buffer against the object form it replaces inside the
// fix-point: on seeded tables with nulls, duplicates and skewed keys, every
// rule shape's buffer reads back as exactly the violations and fixes
// Rule::Detect/GenFix build (kernels on and off, against the brute-force
// NADEEF detection), and repairing the fix-point's buffer gives the same
// assignments and provenance as the public Repair entry on the objects.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "baselines/nadeef_baseline.h"
#include "common/lineage.h"
#include "core/rule_engine.h"
#include "data/table.h"
#include "dataflow/context.h"
#include "repair/blackbox.h"
#include "repair/strategy.h"
#include "rules/fd_rule.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"
#include "rules/violation_buffer.h"
#include "join_test_util.h"

namespace bigdansing {
namespace {

using join_test::DetectFingerprint;
using join_test::ViolationFingerprint;

/// Columns key (Zipf-skewed small ints, some null), tag (a few strings,
/// some null), num (ints and doubles, some null, duplicates), note
/// (strings). Row ids run 100, 101, ... so they differ from positions.
Table RandomTable(uint64_t seed, size_t rows) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Table table(Schema({"key", "tag", "num", "note"}));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> values(4);
    // Skew: key k with probability ~ 1 / (k + 1).
    const double u = unit(rng);
    const int64_t key = static_cast<int64_t>(std::floor(std::pow(8.0, u))) - 1;
    if (unit(rng) > 0.08) values[0] = Value(key);
    static const char* kTags[] = {"AL", "CA", "NY", "x"};
    if (unit(rng) > 0.1) values[1] = Value(kTags[rng() % 4]);
    const int64_t n = static_cast<int64_t>(rng() % 7) - 2;
    if (unit(rng) > 0.1) {
      values[2] = unit(rng) < 0.3 ? Value(static_cast<double>(n) + 0.5)
                                  : Value(n);
    }
    values[3] = Value("n" + std::to_string(rng() % 3));
    table.AppendRowWithId(Row(100 + static_cast<RowId>(r), std::move(values)));
  }
  return table;
}

/// A UDF whose fix names a cell its violation does not hold, and whose
/// cells carry values the table does not: within one key, t1 violates
/// against t2 when t1.num < t2.num. The violation holds t1.tag rendered as
/// "seen:<tag>" and t1.num; the fixes are t1.note (valued "left-note") =
/// t1.num, and t1.num >= 0.
RulePtr OffTableUdf() {
  auto rule = std::make_shared<UdfRule>("udf");
  rule->set_relevant_attributes({"key", "tag", "num", "note"})
      .set_blocking_attributes({"key"})
      .set_symmetric(false)
      .set_detect([](const Schema& schema, const Row& a, const Row& b,
                     std::vector<Violation>* out) {
        const size_t key = *schema.IndexOf("key");
        const size_t num = *schema.IndexOf("num");
        if (a.value(key).is_null() || a.value(key) != b.value(key) ||
            a.value(num).is_null() || b.value(num).is_null() ||
            !(a.value(num) < b.value(num))) {
          return;
        }
        Violation v;
        v.rule_name = "udf-off-table";
        Cell tag = UdfRule::MakeUdfCell(a, *schema.IndexOf("tag"), schema);
        tag.value = Value("seen:" + tag.value.ToString());
        v.cells.push_back(std::move(tag));
        v.cells.push_back(UdfRule::MakeUdfCell(a, num, schema));
        out->push_back(std::move(v));
      })
      .set_gen_fix([](const Schema& schema, const Violation& v,
                      std::vector<Fix>* out) {
        const RowId t1 = v.cells[0].ref.row_id;
        Fix fix;
        fix.left.ref = CellRef{t1, *schema.IndexOf("note")};
        fix.left.attribute = "note";
        fix.left.value = Value("left-note");
        fix.op = FixOp::kEq;
        fix.right = FixTerm::MakeCell(v.cells[1]);
        out->push_back(std::move(fix));
        Fix bound;
        bound.left = v.cells[1];
        bound.op = FixOp::kGeq;
        bound.right = FixTerm::MakeConstant(Value(int64_t{0}));
        out->push_back(std::move(bound));
      });
  return rule;
}

std::vector<RulePtr> Rules() {
  auto fd = std::make_shared<FdRule>("fd2", std::vector<std::string>{"key"},
                                     std::vector<std::string>{"tag", "num"});
  fd->set_generate_lhs_fixes(true);
  return {
      fd,
      *ParseRule("dc: DC: t1.key = t2.key & t1.num > t2.num & t1.num > 1"),
      *ParseRule("cfdv: CFD: tag=\"CA\", key -> note"),
      *ParseRule("cfdc: CFD: key=1 -> tag=\"NY\""),
      *ParseRule("chk: CHECK: t1.num < 0"),
      OffTableUdf(),
  };
}

/// The violations re-read through a buffer built from them.
std::string RoundTrip(const std::vector<ViolationWithFixes>& violations) {
  const ViolationBuffer buffer = ViolationBuffer::FromObjects(violations);
  DetectionResult out;
  out.violations.resize(buffer.size());
  for (size_t v = 0; v < buffer.size(); ++v) {
    buffer.ToObject(v, &out.violations[v]);
  }
  return DetectFingerprint(out);
}

class ViolationBufferDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViolationBufferDifferential, ReadsBackAsRuleDetectAndGenFix) {
  const Table table = RandomTable(GetParam(), 160);
  for (const RulePtr& rule : Rules()) {
    SCOPED_TRACE(rule->name());
    // Brute force: Rule::Detect/GenFix on every candidate, no buffer.
    auto nadeef = NadeefDetect(table, rule);
    ASSERT_TRUE(nadeef.ok()) << nadeef.status().ToString();
    DetectionResult oracle;
    oracle.violations = nadeef->violations;
    ASSERT_FALSE(oracle.violations.empty()) << "rule finds nothing";

    std::string interpreted;
    for (bool kernels : {false, true}) {
      SCOPED_TRACE(kernels ? "kernels on" : "kernels off");
      ExecutionContext ctx(4);
      ctx.set_kernels_enabled(kernels);
      auto detected = RuleEngine(&ctx).Detect(table, rule);
      ASSERT_TRUE(detected.ok()) << detected.status().ToString();
      EXPECT_EQ(ViolationFingerprint(*detected), ViolationFingerprint(oracle));
      EXPECT_EQ(detected->violations.size(), oracle.violations.size());
      const std::string fingerprint = DetectFingerprint(*detected);
      EXPECT_EQ(RoundTrip(detected->violations), fingerprint);
      if (kernels) {
        EXPECT_EQ(fingerprint, interpreted);
      } else {
        interpreted = fingerprint;
      }
    }
    EXPECT_EQ(RoundTrip(oracle.violations), DetectFingerprint(oracle));
  }
}

/// Global inequality DCs: with no equality to block on, detection runs the
/// OCJoin or IEJoin self-join and decides each emitted pair with the
/// compiled predicate conjunction (kernels on) or Rule::Detect (off).
std::vector<RulePtr> JoinRules() {
  return {
      *ParseRule("dcj: DC: t1.num > t2.num & t1.key < t2.key"),
      *ParseRule("dcjc: DC: t1.num >= t2.num & t1.key <= t2.key & "
                 "t1.tag != t2.tag & t1.num > 0"),
  };
}

TEST_P(ViolationBufferDifferential, JoinPairsReadBackAsRuleDetectAndGenFix) {
  const Table table = RandomTable(GetParam() + 500, 160);
  for (const RulePtr& rule : JoinRules()) {
    SCOPED_TRACE(rule->name());
    auto nadeef = NadeefDetect(table, rule);
    ASSERT_TRUE(nadeef.ok()) << nadeef.status().ToString();
    DetectionResult oracle;
    oracle.violations = nadeef->violations;
    ASSERT_FALSE(oracle.violations.empty()) << "rule finds nothing";
    for (bool iejoin : {false, true}) {
      SCOPED_TRACE(iejoin ? "iejoin" : "ocjoin");
      PlannerOptions options;
      options.use_iejoin = iejoin;
      std::string interpreted;
      for (bool kernels : {false, true}) {
        SCOPED_TRACE(kernels ? "kernels on" : "kernels off");
        ExecutionContext ctx(4);
        ctx.set_kernels_enabled(kernels);
        auto detected = RuleEngine(&ctx, options).Detect(table, rule);
        ASSERT_TRUE(detected.ok()) << detected.status().ToString();
        EXPECT_EQ(ViolationFingerprint(*detected),
                  ViolationFingerprint(oracle));
        const std::string fingerprint = DetectFingerprint(*detected);
        EXPECT_EQ(RoundTrip(detected->violations), fingerprint);
        if (kernels) {
          EXPECT_EQ(fingerprint, interpreted);
        } else {
          interpreted = fingerprint;
        }
      }
    }
  }
}

void ExpectSamePass(const RepairPassResult& a, const RepairPassResult& b) {
  EXPECT_EQ(a.applied, b.applied);
  ASSERT_EQ(a.provenance.size(), b.provenance.size());
  for (size_t i = 0; i < a.provenance.size(); ++i) {
    EXPECT_EQ(a.provenance[i].rule, b.provenance[i].rule) << i;
    EXPECT_EQ(a.provenance[i].violation_id, b.provenance[i].violation_id) << i;
    EXPECT_EQ(a.provenance[i].component, b.provenance[i].component) << i;
    EXPECT_EQ(a.provenance[i].strategy, b.provenance[i].strategy) << i;
  }
  EXPECT_EQ(a.num_components, b.num_components);
}

TEST_P(ViolationBufferDifferential, BufferRepairMatchesObjectRepair) {
  const Table table = RandomTable(GetParam() + 1000, 120);
  LineageRecorder& lineage = LineageRecorder::Instance();
  lineage.Clear();
  lineage.set_enabled(true);
  for (bool kernels : {false, true}) {
    SCOPED_TRACE(kernels ? "kernels on" : "kernels off");
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(kernels);
    RuleEngine engine(&ctx);
    DetectRequest request;
    request.table = &table;
    request.rules = Rules();
    auto buffered = engine.DetectBuffered(request);
    ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
    auto detected = engine.Detect(request);
    ASSERT_TRUE(detected.ok()) << detected.status().ToString();
    std::vector<ViolationWithFixes> objects;
    for (auto& d : *detected) {
      for (auto& vf : d.violations) objects.push_back(std::move(vf));
    }
    ASSERT_EQ(objects.size(), buffered->violations.size());
    for (RepairMode mode :
         {RepairMode::kEquivalenceClass, RepairMode::kHypergraph,
          RepairMode::kDistributedEquivalenceClass}) {
      SCOPED_TRACE(static_cast<int>(mode));
      const RepairStrategy& strategy = RepairStrategyFor(mode);
      auto from_objects = strategy.Repair(&ctx, objects, BlackBoxOptions());
      auto from_buffer =
          strategy.Repair(&ctx, buffered->violations, BlackBoxOptions());
      ASSERT_TRUE(from_objects.ok() && from_buffer.ok());
      EXPECT_FALSE(from_buffer->applied.empty());
      EXPECT_EQ(from_buffer->provenance.size(), from_buffer->applied.size());
      ExpectSamePass(*from_buffer, *from_objects);
    }
  }
  lineage.set_enabled(false);
  lineage.Clear();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViolationBufferDifferential,
                         ::testing::Values(1, 2, 3, 4));

/// Every violation of `buffer` as objects.
DetectionResult Objects(const ViolationBuffer& buffer) {
  DetectionResult out;
  out.violations.resize(buffer.size());
  for (size_t v = 0; v < buffer.size(); ++v) {
    buffer.ToObject(v, &out.violations[v]);
  }
  return out;
}

TEST(ViolationBuffer, ObjectsConvertInRunsAsInOnePass) {
  // Enough objects for several conversion runs, each borrowing its own
  // cells; pooled buffers (moved-in objects) append around them.
  const Table table = RandomTable(5, 400);
  ExecutionContext ctx(4);
  DetectRequest request;
  request.table = &table;
  request.rules = Rules();
  auto detected = RuleEngine(&ctx).Detect(request);
  ASSERT_TRUE(detected.ok());
  std::vector<ViolationWithFixes> objects;
  for (auto& d : *detected) {
    for (auto& vf : d.violations) objects.push_back(std::move(vf));
  }
  ASSERT_GE(objects.size(), 4096u);
  DetectionResult expected;
  expected.violations = objects;
  const std::string fingerprint = DetectFingerprint(expected);

  const size_t stages_before = ctx.metrics().StageReports().size();
  const ViolationBuffer runs = ObjectsAsBuffer(&ctx, objects);
  EXPECT_GT(ctx.metrics().StageReports().size(), stages_before);
  EXPECT_EQ(DetectFingerprint(Objects(runs)), fingerprint);
  EXPECT_EQ(runs.num_cells(), ViolationBuffer::FromObjects(objects).num_cells());

  // Pooled, borrowed, pooled: every value source shifts by its own array.
  const size_t half = objects.size() / 2;
  std::vector<ViolationWithFixes> head(objects.begin(),
                                       objects.begin() + half);
  std::vector<ViolationWithFixes> tail(objects.begin() + half, objects.end());
  ViolationBuffer first;
  for (ViolationWithFixes& vf : head) {
    first.Append(std::move(vf.violation), std::move(vf.fixes));
  }
  ViolationBuffer middle = ViolationBuffer::FromObjects(tail);
  ViolationBuffer last;
  for (ViolationWithFixes vf : tail) {
    last.Append(std::move(vf.violation), std::move(vf.fixes));
  }
  ViolationBuffer mixed;
  mixed.AppendAll({&first, &middle, &last});
  DetectionResult doubled;
  doubled.violations = objects;
  doubled.violations.insert(doubled.violations.end(), tail.begin(),
                            tail.end());
  EXPECT_EQ(DetectFingerprint(Objects(mixed)), DetectFingerprint(doubled));
}

TEST(ViolationBuffer, RetainKeepsOrderAndOffsets) {
  const Table table = RandomTable(9, 80);
  ExecutionContext ctx(2);
  DetectRequest request;
  request.table = &table;
  request.rules = Rules();
  auto buffered = RuleEngine(&ctx).DetectBuffered(request);
  ASSERT_TRUE(buffered.ok());
  ViolationBuffer& buffer = buffered->violations;
  ASSERT_GT(buffer.size(), 4u);
  std::vector<ViolationWithFixes> expected;
  std::vector<char> keep(buffer.size());
  for (size_t v = 0; v < buffer.size(); ++v) {
    keep[v] = v % 3 != 1;
    if (!keep[v]) continue;
    expected.emplace_back();
    buffer.ToObject(v, &expected.back());
  }
  buffer.Retain(keep);
  ASSERT_EQ(buffer.size(), expected.size());
  DetectionResult a;
  DetectionResult b;
  b.violations = expected;
  a.violations.resize(buffer.size());
  for (size_t v = 0; v < buffer.size(); ++v) buffer.ToObject(v, &a.violations[v]);
  EXPECT_EQ(DetectFingerprint(a), DetectFingerprint(b));
}

}  // namespace
}  // namespace bigdansing
