#ifndef BIGDANSING_TESTS_JOIN_TEST_UTIL_H_
#define BIGDANSING_TESTS_JOIN_TEST_UTIL_H_

// Shared fixtures for the inequality-join tests (ocjoin_test, iejoin_test):
// row generators, the brute-force oracle over Value comparisons, and Detect
// fingerprints, the order-sensitive one also used by kernel_test and
// rule_engine_test.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "core/rule_engine.h"
#include "data/row.h"
#include "dataflow/dataset.h"
#include "rules/rule.h"

namespace bigdansing {
namespace join_test {

/// Rows with `cols` int columns drawn from [0, bound), occasionally null.
inline std::vector<Row> IntRows(size_t n, size_t cols, uint64_t seed,
                                uint64_t bound, double null_rate = 0.0) {
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBool(null_rate)) {
        values.push_back(Value::Null());
      } else {
        values.push_back(Value(static_cast<int64_t>(rng.NextBounded(bound))));
      }
    }
    rows.emplace_back(static_cast<RowId>(i), std::move(values));
  }
  return rows;
}

/// One cell of a small domain that walks the whole total order: ints and
/// the doubles equal to them (1 and 1.0), non-integral doubles, NaN of
/// either sign, strings and nulls.
inline Value MixedValue(Random* rng, double null_rate) {
  if (rng->NextBool(null_rate)) return Value::Null();
  const int64_t k = static_cast<int64_t>(rng->NextBounded(8));
  switch (rng->NextBounded(7)) {
    case 0:
    case 1:
      return Value(k);
    case 2:
      return Value(static_cast<double>(k));
    case 3:
      return Value(static_cast<double>(k) + 0.5);
    case 4:
      return Value(rng->NextBool(0.5)
                       ? std::numeric_limits<double>::quiet_NaN()
                       : -std::numeric_limits<double>::quiet_NaN());
    default:
      return Value(std::string(1, static_cast<char>('a' + k)));
  }
}

inline std::vector<Row> MixedRows(size_t n, size_t cols, uint64_t seed,
                                  double null_rate) {
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    for (size_t c = 0; c < cols; ++c) {
      values.push_back(MixedValue(&rng, null_rate));
    }
    rows.emplace_back(static_cast<RowId>(i), std::move(values));
  }
  return rows;
}

inline OrderingCondition Cond(size_t left, CmpOp op, size_t right) {
  OrderingCondition c;
  c.left_column = left;
  c.op = op;
  c.right_column = right;
  return c;
}

/// The oracle: `a.left op b.right` under Value's total order.
inline bool EvalCondition(const Row& a, const Row& b,
                          const OrderingCondition& c) {
  const Value& l = a.value(c.left_column);
  const Value& r = b.value(c.right_column);
  if (l.is_null() || r.is_null()) return false;
  switch (c.op) {
    case CmpOp::kLt:
      return l < r;
    case CmpOp::kGt:
      return l > r;
    case CmpOp::kLeq:
      return l <= r;
    case CmpOp::kGeq:
      return l >= r;
    default:
      return false;
  }
}

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

/// Every ordered pair of distinct positions satisfying all conditions.
inline PairSet BruteForce(const std::vector<Row>& rows,
                          const std::vector<OrderingCondition>& conditions) {
  PairSet out;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    for (uint32_t j = 0; j < rows.size(); ++j) {
      if (i == j) continue;
      bool all = true;
      for (const auto& c : conditions) {
        all = all && EvalCondition(rows[i], rows[j], c);
      }
      if (all) out.insert({i, j});
    }
  }
  return out;
}

/// Ordered pairs of distinct positions satisfying `condition` alone: the
/// OCJoin candidate count when it drives the merge.
inline size_t BruteForceCount(const std::vector<Row>& rows,
                              const OrderingCondition& condition) {
  size_t n = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < rows.size(); ++j) {
      if (i != j && EvalCondition(rows[i], rows[j], condition)) ++n;
    }
  }
  return n;
}

inline PairSet AsSet(const std::vector<RowIndexPair>& pairs) {
  PairSet out;
  for (const auto& p : pairs) out.insert({p.left, p.right});
  return out;
}

inline Dataset<Row> AsDataset(ExecutionContext* ctx,
                              const std::vector<Row>& rows) {
  return Dataset<Row>::FromVector(ctx, rows);
}

/// Byte rendering of a full detection result: violations, cells, and fixes
/// in stream order. Two results with equal fingerprints are bit-identical
/// for every downstream consumer (repair, lineage, reporting).
inline std::string DetectFingerprint(const DetectionResult& result) {
  std::string out;
  auto cell = [&](const Cell& c) {
    out += "t" + std::to_string(c.ref.row_id) + "[" +
           std::to_string(c.ref.column) + "]" + c.attribute + "=" +
           c.value.ToString() + ";";
  };
  for (const auto& vf : result.violations) {
    out += vf.violation.rule_name + ":";
    for (const auto& c : vf.violation.cells) cell(c);
    out += "fixes{";
    for (const auto& fix : vf.fixes) {
      cell(fix.left);
      out += FixOpName(fix.op);
      if (fix.right.is_cell) {
        cell(fix.right.cell);
      } else {
        out += fix.right.constant.ToString();
      }
      out += "&";
    }
    out += "}\n";
  }
  return out;
}

/// Order-independent fingerprint of a detection result: per violation a
/// hash of its cells and candidate fixes, sorted, then folded.
inline uint64_t ViolationFingerprint(const DetectionResult& result) {
  auto mix = [](uint64_t h, uint64_t v) { return StableHashUint64(h ^ v); };
  auto mix_cell = [&](uint64_t h, const Cell& cell) {
    h = mix(h, static_cast<uint64_t>(cell.ref.row_id));
    h = mix(h, cell.ref.column);
    return mix(h, cell.value.Hash());
  };
  std::vector<uint64_t> hashes;
  for (const auto& vf : result.violations) {
    uint64_t h = StableHashBytes(vf.violation.rule_name);
    for (const auto& cell : vf.violation.cells) h = mix_cell(h, cell);
    for (const auto& fix : vf.fixes) {
      h = mix_cell(h, fix.left);
      h = mix(h, static_cast<uint64_t>(fix.op));
      h = fix.right.is_cell ? mix_cell(h, fix.right.cell)
                            : mix(h, fix.right.constant.Hash());
    }
    hashes.push_back(h);
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = hashes.size();
  for (uint64_t v : hashes) h = mix(h, v);
  return h;
}

}  // namespace join_test
}  // namespace bigdansing

#endif  // BIGDANSING_TESTS_JOIN_TEST_UTIL_H_
