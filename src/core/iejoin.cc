#include "core/iejoin.h"

#include <algorithm>

#include "common/trace.h"

namespace bigdansing {

namespace {

bool AscendingFor(CmpOp op) { return op == CmpOp::kLt || op == CmpOp::kLeq; }

}  // namespace

bool IEJoinApplicable(const std::vector<OrderingCondition>& conditions) {
  return conditions.size() >= 2;
}

std::vector<RowIndexPair> IEJoin(ExecutionContext* ctx,
                                 const PartitionView<Row>& rows,
                                 const std::vector<OrderingCondition>& conditions,
                                 IEJoinStats* stats) {
  IEJoinStats local;
  std::vector<RowIndexPair> results;
  if (stats != nullptr) *stats = local;
  if (!IEJoinApplicable(conditions)) return results;
  const size_t n = rows.Count();
  if (n == 0) return results;

  ScopedSpan span("iejoin", "operator");
  span.Annotate("rows", static_cast<uint64_t>(n));
  span.Annotate("conditions", static_cast<uint64_t>(conditions.size()));

  const ConditionCodes codes = EncodeConditionColumns(rows, conditions);
  const OrderingCondition& c1 = conditions[0];  // t1.A op1 t2.B
  const OrderingCondition& c2 = conditions[1];  // t1.C op2 t2.D
  const std::vector<uint32_t>& a = codes.at(c1.left_column);
  const std::vector<uint32_t>& b = codes.at(c1.right_column);
  const std::vector<uint32_t>& c = codes.at(c2.left_column);
  const std::vector<uint32_t>& d = codes.at(c2.right_column);
  constexpr uint32_t kNull = ValuePool::kNullCode;

  // Candidate (t1) side needs non-null A and C; target (t2) side non-null
  // B and D. A row may qualify for one role only.
  std::vector<uint32_t> candidates;  // Row positions usable as t1.
  std::vector<uint32_t> targets;     // Row positions usable as t2.
  for (uint32_t i = 0; i < n; ++i) {
    if (a[i] != kNull && c[i] != kNull) candidates.push_back(i);
    if (b[i] != kNull && d[i] != kNull) targets.push_back(i);
  }
  local.rows_joined = candidates.size();
  if (candidates.empty() || targets.empty()) {
    if (stats != nullptr) *stats = local;
    return results;
  }

  // Order 1: candidates sorted ascending by A. The bit array is indexed by
  // this order, so the set {t1 : t1.A op1 t2.B} is one contiguous range
  // found by binary search.
  std::vector<uint32_t> by_a = candidates;
  std::sort(by_a.begin(), by_a.end(),
            [&](uint32_t x, uint32_t y) { return a[x] < a[y]; });
  std::vector<uint32_t> a_codes;
  a_codes.reserve(by_a.size());
  for (uint32_t i : by_a) a_codes.push_back(a[i]);
  // Permutation: candidate row position -> its position in the A order.
  std::vector<uint32_t> pos_in_a(n, 0);
  for (uint32_t p = 0; p < by_a.size(); ++p) pos_in_a[by_a[p]] = p;

  // Order 2: candidates sorted by C in the direction that makes the
  // inserted set {t1 : t1.C op2 t2.D} grow monotonically while targets are
  // visited in matching D order.
  const bool ascending = AscendingFor(c2.op);
  std::vector<uint32_t> by_c = candidates;
  std::sort(by_c.begin(), by_c.end(), [&](uint32_t x, uint32_t y) {
    return ascending ? c[x] < c[y] : c[y] < c[x];
  });
  std::vector<uint32_t> target_order = targets;
  std::sort(target_order.begin(), target_order.end(),
            [&](uint32_t x, uint32_t y) {
              return ascending ? d[x] < d[y] : d[y] < d[x];
            });

  // Code arrays of the residual conditions beyond the two that drive the
  // join.
  std::vector<const uint32_t*> residual_left;
  std::vector<const uint32_t*> residual_right;
  for (size_t j = 2; j < conditions.size(); ++j) {
    residual_left.push_back(codes.at(conditions[j].left_column).data());
    residual_right.push_back(codes.at(conditions[j].right_column).data());
  }

  // Bit array over A positions, plus the envelope of set positions so
  // emission never scans regions that are provably all-zero (the win on
  // correlated data, where the qualifying range and the inserted set
  // barely overlap).
  std::vector<uint64_t> bits((by_a.size() + 63) / 64, 0);
  size_t min_set = by_a.size();
  size_t max_set = 0;
  size_t insert_ptr = 0;
  size_t bitmap_probes = 0;

  for (uint32_t t2 : target_order) {
    // Insert every candidate whose C satisfies op2 against this D; the
    // visit order makes this set monotone, so the pointer never rewinds.
    while (insert_ptr < by_c.size() &&
           CodesSatisfy(c[by_c[insert_ptr]], c2.op, d[t2])) {
      uint32_t p = pos_in_a[by_c[insert_ptr]];
      bits[p >> 6] |= uint64_t{1} << (p & 63);
      min_set = std::min(min_set, static_cast<size_t>(p));
      max_set = std::max(max_set, static_cast<size_t>(p) + 1);
      ++insert_ptr;
    }
    if (min_set >= max_set) continue;  // Nothing inserted yet.
    // Qualifying A range for condition 1.
    const uint32_t key = b[t2];
    size_t lo = 0;
    size_t hi = a_codes.size();
    switch (c1.op) {
      case CmpOp::kGt:  // t1.A > b: suffix after upper_bound.
        lo = std::upper_bound(a_codes.begin(), a_codes.end(), key) -
             a_codes.begin();
        break;
      case CmpOp::kGeq:
        lo = std::lower_bound(a_codes.begin(), a_codes.end(), key) -
             a_codes.begin();
        break;
      case CmpOp::kLt:  // t1.A < b: prefix before lower_bound.
        hi = std::lower_bound(a_codes.begin(), a_codes.end(), key) -
             a_codes.begin();
        break;
      case CmpOp::kLeq:
        hi = std::upper_bound(a_codes.begin(), a_codes.end(), key) -
             a_codes.begin();
        break;
      default:
        continue;
    }
    lo = std::max(lo, min_set);
    hi = std::min(hi, max_set);
    if (lo >= hi) continue;
    // Emit set bits in [lo, hi), skipping zero words.
    size_t word = lo >> 6;
    const size_t last_word = (hi - 1) >> 6;
    for (; word <= last_word; ++word) {
      uint64_t mask = bits[word];
      ++bitmap_probes;
      if (mask == 0) continue;
      // Clip the word to [lo, hi).
      size_t base = word << 6;
      if (base < lo) mask &= ~uint64_t{0} << (lo - base);
      if (base + 64 > hi) mask &= (~uint64_t{0}) >> (base + 64 - hi);
      while (mask != 0) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(mask));
        mask &= mask - 1;
        const uint32_t t1 = by_a[base + bit];
        if (t1 == t2) continue;
        bool all = true;
        for (size_t j = 0; j < residual_left.size() && all; ++j) {
          all = CodesSatisfy(residual_left[j][t1], conditions[j + 2].op,
                             residual_right[j][t2]);
        }
        if (all) results.push_back({t1, t2});
      }
    }
  }
  local.bitmap_probes = bitmap_probes;
  local.result_pairs = results.size();
  ctx->metrics().AddPairsEnumerated(results.size());
  if (stats != nullptr) *stats = local;
  if (span.id() != 0) {
    span.Annotate("rows_joined", static_cast<uint64_t>(local.rows_joined));
    span.Annotate("bitmap_probes",
                  static_cast<uint64_t>(local.bitmap_probes));
    span.Annotate("result_pairs", static_cast<uint64_t>(local.result_pairs));
  }
  return results;
}

}  // namespace bigdansing
