#include "core/ocjoin.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/hash.h"
#include "common/trace.h"
#include "dataflow/stage_executor.h"

namespace bigdansing {

namespace {

constexpr uint32_t kNull = ValuePool::kNullCode;

/// [lo, hi] over a partition's non-null codes of one column; empty (lo >
/// hi) when every cell is null.
struct CodeRange {
  uint32_t lo = kNull;
  uint32_t hi = 0;
  bool empty() const { return lo > hi; }
};

/// True when some code in `t1` op some code in `t2` can hold.
bool RangesCanSatisfy(const CodeRange& t1, CmpOp op, const CodeRange& t2) {
  switch (op) {
    case CmpOp::kLt:
      return t1.lo < t2.hi;
    case CmpOp::kLeq:
      return t1.lo <= t2.hi;
    case CmpOp::kGt:
      return t1.hi > t2.lo;
    case CmpOp::kGeq:
      return t1.hi >= t2.lo;
    default:
      return true;
  }
}

/// A row position keyed by one of its codes: the element the sort phase
/// orders.
struct Keyed {
  uint32_t key;
  uint32_t row;
};

/// The rows of `members` with a non-null code in `codes`, in member order,
/// sorted ascending by code. Code order is Value order, so std::sort sees
/// the comparator outcomes a sort of the rows' Values would see and returns
/// the same permutation, ties included.
std::vector<Keyed> SortedOn(const std::vector<uint32_t>& members,
                            const std::vector<uint32_t>& codes) {
  std::vector<Keyed> out;
  out.reserve(members.size());
  for (uint32_t r : members) {
    if (codes[r] != kNull) out.push_back({codes[r], r});
  }
  std::sort(out.begin(), out.end(),
            [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  return out;
}

/// One range partition after the sorting phase. The t1 side holds the rows
/// with a non-null first-condition left code, the t2 side those with a
/// non-null first-condition right code, each ascending by that code.
struct PartitionState {
  std::vector<uint32_t> members;  ///< Row positions, ascending.
  std::vector<Keyed> t1;
  std::vector<uint32_t> t2_keys;
  /// The t2 rows whose residual right codes are all non-null (the only
  /// ones that can join), in t2 order, with one code array per residual
  /// condition. `t2_dense[b]` counts those among the first b t2 rows, so a
  /// qualifying t2 range [lo, hi) scans positions [t2_dense[lo],
  /// t2_dense[hi]) of these arrays.
  std::vector<uint32_t> t2_rows;
  std::vector<std::vector<uint32_t>> t2_residuals;
  std::vector<uint32_t> t2_dense;
  /// Code range per condition column.
  std::unordered_map<size_t, CodeRange> ranges;
};

/// Appends (t1_row, t2_rows[d]) for every d in [lo, hi) whose residual
/// conditions hold: `first` decides the first residual over its contiguous
/// code array, and only its hits check the rest. `left` holds t1's
/// non-null residual left codes. Hits are rare, so the scan tests blocks of
/// codes with a branch-free reduction (which the compiler vectorizes) and
/// revisits only blocks that hold one.
template <typename Cmp>
void ScanResiduals(Cmp first, const PartitionState& p2, size_t lo, size_t hi,
                   uint32_t t1_row, const std::vector<uint32_t>& left,
                   const std::vector<OrderingCondition>& conds,
                   std::vector<RowIndexPair>* out) {
  const uint32_t l0 = left[0];
  const uint32_t* r0 = p2.t2_residuals[0].data();
  auto emit_hits = [&](size_t begin, size_t end) {
    for (size_t d = begin; d < end; ++d) {
      if (!first(l0, r0[d])) continue;
      bool all = true;
      for (size_t j = 1; j < left.size() && all; ++j) {
        all = CodesSatisfy(left[j], conds[j + 1].op, p2.t2_residuals[j][d]);
      }
      if (all && p2.t2_rows[d] != t1_row) {
        out->push_back({t1_row, p2.t2_rows[d]});
      }
    }
  };
  constexpr size_t kBlock = 32;
  size_t d = lo;
  for (; d + kBlock <= hi; d += kBlock) {
    uint32_t any = 0;
    for (size_t k = 0; k < kBlock; ++k) any |= first(l0, r0[d + k]);
    if (any != 0) emit_hits(d, d + kBlock);
  }
  emit_hits(d, hi);
}

}  // namespace

ConditionCodes EncodeConditionColumns(
    const PartitionView<Row>& rows,
    const std::vector<OrderingCondition>& conditions) {
  std::vector<size_t> columns;
  for (const auto& c : conditions) {
    for (size_t col : {c.left_column, c.right_column}) {
      if (std::find(columns.begin(), columns.end(), col) == columns.end()) {
        columns.push_back(col);
      }
    }
  }
  EncodedColumnSet encoded = EncodeColumns(rows, {columns});
  ConditionCodes out;
  for (size_t col : columns) {
    std::vector<uint32_t>& flat = out[col];
    flat.reserve(encoded.rows);
    for (const auto& part : encoded.columns.at(col).codes) {
      flat.insert(flat.end(), part.begin(), part.end());
    }
  }
  return out;
}

std::vector<RowIndexPair> OCJoin(ExecutionContext* ctx,
                                 const PartitionView<Row>& rows,
                                 const std::vector<OrderingCondition>& conditions,
                                 const OCJoinOptions& options,
                                 OCJoinStats* stats) {
  OCJoinStats local_stats;
  std::vector<RowIndexPair> results;
  if (stats != nullptr) *stats = local_stats;
  const size_t n = rows.Count();
  if (n == 0 || conditions.empty()) return results;

  ScopedSpan span("ocjoin", "operator");
  span.Annotate("rows", static_cast<uint64_t>(n));
  span.Annotate("conditions", static_cast<uint64_t>(conditions.size()));

  const ConditionCodes codes = EncodeConditionColumns(rows, conditions);

  // --- Optional condition ordering by estimated selectivity (§4.3) ---
  // The first condition drives the merge and determines the candidate
  // count, so the most selective one (fewest satisfying pairs on a random
  // pair sample) should run first.
  std::vector<OrderingCondition> conds = conditions;
  size_t primary_condition = 0;
  if (options.order_conditions_by_selectivity && conds.size() > 1 && n >= 2) {
    std::vector<size_t> hits(conds.size(), 0);
    uint64_t state = 0x5EEDF00DULL ^ n;
    auto next_index = [&state, n]() {
      state = StableHashUint64(state + 1);
      return static_cast<size_t>(state % n);
    };
    for (size_t s = 0; s < options.selectivity_sample_pairs; ++s) {
      const size_t a = next_index();
      const size_t b = next_index();
      for (size_t j = 0; j < conds.size(); ++j) {
        if (CodesSatisfy(codes.at(conds[j].left_column)[a], conds[j].op,
                         codes.at(conds[j].right_column)[b])) {
          ++hits[j];
        }
      }
    }
    for (size_t j = 1; j < conds.size(); ++j) {
      if (hits[j] < hits[primary_condition]) primary_condition = j;
    }
    if (primary_condition != 0) std::swap(conds[0], conds[primary_condition]);
  }
  local_stats.primary_condition = primary_condition;
  const OrderingCondition& c0 = conds[0];
  const std::vector<uint32_t>& c0_left = codes.at(c0.left_column);
  const std::vector<uint32_t>& c0_right = codes.at(c0.right_column);

  // --- Partitioning phase (Algorithm 2 lines 1-2) ---
  // PartAtt: the primary attribute of the first condition.
  size_t np = options.num_partitions;
  if (np == 0) {
    np = std::max<size_t>(ctx->num_workers() * 2, n / 4096);
    np = std::min<size_t>(np, 256);
    if (np == 0) np = 1;
  }

  // Quantile boundaries from a strided sample of PartAtt.
  std::vector<uint32_t> sample;
  const size_t stride = std::max<size_t>(1, n / 65536);
  for (size_t i = 0; i < n; i += stride) {
    if (c0_left[i] != kNull) sample.push_back(c0_left[i]);
  }
  std::sort(sample.begin(), sample.end());
  std::vector<uint32_t> boundaries;
  for (size_t k = 1; k < np && !sample.empty(); ++k) {
    boundaries.push_back(sample[k * sample.size() / np]);
  }

  std::vector<PartitionState> parts(np);
  for (uint32_t r = 0; r < n; ++r) {
    size_t p = 0;
    if (c0_left[r] != kNull && !boundaries.empty()) {
      p = static_cast<size_t>(
          std::upper_bound(boundaries.begin(), boundaries.end(), c0_left[r]) -
          boundaries.begin());
    }
    parts[p].members.push_back(r);
  }
  ctx->metrics().AddShuffledRecords(n);
  ctx->metrics().AddStage();

  // Code arrays of each residual condition's t1 (left) and t2 (right) side.
  const size_t num_residuals = conds.size() - 1;
  std::vector<const uint32_t*> residual_left;
  std::vector<const uint32_t*> residual_right;
  for (size_t j = 1; j < conds.size(); ++j) {
    residual_left.push_back(codes.at(conds[j].left_column).data());
    residual_right.push_back(codes.at(conds[j].right_column).data());
  }

  // --- Sorting phase (lines 4-5): local to each partition. Both sides of
  // the first condition are sorted; the t2 side is laid out as contiguous
  // code arrays for the merge, and every condition column gets its range.
  StageExecutor executor(ctx);
  Status sort_status = executor.Run("ocjoin:sort", np, [&](size_t p, TaskContext& tc) {
    PartitionState& part = parts[p];
    tc.records_in = part.members.size();
    part.t1 = SortedOn(part.members, c0_left);
    const std::vector<Keyed> t2 = c0.left_column == c0.right_column
                                      ? part.t1
                                      : SortedOn(part.members, c0_right);
    part.t2_keys.reserve(t2.size());
    part.t2_dense.reserve(t2.size() + 1);
    part.t2_residuals.resize(num_residuals);
    for (const Keyed& k : t2) {
      part.t2_keys.push_back(k.key);
      part.t2_dense.push_back(static_cast<uint32_t>(part.t2_rows.size()));
      bool joinable = true;
      for (size_t j = 0; j < num_residuals && joinable; ++j) {
        joinable = residual_right[j][k.row] != kNull;
      }
      if (!joinable) continue;
      part.t2_rows.push_back(k.row);
      for (size_t j = 0; j < num_residuals; ++j) {
        part.t2_residuals[j].push_back(residual_right[j][k.row]);
      }
    }
    part.t2_dense.push_back(static_cast<uint32_t>(part.t2_rows.size()));
    for (const auto& [column, col] : codes) {
      CodeRange& range = part.ranges[column];
      for (uint32_t r : part.members) {
        if (col[r] == kNull) continue;
        range.lo = std::min(range.lo, col[r]);
        range.hi = std::max(range.hi, col[r]);
      }
    }
  });
  if (!sort_status.ok()) throw StageError(std::move(sort_status));

  // --- Pruning phase (line 7): drop partition pairs whose code ranges
  // cannot satisfy some condition. ---
  struct PartPair {
    size_t t1;
    size_t t2;
  };
  std::vector<PartPair> surviving;
  local_stats.num_partitions = np;
  local_stats.partition_pairs_total = np * np;
  for (size_t i = 0; i < np; ++i) {
    if (parts[i].members.empty()) continue;
    for (size_t l = 0; l < np; ++l) {
      if (parts[l].members.empty()) continue;
      bool possible = true;
      for (const auto& c : conds) {
        const CodeRange& r1 = parts[i].ranges.at(c.left_column);
        const CodeRange& r2 = parts[l].ranges.at(c.right_column);
        if (r1.empty() || r2.empty() || !RangesCanSatisfy(r1, c.op, r2)) {
          possible = false;
          break;
        }
      }
      if (possible) surviving.push_back({i, l});
    }
  }
  local_stats.partition_pairs_after_pruning = surviving.size();

  // --- Joining phase (lines 9-14): sort-merge join on the first condition,
  // residual conditions decided per candidate pair. For < / <= the
  // qualifying t2 rows form a suffix of the t2 order and t1 walks
  // ascending; for > / >= a prefix and t1 walks descending. Each t1 finds
  // its boundary by binary search, so the per-pair merge splits into
  // independent morsels over the t1 walk, and piece-order concatenation
  // reproduces the sequential output order bit-identically.
  std::atomic<size_t> candidate_pairs{0};
  const bool ascending = c0.op == CmpOp::kLt || c0.op == CmpOp::kLeq;
  auto join_result = executor.RunMorsels<std::vector<RowIndexPair>>(
      "ocjoin:join", surviving.size(),
      [&](size_t t) -> size_t {
        if (parts[surviving[t].t2].t2_keys.empty()) return 0;
        return parts[surviving[t].t1].t1.size();
      },
      [&](size_t t, size_t begin, size_t end_unit, TaskContext& tc) {
        const PartitionState& p1 = parts[surviving[t].t1];
        const PartitionState& p2 = parts[surviving[t].t2];
        const bool same_partition = surviving[t].t1 == surviving[t].t2;
        const std::vector<uint32_t>& keys = p2.t2_keys;
        std::vector<RowIndexPair> out;
        std::vector<uint32_t> left(num_residuals);
        size_t local_candidates = 0;
        for (size_t k = begin; k < end_unit; ++k) {
          const Keyed& t1 = p1.t1[ascending ? k : p1.t1.size() - 1 - k];
          size_t lo = 0;
          size_t hi = keys.size();
          switch (c0.op) {
            case CmpOp::kLt:  // key > v1
              lo = std::upper_bound(keys.begin(), keys.end(), t1.key) -
                   keys.begin();
              break;
            case CmpOp::kLeq:  // key >= v1
              lo = std::lower_bound(keys.begin(), keys.end(), t1.key) -
                   keys.begin();
              break;
            case CmpOp::kGt:  // key < v1
              hi = std::lower_bound(keys.begin(), keys.end(), t1.key) -
                   keys.begin();
              break;
            case CmpOp::kGeq:  // key <= v1
              hi = std::upper_bound(keys.begin(), keys.end(), t1.key) -
                   keys.begin();
              break;
            default:
              hi = 0;
          }
          if (lo >= hi) continue;
          // The t1 row is itself in the range iff it sits on the t2 side of
          // this partition and satisfies the condition against itself.
          const bool self =
              same_partition && CodesSatisfy(t1.key, c0.op, c0_right[t1.row]);
          local_candidates += hi - lo - (self ? 1 : 0);
          const size_t dlo = p2.t2_dense[lo];
          const size_t dhi = p2.t2_dense[hi];
          if (num_residuals == 0) {
            for (size_t d = dlo; d < dhi; ++d) {
              if (p2.t2_rows[d] != t1.row) out.push_back({t1.row, p2.t2_rows[d]});
            }
            continue;
          }
          bool joinable = true;
          for (size_t j = 0; j < num_residuals && joinable; ++j) {
            left[j] = residual_left[j][t1.row];
            joinable = left[j] != kNull;
          }
          if (!joinable) continue;
          switch (conds[1].op) {
            case CmpOp::kLt:
              ScanResiduals([](uint32_t l, uint32_t r) { return l < r; }, p2,
                            dlo, dhi, t1.row, left, conds, &out);
              break;
            case CmpOp::kLeq:
              ScanResiduals([](uint32_t l, uint32_t r) { return l <= r; }, p2,
                            dlo, dhi, t1.row, left, conds, &out);
              break;
            case CmpOp::kGt:
              ScanResiduals([](uint32_t l, uint32_t r) { return l > r; }, p2,
                            dlo, dhi, t1.row, left, conds, &out);
              break;
            case CmpOp::kGeq:
              ScanResiduals([](uint32_t l, uint32_t r) { return l >= r; }, p2,
                            dlo, dhi, t1.row, left, conds, &out);
              break;
            default:
              break;
          }
        }
        candidate_pairs += local_candidates;
        tc.records_in = end_unit - begin;
        tc.records_out = out.size();
        return out;
      },
      [](size_t, std::vector<std::vector<RowIndexPair>>&& pieces) {
        size_t total = 0;
        for (const auto& piece : pieces) total += piece.size();
        std::vector<RowIndexPair> merged;
        merged.reserve(total);
        for (const auto& piece : pieces) {
          merged.insert(merged.end(), piece.begin(), piece.end());
        }
        return merged;
      });
  if (!join_result.ok()) throw StageError(join_result.status());

  size_t total = 0;
  for (const auto& tr : *join_result) total += tr.size();
  results.reserve(total);
  for (const auto& tr : *join_result) {
    results.insert(results.end(), tr.begin(), tr.end());
  }
  local_stats.candidate_pairs = candidate_pairs.load();
  local_stats.result_pairs = results.size();
  ctx->metrics().AddPairsEnumerated(local_stats.candidate_pairs);
  if (stats != nullptr) *stats = local_stats;
  if (span.id() != 0) {
    span.Annotate("num_partitions",
                  static_cast<uint64_t>(local_stats.num_partitions));
    span.Annotate("partition_pairs_total",
                  static_cast<uint64_t>(local_stats.partition_pairs_total));
    span.Annotate(
        "partition_pairs_after_pruning",
        static_cast<uint64_t>(local_stats.partition_pairs_after_pruning));
    span.Annotate("candidate_pairs",
                  static_cast<uint64_t>(local_stats.candidate_pairs));
    span.Annotate("result_pairs",
                  static_cast<uint64_t>(local_stats.result_pairs));
  }
  return results;
}

}  // namespace bigdansing
