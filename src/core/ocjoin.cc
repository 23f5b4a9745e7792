#include "core/ocjoin.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dataflow/stage_executor.h"

namespace bigdansing {

namespace {

/// Evaluates `a op b` for an ordering comparison. Callers guarantee a and b
/// are non-null.
bool EvalOrdering(const Value& a, CmpOp op, const Value& b) {
  switch (op) {
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kLeq:
      return a <= b;
    case CmpOp::kGeq:
      return a >= b;
    default:
      return false;
  }
}

/// Per-partition state after the sorting phase: row storage, one sorted
/// index per condition column (nulls excluded), and min/max per column.
struct PartitionState {
  std::vector<Row> rows;
  /// column -> indices of rows with non-null values, sorted ascending.
  std::unordered_map<size_t, std::vector<uint32_t>> sorted;
  /// column -> (min, max) over non-null values; absent if all null.
  std::unordered_map<size_t, std::pair<Value, Value>> range;
};

/// True when some value in [t1_range] op [t2_range] can hold.
bool RangesCanSatisfy(const std::pair<Value, Value>& t1_range, CmpOp op,
                      const std::pair<Value, Value>& t2_range) {
  switch (op) {
    case CmpOp::kLt:
      return t1_range.first < t2_range.second;
    case CmpOp::kLeq:
      return t1_range.first <= t2_range.second;
    case CmpOp::kGt:
      return t1_range.second > t2_range.first;
    case CmpOp::kGeq:
      return t1_range.second >= t2_range.first;
    default:
      return true;
  }
}

}  // namespace

std::vector<RowPair> OCJoin(ExecutionContext* ctx,
                            const std::vector<Row>& rows,
                            const std::vector<OrderingCondition>& conditions,
                            const OCJoinOptions& options, OCJoinStats* stats) {
  OCJoinStats local_stats;
  std::vector<RowPair> results;
  if (stats != nullptr) *stats = local_stats;
  if (rows.empty() || conditions.empty()) return results;

  ScopedSpan span("ocjoin", "operator");
  span.Annotate("rows", static_cast<uint64_t>(rows.size()));
  span.Annotate("conditions", static_cast<uint64_t>(conditions.size()));

  // --- Optional condition ordering by estimated selectivity (§4.3) ---
  // The first condition drives the merge and determines the candidate
  // count, so the most selective one (fewest satisfying pairs on a random
  // pair sample) should run first.
  std::vector<OrderingCondition> ordered = conditions;
  const std::vector<OrderingCondition>& conds = ordered;
  size_t primary_condition = 0;
  if (options.order_conditions_by_selectivity && conds.size() > 1 &&
      rows.size() >= 2) {
    std::vector<size_t> hits(conds.size(), 0);
    uint64_t state = 0x5EEDF00DULL ^ rows.size();
    auto next_index = [&state, &rows]() {
      state = StableHashUint64(state + 1);
      return static_cast<size_t>(state % rows.size());
    };
    for (size_t s = 0; s < options.selectivity_sample_pairs; ++s) {
      const Row& a = rows[next_index()];
      const Row& b = rows[next_index()];
      for (size_t j = 0; j < conds.size(); ++j) {
        const Value& l = a.value(conds[j].left_column);
        const Value& r = b.value(conds[j].right_column);
        if (!l.is_null() && !r.is_null() &&
            EvalOrdering(l, conds[j].op, r)) {
          ++hits[j];
        }
      }
    }
    for (size_t j = 1; j < conds.size(); ++j) {
      if (hits[j] < hits[primary_condition]) primary_condition = j;
    }
    if (primary_condition != 0) {
      std::swap(ordered[0], ordered[primary_condition]);
    }
  }
  local_stats.primary_condition = primary_condition;

  // --- Partitioning phase (Algorithm 2 lines 1-2) ---
  // PartAtt: the primary attribute of the first condition.
  const size_t part_col = conds[0].left_column;
  size_t np = options.num_partitions;
  if (np == 0) {
    np = std::max<size_t>(ctx->num_workers() * 2, rows.size() / 4096);
    np = std::min<size_t>(np, 256);
    if (np == 0) np = 1;
  }

  // Quantile boundaries from a strided sample of PartAtt.
  std::vector<Value> sample;
  size_t stride = std::max<size_t>(1, rows.size() / 65536);
  for (size_t i = 0; i < rows.size(); i += stride) {
    const Value& v = rows[i].value(part_col);
    if (!v.is_null()) sample.push_back(v);
  }
  std::sort(sample.begin(), sample.end());
  std::vector<Value> boundaries;
  for (size_t k = 1; k < np && !sample.empty(); ++k) {
    boundaries.push_back(sample[k * sample.size() / np]);
  }

  std::vector<PartitionState> parts(np);
  for (const Row& row : rows) {
    const Value& v = row.value(part_col);
    size_t p = 0;
    if (!v.is_null() && !boundaries.empty()) {
      p = static_cast<size_t>(
          std::upper_bound(boundaries.begin(), boundaries.end(), v) -
          boundaries.begin());
    }
    parts[p].rows.push_back(row);
  }
  ctx->metrics().AddShuffledRecords(rows.size());
  ctx->metrics().AddStage();

  // Distinct columns appearing in conditions (for sorting and ranges).
  std::vector<size_t> columns;
  for (const auto& c : conds) {
    for (size_t col : {c.left_column, c.right_column}) {
      if (std::find(columns.begin(), columns.end(), col) == columns.end()) {
        columns.push_back(col);
      }
    }
  }

  // --- Sorting phase (lines 4-5): local, one sorted list per condition
  // attribute per partition. ---
  StageExecutor executor(ctx);
  Status sort_status = executor.Run("ocjoin:sort", np, [&](size_t p, TaskContext& tc) {
    PartitionState& part = parts[p];
    tc.records_in = part.rows.size();
    for (size_t col : columns) {
      std::vector<uint32_t> idx;
      idx.reserve(part.rows.size());
      for (uint32_t i = 0; i < part.rows.size(); ++i) {
        if (!part.rows[i].value(col).is_null()) idx.push_back(i);
      }
      std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
        return part.rows[a].value(col) < part.rows[b].value(col);
      });
      if (!idx.empty()) {
        part.range.emplace(col,
                           std::make_pair(part.rows[idx.front()].value(col),
                                          part.rows[idx.back()].value(col)));
      }
      part.sorted.emplace(col, std::move(idx));
    }
  });
  if (!sort_status.ok()) throw StageError(std::move(sort_status));

  // --- Pruning phase (line 7): drop partition pairs whose min/max ranges
  // cannot satisfy some condition. ---
  struct PartPair {
    size_t t1;
    size_t t2;
  };
  std::vector<PartPair> surviving;
  local_stats.num_partitions = np;
  local_stats.partition_pairs_total = np * np;
  for (size_t i = 0; i < np; ++i) {
    if (parts[i].rows.empty()) continue;
    for (size_t l = 0; l < np; ++l) {
      if (parts[l].rows.empty()) continue;
      bool possible = true;
      for (const auto& c : conds) {
        auto r1 = parts[i].range.find(c.left_column);
        auto r2 = parts[l].range.find(c.right_column);
        if (r1 == parts[i].range.end() || r2 == parts[l].range.end() ||
            !RangesCanSatisfy(r1->second, c.op, r2->second)) {
          possible = false;
          break;
        }
      }
      if (possible) surviving.push_back({i, l});
    }
  }
  local_stats.partition_pairs_after_pruning = surviving.size();

  // --- Joining phase (lines 9-14): sort-merge join on the first condition,
  // residual conditions evaluated per candidate pair. The per-pair merge is
  // split into morsels over the t1 sort order: each morsel rescans its
  // boundary from scratch (the boundary is a pure function of v1, so the
  // rescan lands exactly where the sequential scan would), making morsels
  // independent while piece-order concatenation reproduces the sequential
  // output order bit-identically.
  std::atomic<size_t> candidate_pairs{0};
  const OrderingCondition& c0 = conds[0];
  auto join_result = executor.RunMorsels<std::vector<RowPair>>(
      "ocjoin:join", surviving.size(),
      [&](size_t t) -> size_t {
        const PartitionState& p1 = parts[surviving[t].t1];
        const PartitionState& p2 = parts[surviving[t].t2];
        if (p2.sorted.at(c0.right_column).empty()) return 0;
        return p1.sorted.at(c0.left_column).size();
      },
      [&](size_t t, size_t begin, size_t end_unit, TaskContext& tc) {
        const PartitionState& p1 = parts[surviving[t].t1];
        const PartitionState& p2 = parts[surviving[t].t2];
        const auto& s1 = p1.sorted.at(c0.left_column);   // t1 side, ascending.
        const auto& s2 = p2.sorted.at(c0.right_column);  // t2 side, ascending.
        std::vector<RowPair> out;
        size_t local_candidates = 0;
        auto residuals_hold = [&](const Row& t1, const Row& t2) {
          for (size_t j = 1; j < conds.size(); ++j) {
            const auto& cj = conds[j];
            const Value& lv = t1.value(cj.left_column);
            const Value& rv = t2.value(cj.right_column);
            if (lv.is_null() || rv.is_null() || !EvalOrdering(lv, cj.op, rv)) {
              return false;
            }
          }
          return true;
        };
        // For < / <= the qualifying t2 form a suffix of s2; for > / >= a
        // prefix. The boundary moves monotonically as t1 advances through
        // its iteration order, giving the merge its linear scan structure.
        const bool suffix = c0.op == CmpOp::kLt || c0.op == CmpOp::kLeq;
        if (suffix) {
          // t1 ascending over s1 positions [begin, end_unit); qualifying
          // t2 = {b : v1 op b} is a suffix whose start moves right as v1
          // grows.
          size_t start = 0;
          for (size_t a = begin; a < end_unit; ++a) {
            const Row& t1 = p1.rows[s1[a]];
            const Value& v1 = t1.value(c0.left_column);
            while (start < s2.size() &&
                   !EvalOrdering(v1, c0.op,
                                 p2.rows[s2[start]].value(c0.right_column))) {
              ++start;
            }
            for (size_t b = start; b < s2.size(); ++b) {
              const Row& t2 = p2.rows[s2[b]];
              if (t1.id() == t2.id()) continue;
              ++local_candidates;
              if (residuals_hold(t1, t2)) out.push_back(RowPair{t1, t2});
            }
          }
        } else {
          // t1 descending; iteration step k covers a = n-1-k, so the
          // morsel [begin, end_unit) walks s1 from the top down and the
          // qualifying t2 prefix end moves left as v1 shrinks.
          size_t end = s2.size();
          for (size_t k = begin; k < end_unit; ++k) {
            const Row& t1 = p1.rows[s1[s1.size() - 1 - k]];
            const Value& v1 = t1.value(c0.left_column);
            while (end > 0 &&
                   !EvalOrdering(v1, c0.op,
                                 p2.rows[s2[end - 1]].value(c0.right_column))) {
              --end;
            }
            for (size_t b = 0; b < end; ++b) {
              const Row& t2 = p2.rows[s2[b]];
              if (t1.id() == t2.id()) continue;
              ++local_candidates;
              if (residuals_hold(t1, t2)) out.push_back(RowPair{t1, t2});
            }
          }
        }
        candidate_pairs += local_candidates;
        tc.records_in = end_unit - begin;
        tc.records_out = out.size();
        return out;
      },
      [](size_t, std::vector<std::vector<RowPair>>&& pieces) {
        size_t total = 0;
        for (const auto& piece : pieces) total += piece.size();
        std::vector<RowPair> merged;
        merged.reserve(total);
        for (auto& piece : pieces) {
          merged.insert(merged.end(), std::make_move_iterator(piece.begin()),
                        std::make_move_iterator(piece.end()));
        }
        return merged;
      });
  if (!join_result.ok()) throw StageError(join_result.status());
  std::vector<std::vector<RowPair>> task_results = std::move(*join_result);

  size_t total = 0;
  for (const auto& tr : task_results) total += tr.size();
  results.reserve(total);
  for (auto& tr : task_results) {
    results.insert(results.end(), std::make_move_iterator(tr.begin()),
                   std::make_move_iterator(tr.end()));
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
