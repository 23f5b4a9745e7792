#ifndef BIGDANSING_CORE_OCJOIN_H_
#define BIGDANSING_CORE_OCJOIN_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/dictionary.h"
#include "data/row.h"
#include "dataflow/context.h"
#include "dataflow/dataset.h"
#include "rules/rule.h"

namespace bigdansing {

/// Options for the OCJoin enhancer.
struct OCJoinOptions {
  /// Number of range partitions; 0 derives one from the input size and the
  /// context's worker count.
  size_t num_partitions = 0;
  /// Reorder the join conditions by estimated selectivity before running,
  /// putting the most selective condition first (§4.3: "If the selectivity
  /// values for the different inequality conditions are known, OCJoin can
  /// order the different joins accordingly"). Selectivity is estimated by
  /// probing a sample of row pairs; see `selectivity_sample_pairs`.
  bool order_conditions_by_selectivity = false;
  /// Number of sampled row pairs used for the selectivity estimate.
  size_t selectivity_sample_pairs = 512;
};

/// Statistics reported by one OCJoin execution, used by tests and by the
/// Fig 11(c) ablation bench to show how pruning cuts work.
struct OCJoinStats {
  size_t num_partitions = 0;
  size_t partition_pairs_total = 0;
  size_t partition_pairs_after_pruning = 0;
  size_t candidate_pairs = 0;  ///< Pairs satisfying the first condition.
  size_t result_pairs = 0;     ///< Pairs satisfying every condition.
  /// Index (into the caller's condition list) of the condition the join
  /// ran first — != 0 only when selectivity ordering moved one forward.
  size_t primary_condition = 0;
};

/// The condition columns of a join input (column -> codes by row position
/// in collect order), dictionary-encoded against one shared,
/// order-preserving ValuePool. Because every column shares the pool,
/// `a op b` over two non-null cells, within or across columns, is
/// `code(a) op code(b)`. Null cells hold ValuePool::kNullCode.
using ConditionCodes = std::unordered_map<size_t, std::vector<uint32_t>>;

/// Encodes every column the conditions read, through EncodeColumns' two
/// stages with all of them in one pool group.
ConditionCodes EncodeConditionColumns(
    const PartitionView<Row>& rows,
    const std::vector<OrderingCondition>& conditions);

/// True when `left op right` holds for two codes of one shared pool; a null
/// code never satisfies a condition.
inline bool CodesSatisfy(uint32_t left, CmpOp op, uint32_t right) {
  if (left == ValuePool::kNullCode || right == ValuePool::kNullCode) {
    return false;
  }
  switch (op) {
    case CmpOp::kLt:
      return left < right;
    case CmpOp::kGt:
      return left > right;
    case CmpOp::kLeq:
      return left <= right;
    case CmpOp::kGeq:
      return left >= right;
    default:
      return false;
  }
}

/// The self-join over ordering comparisons of §4.3 (Algorithm 2), run on the
/// u32 codes of EncodeConditionColumns:
/// 1. range-partitions the rows on the first condition's primary attribute,
/// 2. sorts each partition's two sides on the first condition's attributes,
///    laying the t2 side out as contiguous code arrays,
/// 3. prunes partition pairs whose [min, max] code ranges cannot satisfy
///    the conditions, and
/// 4. sort-merge joins the surviving pairs in parallel.
///
/// Returns every ordered pair (t1, t2) of row positions in `rows`' collect
/// order satisfying all conditions, where a condition reads
/// t1.left_column op t2.right_column. Rows are distinct units: a position
/// never pairs with itself. Rows with a null value in any condition
/// attribute never join. Fewer than 2^32 rows. `stats` (optional) receives
/// execution counters.
std::vector<RowIndexPair> OCJoin(ExecutionContext* ctx,
                                 const PartitionView<Row>& rows,
                                 const std::vector<OrderingCondition>& conditions,
                                 const OCJoinOptions& options,
                                 OCJoinStats* stats = nullptr);

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_OCJOIN_H_
