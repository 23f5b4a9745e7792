#ifndef BIGDANSING_CORE_IEJOIN_H_
#define BIGDANSING_CORE_IEJOIN_H_

#include <vector>

#include "core/ocjoin.h"

namespace bigdansing {

/// Statistics from one IEJoin execution.
struct IEJoinStats {
  size_t rows_joined = 0;       ///< Non-null rows that entered the join.
  size_t bitmap_probes = 0;     ///< Bitmap words scanned during emission.
  size_t result_pairs = 0;
};

/// IEJoin — the sort/permutation/bit-array inequality self-join that grew
/// out of BigDansing's OCJoin (Khayyat et al., "Lightning Fast and Space
/// Efficient Inequality Joins", the follow-on work to §4.3). Handles
/// exactly two ordering conditions:
///
///   t1.A op1 t2.B   and   t1.C op2 t2.D
///
/// Instead of enumerating every pair satisfying the first condition (the
/// OCJoin merge), IEJoin sorts the data twice (once per condition), walks
/// the second order while inserting positions into a bit array indexed by
/// the first order, and emits only set bits inside the qualifying range —
/// so pairs failing either condition are never touched. Residual
/// conditions beyond the first two are evaluated per emitted pair.
///
/// Like OCJoin, it runs on the shared-pool codes of
/// EncodeConditionColumns and returns row positions in `rows`' collect
/// order: all ordered pairs (t1, t2), t1 != t2, satisfying every
/// condition. Rows with nulls in any condition attribute never join.
std::vector<RowIndexPair> IEJoin(ExecutionContext* ctx,
                                 const PartitionView<Row>& rows,
                                 const std::vector<OrderingCondition>& conditions,
                                 IEJoinStats* stats = nullptr);

/// True when `conditions` fits IEJoin (at least two ordering conditions;
/// the first two drive the join).
bool IEJoinApplicable(const std::vector<OrderingCondition>& conditions);

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_IEJOIN_H_
