#ifndef BIGDANSING_CORE_COLUMNAR_DETECT_H_
#define BIGDANSING_CORE_COLUMNAR_DETECT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/physical_plan.h"
#include "core/rule_engine.h"
#include "data/dictionary.h"
#include "data/row.h"
#include "dataflow/context.h"
#include "dataflow/dataset.h"

namespace bigdansing {
namespace columnar {

/// Compact handle to a viewed row: partition + index within the partition.
/// The blocked stages shuffle these 8-byte refs instead of whole Rows; the
/// grouped block layout depends only on the key sequence, never on the
/// value type.
struct RowRef {
  uint32_t part;
  uint32_t idx;
};

/// `row` in a plan's detect schema: `row` itself when the plan has no
/// scope (no copy), else the projection PScope applies (values and
/// source-column mapping, id preserved), written to `*storage`. No stage
/// projects a whole table: a unit's detect-schema row is built on demand
/// where Rule::Detect, Rule::GenFix or a UDF block key reads it, while
/// kernels read codes encoded straight from base rows and compiled GenFix
/// maps detect-schema columns to base columns.
inline const Row& DetectRow(const Row& row,
                            const std::vector<size_t>& scope_columns,
                            Row* storage) {
  if (scope_columns.empty()) return row;
  std::vector<Value> values;
  values.reserve(scope_columns.size());
  std::vector<size_t> sources;
  sources.reserve(scope_columns.size());
  for (size_t c : scope_columns) {
    values.push_back(row.value(row.source_column(c)));
    sources.push_back(row.source_column(c));
  }
  *storage = Row(row.id(), std::move(values));
  storage->set_source_columns(std::move(sources));
  return *storage;
}

/// A blocked plan's blocks: per block key, RowRefs into the view the keys
/// were computed over, each block in view order.
using Blocks = Dataset<std::pair<uint64_t, std::vector<RowRef>>>;

/// Per-DetectAll caches, keyed in base-column space so rules with
/// different scopes still share work: encoded column sets keyed by
/// pool-sharing group, and blocks keyed by the blocking columns (or by the
/// rule and scope a UDF block key reads).
struct ColumnarCaches {
  std::unordered_map<std::string, EncodedColumnSet> encoded;
  std::unordered_map<std::string, Blocks> blocks;
};

/// A rule's compiled kernel bound to its columns encoded over one view
/// (defined in columnar_detect.cc).
struct BoundKernel;

/// The block key of the table row `row` under `plan`, computed from its
/// Values: a stable hash of its blocking values, or the hash of the UDF
/// block key, which reads the row's detect-schema row (projected into
/// `*projected` when the plan has a scope). Returns false when the row
/// belongs to no block (a null key component or a null UDF key).
/// Collisions only merge blocks (Detect re-checks the actual predicates),
/// never lose pairs that belong together. A kernel hashes the same values
/// from per-code hashes (ValuePool::hash is Value::Hash), so both yield the
/// same keys.
bool ComputeBlockKey(const PhysicalRulePlan& plan, const Row& row,
                     Row* projected, uint64_t* key);

/// Runs one rule's Detect over the table `base` views, through the one
/// stage routine of its Iterate strategy: single units, blocks (block keys,
/// RowRef blocks, detect::IterateBlock), unblocked chunk pairs, or the
/// global inequality join. Appends its violations to `violations` and its
/// counters to `result`. `base` must view a table's rows in order
/// (PartitionView::Split), since the cells compiled GenFix writes carry
/// table positions.
///
/// A `changed` row set (null: the whole table) restricts detection to the
/// violations that hold a changed row, in the same routines: the single
/// stage decides only the changed units; a blocked plan keys the changed
/// rows' blocks (`block:dirty-keys`), then only those blocks' rows
/// (`block:dirty`), and runs the blocked stage over them; an unblocked
/// plan, the global join's included, pairs each changed row with every
/// row, under the unblocked stage's orientation rule. Such a request binds
/// no kernel: a kernel's codes cover the whole table.
///
/// With kernels enabled and a registered compiler for the rule (and no UDF
/// block key), exactly three things change, each under a `kernel:` stage
/// name: block keys come from the pools' per-code hashes instead of
/// ComputeBlockKey over Values, the compiled kernel decides each candidate
/// instead of Rule::Detect, and a ViolationWriter writes each violation
/// instead of Rule::GenFix. Enumeration and violation order are shared, so
/// the output is byte-identical either way. The global join runs OCJoin (or
/// IEJoin with `use_iejoin`) for every rule, with the compiled GenFix
/// deciding and writing its pairs when there is one.
void DetectRule(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                bool use_iejoin, const PartitionView<Row>& base,
                const std::unordered_set<RowId>* changed,
                ColumnarCaches* caches, ViolationBuffer* violations,
                DetectionResult* result);

/// The blocked Iterate -> Detect -> GenFix stage over `blocks` of `base`'s
/// rows, with morsels of whole blocks. Without a `kernel` (the changed-rows
/// and storage-pushdown requests' blocked passes, and rules that have none)
/// each unit's detect-schema row is built on demand and Rule::Detect and
/// Rule::GenFix run on every candidate pair.
void IterateBlocks(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                   const PartitionView<Row>& base, const Blocks& blocks,
                   ViolationBuffer* violations, DetectionResult* result,
                   const BoundKernel* kernel = nullptr);

/// Two-table detection of `rule`, bound across the schemas of the tables
/// `left` (t1) and `right` (t2) view, reading both in place. With equality
/// links t1.X = t2.Y (`left_cols[i]` with `right_cols[i]`), the CoBlock
/// enhancer: each side's rows are keyed as RowRefs by ComputeBlockKey's
/// hash fold, co-grouped, and each co-block probes its left x right pairs.
/// Without one, morsels of left rows each probe every right row in table
/// order; no pair is materialized.
void DetectAcross(ExecutionContext* ctx, const Rule& rule,
                  const PartitionView<Row>& left,
                  const PartitionView<Row>& right,
                  const std::vector<size_t>& left_cols,
                  const std::vector<size_t>& right_cols,
                  ViolationBuffer* violations, DetectionResult* result);

}  // namespace columnar
}  // namespace bigdansing

#endif  // BIGDANSING_CORE_COLUMNAR_DETECT_H_
