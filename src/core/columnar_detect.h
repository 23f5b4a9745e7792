#ifndef BIGDANSING_CORE_COLUMNAR_DETECT_H_
#define BIGDANSING_CORE_COLUMNAR_DETECT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
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

/// Compact handle to a base-table row: partition + index within the
/// partition. The kernel path shuffles these 8-byte refs instead of whole
/// Rows; the grouped block layout stays identical because GroupByKey's
/// output depends only on the key sequence, never on the value type.
struct RowRef {
  uint32_t part;
  uint32_t idx;
};

/// The per-row projection PScope applies (values + source-column mapping,
/// id preserved). The kernel path skips it altogether — codes are built
/// straight from base rows and compiled GenFix maps detect-schema columns
/// to base columns — while the interpreted stages and UDF block keys
/// project with it.
inline Row ScopeProject(const Row& row,
                        const std::vector<size_t>& scope_columns) {
  std::vector<Value> values;
  values.reserve(scope_columns.size());
  std::vector<size_t> sources;
  sources.reserve(scope_columns.size());
  for (size_t c : scope_columns) {
    values.push_back(row.value(row.source_column(c)));
    sources.push_back(row.source_column(c));
  }
  Row out(row.id(), std::move(values));
  out.set_source_columns(std::move(sources));
  return out;
}

/// `row` in a plan's detect schema: `row` itself when the plan has no
/// scope (no copy), else its projection, written to `*storage`.
inline const Row& DetectRow(const Row& row,
                            const std::vector<size_t>& scope_columns,
                            Row* storage) {
  if (scope_columns.empty()) return row;
  *storage = ScopeProject(row, scope_columns);
  return *storage;
}

/// Per-DetectAll caches for the kernel path, keyed in base-column space so
/// rules with different scopes still share work: encoded column sets keyed
/// by pool-sharing group, and grouped RowRef blocks keyed by the blocking
/// columns.
struct ColumnarCaches {
  std::unordered_map<std::string, EncodedColumnSet> encoded;
  std::unordered_map<std::string,
                     Dataset<std::pair<uint64_t, std::vector<RowRef>>>>
      blocks;
};

/// Runs one rule's Detect through the columnar kernel path when the rule is
/// kernelizable (a registered compiler accepts it, no UDF block key, not a
/// global OCJoin). Appends its violations to `violations` and its counters
/// to `result` and returns true on success; returns false — without
/// running any stage — when the rule must take the interpreted path.
/// `base` must view a table's rows in order (PartitionView::Split), since
/// the cells written carry table positions. Output is bit-identical to the
/// interpreted path: the kernel decides which candidates match and the
/// rule's compiled GenFix writes what Rule::Detect/GenFix would, in the
/// same enumeration order.
bool TryDetectColumnar(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                       const PartitionView<Row>& base, ColumnarCaches* caches,
                       ViolationBuffer* violations, DetectionResult* result);

}  // namespace columnar
}  // namespace bigdansing

#endif  // BIGDANSING_CORE_COLUMNAR_DETECT_H_
