#ifndef BIGDANSING_CORE_PHYSICAL_PLAN_H_
#define BIGDANSING_CORE_PHYSICAL_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/logical_plan.h"
#include "data/schema.h"
#include "rules/rule.h"
#include "rules/udf_rule.h"

namespace bigdansing {

class ScopedSpan;

/// How the physical Iterate enumerates candidate unit pairs (§4.1/§4.2).
/// kCrossProduct is the wrapper translation; the others are enhancers.
enum class IterateStrategy {
  /// All ordered pairs (n² - n per block). Baseline wrapper.
  kCrossProduct,
  /// Unordered pairs (n(n-1)/2 per block); legal when the rule is
  /// symmetric. The UCrossProduct enhancer.
  kUCrossProduct,
  /// Range-partitioned sort-merge join on ordering conditions (§4.3).
  kOCJoin,
  /// No pairing — arity-1 rules feed units straight to Detect.
  kSingle,
};

/// Returns "CrossProduct", "UCrossProduct", "OCJoin" or "Single".
const char* IterateStrategyName(IterateStrategy strategy);

/// The physical plan for one rule: wrappers plus the enhancer choices made
/// by the optimizer. All attribute references are resolved against the
/// schema Detect will see (after Scope).
struct PhysicalRulePlan {
  RulePtr rule;

  /// Base-table columns kept by PScope; empty means no scoping (all
  /// columns pass through).
  std::vector<size_t> scope_columns;
  /// Schema after PScope — the schema the rule was bound against.
  Schema detect_schema;

  /// Columns of `detect_schema` forming the blocking key; empty when the
  /// rule has no blocking attributes.
  std::vector<size_t> blocking_columns;
  /// Optional procedural blocking key (UdfRule); overrides
  /// `blocking_columns` when set.
  UdfRule::BlockKeyFn block_key_fn;

  IterateStrategy strategy = IterateStrategy::kCrossProduct;

  /// Bound ordering conditions when strategy == kOCJoin.
  std::vector<OrderingCondition> ocjoin_conditions;

  /// One-line description for plan tests and EXPLAIN-style output.
  std::string ToString() const;

  /// Attaches the plan's static choices (strategy, scope/blocking columns)
  /// to a trace span so the runtime EXPLAIN shows plan next to measurement.
  void AnnotateSpan(ScopedSpan* span) const;
};

/// Optimizer options; benches toggle these to ablate individual
/// optimizations (Fig 11(c), Fig 12(a)).
struct PlannerOptions {
  bool enable_scope = true;
  bool enable_blocking = true;
  bool enable_ucross_product = true;
  bool enable_ocjoin = true;
  /// Use IEJoin (the sort/permutation/bit-array follow-on algorithm)
  /// instead of OCJoin's partitioned sort-merge when a rule has two or
  /// more ordering conditions.
  bool use_iejoin = false;
};

/// Translates a rule into its optimized physical plan (§4.2 "operators
/// translation"): binds the rule against the scoped schema and picks the
/// Iterate enhancer from the rule's hints.
Result<PhysicalRulePlan> BuildPhysicalPlan(const RulePtr& rule,
                                           const Schema& base_schema,
                                           const PlannerOptions& options);

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_PHYSICAL_PLAN_H_
