#ifndef BIGDANSING_CORE_MULTI_DC_H_
#define BIGDANSING_CORE_MULTI_DC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/rule_engine.h"
#include "data/table.h"
#include "dataflow/context.h"
#include "rules/predicate.h"
#include "rules/violation.h"

namespace bigdansing {

/// A denial constraint over three tuple variables — the Appendix E bushy
/// plan case, e.g. rule (c3):
///
///   ∀ t1, t2 ∈ L, t3 ∈ G ¬( t1.LID != t2.LID ∧ t1.LID = t2.MID ∧
///                            t1.FN != t3.FN ∧ t1.LN != t3.LN ∧
///                            t1.City = t3.City ∧ t3.Role = "M" )
///
/// t1 and t2 range over the *pair table* (L) and t3 over the *third table*
/// (G). Predicates use tuple indices 1..3; predicates on (1,2) drive the
/// self co-block of L, and an equality between (1 or 2) and 3 drives the
/// join with G — together they form the bushy plan of Figure 16.
class ThreeTupleDcRule {
 public:
  ThreeTupleDcRule(std::string name, std::vector<Predicate> predicates)
      : name_(std::move(name)), predicates_(std::move(predicates)) {}

  const std::string& name() const { return name_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }

  /// Resolves attributes: tuples 1/2 against `pair_schema`, tuple 3
  /// against `third_schema`. Fails when no equality predicate links the
  /// pair side to t3 (the plan would degenerate to a cross product, which
  /// this executor refuses).
  Status Bind(const Schema& pair_schema, const Schema& third_schema);

  /// True when (t1, t2, t3) satisfies every predicate (a violation).
  bool Matches(const Row& t1, const Row& t2, const Row& t3) const;

  /// Builds the violation for a matching triple: one cell per predicate
  /// operand, in predicate order (mirrors DcRule's layout).
  Violation MakeViolation(const Row& t1, const Row& t2, const Row& t3) const;

  /// Possible fixes: the negation of each predicate.
  std::vector<Fix> GenFixes(const Violation& violation) const;

  /// Index of the t1-t2 equality predicate chosen as the self co-block
  /// key (valid after Bind; Bind fails when absent).
  size_t pair_link() const { return pair_link_; }
  /// Index of the equality predicate linking the pair side to t3.
  size_t third_link() const { return third_link_; }

 private:
  friend Result<std::vector<ViolationWithFixes>> DetectThreeTuple(
      ExecutionContext* ctx, const Table& pair_table, const Table& third_table,
      const std::shared_ptr<ThreeTupleDcRule>& rule, uint64_t* probes);

  static constexpr size_t kNoLink = static_cast<size_t>(-1);

  /// Whether predicate `i` holds over the tuples; `t3` may be null when
  /// the predicate does not reference it.
  bool PredicateHolds(size_t i, const Row& t1, const Row& t2,
                      const Row* t3) const;

  std::string name_;
  std::vector<Predicate> predicates_;
  /// Resolved column of each predicate's left/right operand (right unused
  /// for constants), against the schema of the tuple that operand names.
  std::vector<size_t> left_columns_;
  std::vector<size_t> right_columns_;
  Schema pair_schema_;
  Schema third_schema_;
  size_t pair_link_ = kNoLink;   // Index of the t1-t2 equality predicate.
  size_t third_link_ = kNoLink;  // Index of the (t1|t2)-t3 equality predicate.
};

/// Parses a three-tuple DC: "DC3: t1.LID != t2.LID & t1.LID = t2.MID &
/// t1.City = t3.City & t3.Role = \"M\"" (same predicate grammar as DC:,
/// plus t3 references; an optional "name:" prefix applies as usual).
Result<std::shared_ptr<ThreeTupleDcRule>> ParseThreeTupleDc(
    const std::string& text);

/// Executes the bushy plan (Figure 16): co-blocks the pair table on the
/// t1-t2 equality link, joins the surviving pairs with the third table on
/// the t3 equality link, evaluates the residual predicates per triple, and
/// returns violations with fixes. `probes` (optional) receives the number
/// of triples evaluated.
Result<std::vector<ViolationWithFixes>> DetectThreeTuple(
    ExecutionContext* ctx, const Table& pair_table, const Table& third_table,
    const std::shared_ptr<ThreeTupleDcRule>& rule, uint64_t* probes = nullptr);

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_MULTI_DC_H_
