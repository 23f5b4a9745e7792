#ifndef BIGDANSING_RULES_PREDICATE_H_
#define BIGDANSING_RULES_PREDICATE_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "data/row.h"
#include "data/schema.h"
#include "data/value.h"
#include "rules/violation.h"

namespace bigdansing {

/// Comparison operator of a denial-constraint predicate.
enum class CmpOp { kEq, kNeq, kLt, kGt, kLeq, kGeq, kSimilar };

/// Returns "=", "!=", "<", ">", "<=", ">=", "~".
const char* CmpOpName(CmpOp op);

/// True for operators whose truth is unchanged when both sides are swapped
/// together with the operator flip applied (used for symmetry analysis).
bool IsEqualityOp(CmpOp op);

/// True for ordering comparisons (<, >, <=, >=) — the OCJoin triggers.
bool IsOrderingOp(CmpOp op);

/// The operator `op` such that `a op b == b Flip(op) a`.
CmpOp FlipOp(CmpOp op);

/// The negation of `op` (e.g. < becomes >=). kSimilar has no negation in the
/// fix language and maps to kNeq of the compared cells.
CmpOp NegateOp(CmpOp op);

/// The fix operator stating `op`: DC and CHECK GenFix (interpreted and
/// compiled) propose FixOpFor(NegateOp(p.op)) per predicate p. kSimilar,
/// which NegateOp never yields, maps to kEq.
FixOp FixOpFor(CmpOp op);

/// `left op right` for the comparison operators. Null operands make every
/// comparison false (SQL-like three-valued logic collapsed to false).
/// kSimilar needs its threshold and is false here; Predicate::Holds
/// decides it.
inline bool EvalCmp(const Value& left, CmpOp op, const Value& right) {
  if (left.is_null() || right.is_null()) return false;
  switch (op) {
    case CmpOp::kEq:
      return left == right;
    case CmpOp::kNeq:
      return left != right;
    case CmpOp::kLt:
      return left < right;
    case CmpOp::kGt:
      return left > right;
    case CmpOp::kLeq:
      return left <= right;
    case CmpOp::kGeq:
      return left >= right;
    case CmpOp::kSimilar:
      break;
  }
  return false;
}

/// One conjunct of a denial constraint over a tuple pair (t1, t2):
///   t<left_tuple>.left_attr  op  t<right_tuple>.right_attr | constant
/// A unary predicate (single-tuple rule) references t1 on both sides or a
/// constant on the right.
struct Predicate {
  int left_tuple = 1;  ///< 1 or 2.
  std::string left_attr;
  CmpOp op = CmpOp::kEq;
  bool right_is_constant = false;
  int right_tuple = 2;  ///< 1 or 2; meaningful when !right_is_constant.
  std::string right_attr;
  Value constant;
  /// Threshold for kSimilar (normalized Levenshtein similarity).
  double similarity_threshold = 0.8;

  /// `left op right`: EvalCmp, or for kSimilar a similarity of at least
  /// `similarity_threshold` between the rendered values. Null operands
  /// make it false.
  bool Holds(const Value& left, const Value& right) const;

  /// "t1.salary > t2.salary" rendering.
  std::string ToString() const;
};

/// A predicate with attribute names resolved to column indices of the schema
/// the Detect operator will see. Binding happens once per plan, evaluation
/// once per candidate pair.
class BoundPredicate {
 public:
  /// Resolves `pred` against `schema`; fails if an attribute is missing.
  static Result<BoundPredicate> Bind(const Predicate& pred,
                                     const Schema& schema);

  /// Resolves `pred` for a two-table rule: attributes of t1 resolve against
  /// `left_schema`, attributes of t2 against `right_schema`.
  static Result<BoundPredicate> BindAcross(const Predicate& pred,
                                           const Schema& left_schema,
                                           const Schema& right_schema);

  /// Evaluates over (t1, t2). Null operands make every comparison false
  /// (SQL-like three-valued logic collapsed to false).
  bool Eval(const Row& t1, const Row& t2) const;

  const Predicate& pred() const { return pred_; }
  size_t left_column() const { return left_column_; }
  size_t right_column() const { return right_column_; }

 private:
  Predicate pred_;
  size_t left_column_ = 0;
  size_t right_column_ = 0;
};

}  // namespace bigdansing

#endif  // BIGDANSING_RULES_PREDICATE_H_
