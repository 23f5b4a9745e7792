#include "rules/predicate.h"

#include "common/logging.h"
#include "rules/similarity.h"

namespace bigdansing {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNeq:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kLeq:
      return "<=";
    case CmpOp::kGeq:
      return ">=";
    case CmpOp::kSimilar:
      return "~";
  }
  return "?";
}

bool IsEqualityOp(CmpOp op) {
  return op == CmpOp::kEq || op == CmpOp::kNeq || op == CmpOp::kSimilar;
}

bool IsOrderingOp(CmpOp op) {
  return op == CmpOp::kLt || op == CmpOp::kGt || op == CmpOp::kLeq ||
         op == CmpOp::kGeq;
}

CmpOp FlipOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kLeq:
      return CmpOp::kGeq;
    case CmpOp::kGeq:
      return CmpOp::kLeq;
    default:
      return op;  // =, !=, ~ are symmetric.
  }
}

FixOp FixOpFor(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return FixOp::kEq;
    case CmpOp::kNeq:
      return FixOp::kNeq;
    case CmpOp::kLt:
      return FixOp::kLt;
    case CmpOp::kGt:
      return FixOp::kGt;
    case CmpOp::kLeq:
      return FixOp::kLeq;
    case CmpOp::kGeq:
      return FixOp::kGeq;
    case CmpOp::kSimilar:
      break;
  }
  return FixOp::kEq;
}

CmpOp NegateOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kNeq;
    case CmpOp::kNeq:
      return CmpOp::kEq;
    case CmpOp::kLt:
      return CmpOp::kGeq;
    case CmpOp::kGt:
      return CmpOp::kLeq;
    case CmpOp::kLeq:
      return CmpOp::kGt;
    case CmpOp::kGeq:
      return CmpOp::kLt;
    case CmpOp::kSimilar:
      return CmpOp::kNeq;
  }
  return CmpOp::kNeq;
}

bool Predicate::Holds(const Value& left, const Value& right) const {
  if (op == CmpOp::kSimilar) {
    return !left.is_null() && !right.is_null() &&
           IsSimilar(left.ToString(), right.ToString(), similarity_threshold);
  }
  return EvalCmp(left, op, right);
}

std::string Predicate::ToString() const {
  std::string out =
      "t" + std::to_string(left_tuple) + "." + left_attr + " ";
  out += CmpOpName(op);
  out += " ";
  if (right_is_constant) {
    out += constant.ToString();
  } else {
    out += "t" + std::to_string(right_tuple) + "." + right_attr;
  }
  return out;
}

Result<BoundPredicate> BoundPredicate::Bind(const Predicate& pred,
                                            const Schema& schema) {
  BoundPredicate bound;
  bound.pred_ = pred;
  auto left = schema.IndexOf(pred.left_attr);
  if (!left.ok()) return left.status();
  bound.left_column_ = *left;
  if (!pred.right_is_constant) {
    auto right = schema.IndexOf(pred.right_attr);
    if (!right.ok()) return right.status();
    bound.right_column_ = *right;
  }
  return bound;
}

Result<BoundPredicate> BoundPredicate::BindAcross(const Predicate& pred,
                                                  const Schema& left_schema,
                                                  const Schema& right_schema) {
  BoundPredicate bound;
  bound.pred_ = pred;
  const Schema& lschema = pred.left_tuple == 1 ? left_schema : right_schema;
  auto left = lschema.IndexOf(pred.left_attr);
  if (!left.ok()) return left.status();
  bound.left_column_ = *left;
  if (!pred.right_is_constant) {
    const Schema& rschema = pred.right_tuple == 1 ? left_schema : right_schema;
    auto right = rschema.IndexOf(pred.right_attr);
    if (!right.ok()) return right.status();
    bound.right_column_ = *right;
  }
  return bound;
}

bool BoundPredicate::Eval(const Row& t1, const Row& t2) const {
  const Row& left_row = pred_.left_tuple == 1 ? t1 : t2;
  const Value& left = left_row.value(left_column_);
  const Value* right;
  if (pred_.right_is_constant) {
    right = &pred_.constant;
  } else {
    const Row& right_row = pred_.right_tuple == 1 ? t1 : t2;
    right = &right_row.value(right_column_);
  }
  return pred_.Holds(left, *right);
}

}  // namespace bigdansing
