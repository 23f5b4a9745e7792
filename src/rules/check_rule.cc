#include "rules/check_rule.h"

#include <algorithm>

namespace bigdansing {

CheckRule::CheckRule(std::string name, std::vector<Predicate> predicates)
    : Rule(std::move(name)), predicates_(std::move(predicates)) {}

std::vector<std::string> CheckRule::RelevantAttributes() const {
  std::vector<std::string> attrs;
  auto add = [&](const std::string& a) {
    if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
      attrs.push_back(a);
    }
  };
  for (const auto& p : predicates_) {
    add(p.left_attr);
    if (!p.right_is_constant) add(p.right_attr);
  }
  return attrs;
}

Status CheckRule::Bind(const Schema& schema) {
  bound_.clear();
  for (const auto& p : predicates_) {
    if (p.left_tuple != 1 || (!p.right_is_constant && p.right_tuple != 1)) {
      return Status::InvalidArgument(
          "CheckRule predicates must reference t1 only: " + p.ToString());
    }
    auto bp = BoundPredicate::Bind(p, schema);
    if (!bp.ok()) return bp.status();
    bound_.push_back(std::move(*bp));
  }
  bound_schema_ = schema;
  return Status::OK();
}

void CheckRule::DetectSingle(const Row& t, std::vector<Violation>* out) const {
  for (const auto& bp : bound_) {
    if (!bp.Eval(t, t)) return;
  }
  Violation v;
  v.rule_name = name();
  for (const auto& bp : bound_) {
    v.cells.push_back(MakeCell(t, bp.left_column(), bound_schema_));
    if (!bp.pred().right_is_constant) {
      v.cells.push_back(MakeCell(t, bp.right_column(), bound_schema_));
    }
  }
  out->push_back(std::move(v));
}

void CheckRule::GenFix(const Violation& violation,
                       std::vector<Fix>* out) const {
  size_t cell_index = 0;
  for (const auto& bp : bound_) {
    const Predicate& p = bp.pred();
    if (cell_index >= violation.cells.size()) return;
    Fix fix;
    fix.left = violation.cells[cell_index++];
    fix.op = FixOpFor(NegateOp(p.op));
    if (p.right_is_constant) {
      fix.right = FixTerm::MakeConstant(p.constant);
    } else {
      if (cell_index >= violation.cells.size()) return;
      fix.right = FixTerm::MakeCell(violation.cells[cell_index++]);
    }
    out->push_back(std::move(fix));
  }
}

}  // namespace bigdansing
