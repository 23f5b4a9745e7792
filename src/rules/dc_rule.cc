#include "rules/dc_rule.h"

#include <algorithm>
#include <set>

namespace bigdansing {

namespace {

/// Canonical text form of a predicate with tuple indices optionally swapped;
/// two-tuple predicates are normalized so t1 appears on the left. Used for
/// the symmetry check.
std::string CanonicalForm(const Predicate& p, bool swap) {
  auto tup = [&](int t) { return swap ? 3 - t : t; };
  int lt = tup(p.left_tuple);
  if (p.right_is_constant) {
    return "t" + std::to_string(lt) + "." + p.left_attr + CmpOpName(p.op) +
           "#" + p.constant.ToString();
  }
  int rt = tup(p.right_tuple);
  std::string la = p.left_attr;
  std::string ra = p.right_attr;
  CmpOp op = p.op;
  if (lt > rt || (lt == rt && la > ra)) {
    std::swap(lt, rt);
    std::swap(la, ra);
    op = FlipOp(op);
  }
  return "t" + std::to_string(lt) + "." + la + CmpOpName(op) + "t" +
         std::to_string(rt) + "." + ra;
}

}  // namespace

DcRule::DcRule(std::string name, std::vector<Predicate> predicates)
    : Rule(std::move(name)), predicates_(std::move(predicates)) {}

std::vector<std::string> DcRule::RelevantAttributes() const {
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

std::vector<std::string> DcRule::BlockingAttributes() const {
  std::vector<std::string> attrs;
  for (const auto& p : predicates_) {
    if (p.op == CmpOp::kEq && !p.right_is_constant &&
        p.left_tuple != p.right_tuple && p.left_attr == p.right_attr) {
      attrs.push_back(p.left_attr);
    }
  }
  return attrs;
}

bool DcRule::IsSymmetric() const {
  std::multiset<std::string> original;
  std::multiset<std::string> swapped;
  for (const auto& p : predicates_) {
    original.insert(CanonicalForm(p, /*swap=*/false));
    swapped.insert(CanonicalForm(p, /*swap=*/true));
  }
  return original == swapped;
}

std::vector<OrderingCondition> DcRule::OrderingConditions() const {
  std::vector<OrderingCondition> conds;
  for (const auto& p : predicates_) {
    if (!IsOrderingOp(p.op) || p.right_is_constant) continue;
    if (p.left_tuple == p.right_tuple) continue;
    OrderingCondition c;
    if (p.left_tuple == 1) {
      c.left_attr = p.left_attr;
      c.op = p.op;
      c.right_attr = p.right_attr;
    } else {
      // Normalize to t1 on the left.
      c.left_attr = p.right_attr;
      c.op = FlipOp(p.op);
      c.right_attr = p.left_attr;
    }
    conds.push_back(std::move(c));
  }
  return conds;
}

Status DcRule::Bind(const Schema& schema) {
  bound_.clear();
  for (const auto& p : predicates_) {
    auto bp = BoundPredicate::Bind(p, schema);
    if (!bp.ok()) return bp.status();
    bound_.push_back(std::move(*bp));
  }
  bound_schema_ = schema;
  bound_right_schema_ = schema;
  return Status::OK();
}

Status DcRule::BindAcross(const Schema& left_schema,
                          const Schema& right_schema) {
  bound_.clear();
  for (const auto& p : predicates_) {
    auto bp = BoundPredicate::BindAcross(p, left_schema, right_schema);
    if (!bp.ok()) return bp.status();
    bound_.push_back(std::move(*bp));
  }
  bound_schema_ = left_schema;
  bound_right_schema_ = right_schema;
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>>
DcRule::BlockingAttributePairs() const {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& p : predicates_) {
    if (p.op != CmpOp::kEq || p.right_is_constant ||
        p.left_tuple == p.right_tuple) {
      continue;
    }
    if (p.left_tuple == 1) {
      pairs.emplace_back(p.left_attr, p.right_attr);
    } else {
      pairs.emplace_back(p.right_attr, p.left_attr);
    }
  }
  return pairs;
}

void DcRule::Detect(const Row& t1, const Row& t2,
                    std::vector<Violation>* out) const {
  // Pair enumeration (Iterate / OCJoin / CoBlock) guarantees t1 and t2 are
  // distinct units, so no self-pair check is needed here.
  for (const auto& bp : bound_) {
    if (!bp.Eval(t1, t2)) return;
  }
  // Violation layout (consumed by GenFix): per predicate, the left cell
  // followed by the right cell when the right side is a cell.
  Violation v;
  v.rule_name = name();
  for (const auto& bp : bound_) {
    const Predicate& p = bp.pred();
    const Row& lrow = p.left_tuple == 1 ? t1 : t2;
    const Schema& lschema = p.left_tuple == 1 ? bound_schema_ : bound_right_schema_;
    v.cells.push_back(MakeCell(lrow, bp.left_column(), lschema));
    if (!p.right_is_constant) {
      const Row& rrow = p.right_tuple == 1 ? t1 : t2;
      const Schema& rschema =
          p.right_tuple == 1 ? bound_schema_ : bound_right_schema_;
      v.cells.push_back(MakeCell(rrow, bp.right_column(), rschema));
    }
  }
  out->push_back(std::move(v));
}

void DcRule::GenFix(const Violation& violation, std::vector<Fix>* out) const {
  // Each predicate held; negating any one of them resolves the violation.
  size_t cell_index = 0;
  for (const auto& bp : bound_) {
    const Predicate& p = bp.pred();
    if (cell_index >= violation.cells.size()) return;  // Malformed violation.
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
