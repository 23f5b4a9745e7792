#include "core/multi_dc.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "dataflow/dataset.h"
#include "rules/parser.h"

namespace bigdansing {

Status ThreeTupleDcRule::Bind(const Schema& pair_schema,
                              const Schema& third_schema) {
  left_columns_.clear();
  right_columns_.clear();
  pair_link_ = kNoLink;
  third_link_ = kNoLink;
  for (size_t i = 0; i < predicates_.size(); ++i) {
    const Predicate& p = predicates_[i];
    if (p.left_tuple < 1 || p.left_tuple > 3 ||
        (!p.right_is_constant && (p.right_tuple < 1 || p.right_tuple > 3))) {
      return Status::InvalidArgument("predicate references unknown tuple: " +
                                     p.ToString());
    }
    // Resolve each operand against the schema of the tuple it names.
    const Schema& lschema = p.left_tuple == 3 ? third_schema : pair_schema;
    auto left = lschema.IndexOf(p.left_attr);
    if (!left.ok()) return left.status();
    size_t right_col = 0;
    if (!p.right_is_constant) {
      const Schema& rschema =
          p.right_tuple == 3 ? third_schema : pair_schema;
      auto right = rschema.IndexOf(p.right_attr);
      if (!right.ok()) return right.status();
      right_col = *right;
    }
    left_columns_.push_back(*left);
    right_columns_.push_back(right_col);
    // Link discovery.
    if (p.op == CmpOp::kEq && !p.right_is_constant) {
      bool left_pair = p.left_tuple <= 2;
      bool right_pair = p.right_tuple <= 2;
      if (left_pair && right_pair && p.left_tuple != p.right_tuple &&
          pair_link_ == kNoLink) {
        pair_link_ = i;
      }
      if (left_pair != right_pair && third_link_ == kNoLink) {
        third_link_ = i;
      }
    }
  }
  if (third_link_ == kNoLink) {
    return Status::InvalidArgument(
        "three-tuple DC needs an equality predicate linking t1/t2 to t3 "
        "(otherwise the plan is a cross product)");
  }
  if (pair_link_ == kNoLink) {
    return Status::InvalidArgument(
        "three-tuple DC needs an equality predicate between t1 and t2");
  }
  pair_schema_ = pair_schema;
  third_schema_ = third_schema;
  return Status::OK();
}

bool ThreeTupleDcRule::PredicateHolds(size_t i, const Row& t1, const Row& t2,
                                      const Row* t3) const {
  const Predicate& p = predicates_[i];
  auto row_of = [&](int tuple) -> const Row& {
    return tuple == 1 ? t1 : (tuple == 2 ? t2 : *t3);
  };
  const Value& left = row_of(p.left_tuple).value(left_columns_[i]);
  return p.Holds(left, p.right_is_constant
                           ? p.constant
                           : row_of(p.right_tuple).value(right_columns_[i]));
}

bool ThreeTupleDcRule::Matches(const Row& t1, const Row& t2,
                               const Row& t3) const {
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (!PredicateHolds(i, t1, t2, &t3)) return false;
  }
  return true;
}

Violation ThreeTupleDcRule::MakeViolation(const Row& t1, const Row& t2,
                                          const Row& t3) const {
  Violation v;
  v.rule_name = name_;
  for (size_t i = 0; i < predicates_.size(); ++i) {
    const Predicate& p = predicates_[i];
    auto make_cell = [&](int tuple, size_t column) {
      const Row& row = tuple == 1 ? t1 : (tuple == 2 ? t2 : t3);
      const Schema& schema = tuple == 3 ? third_schema_ : pair_schema_;
      Cell c;
      c.ref.row_id = row.id();
      c.ref.column = column;
      c.attribute = schema.attribute(column);
      c.value = row.value(column);
      return c;
    };
    v.cells.push_back(make_cell(p.left_tuple, left_columns_[i]));
    if (!p.right_is_constant) {
      v.cells.push_back(make_cell(p.right_tuple, right_columns_[i]));
    }
  }
  return v;
}

std::vector<Fix> ThreeTupleDcRule::GenFixes(const Violation& violation) const {
  std::vector<Fix> fixes;
  size_t cell = 0;
  for (const Predicate& p : predicates_) {
    if (cell >= violation.cells.size()) break;
    Fix fix;
    fix.left = violation.cells[cell++];
    fix.op = FixOpFor(NegateOp(p.op));
    if (p.right_is_constant) {
      fix.right = FixTerm::MakeConstant(p.constant);
    } else {
      if (cell >= violation.cells.size()) break;
      fix.right = FixTerm::MakeCell(violation.cells[cell++]);
    }
    fixes.push_back(std::move(fix));
  }
  return fixes;
}

Result<std::shared_ptr<ThreeTupleDcRule>> ParseThreeTupleDc(
    const std::string& text) {
  std::string_view rest = Trim(text);
  std::string name(rest);
  auto lower = ToLower(rest);
  size_t body_pos = std::string::npos;
  if (StartsWith(lower, "dc3:")) {
    body_pos = 4;
  } else {
    size_t colon = rest.find(':');
    if (colon != std::string_view::npos) {
      auto after = Trim(rest.substr(colon + 1));
      if (StartsWith(ToLower(after), "dc3:")) {
        name = std::string(Trim(rest.substr(0, colon)));
        rest = after;
        body_pos = 4;
      }
    }
  }
  if (body_pos == std::string::npos) {
    return Status::ParseError("three-tuple DC must start with 'DC3:'");
  }
  auto preds = ParsePredicateConjunction(
      std::string(Trim(rest.substr(body_pos))));
  if (!preds.ok()) return preds.status();
  bool any_third = false;
  for (const auto& p : *preds) {
    any_third = any_third || p.left_tuple == 3 ||
                (!p.right_is_constant && p.right_tuple == 3);
  }
  if (!any_third) {
    return Status::ParseError("DC3 must reference t3; use DC: otherwise");
  }
  return std::make_shared<ThreeTupleDcRule>(name, std::move(*preds));
}

Result<std::vector<ViolationWithFixes>> DetectThreeTuple(
    ExecutionContext* ctx, const Table& pair_table, const Table& third_table,
    const std::shared_ptr<ThreeTupleDcRule>& rule, uint64_t* probes) {
  BIGDANSING_RETURN_NOT_OK(
      rule->Bind(pair_table.schema(), third_table.schema()));
  const auto& preds = rule->predicates();
  const Predicate& pair_link = preds[rule->pair_link_];
  const Predicate& third_link = preds[rule->third_link_];

  // Columns of the pair link, normalized so `t1_col` keys the t1 role.
  size_t t1_col = rule->left_columns_[rule->pair_link_];
  size_t t2_col = rule->right_columns_[rule->pair_link_];
  if (pair_link.left_tuple == 2) std::swap(t1_col, t2_col);

  // The third link: which pair tuple joins t3, and on which columns.
  int pair_side_tuple;
  size_t pair_side_col;
  size_t t3_col;
  if (third_link.left_tuple == 3) {
    pair_side_tuple = third_link.right_tuple;
    pair_side_col = rule->right_columns_[rule->third_link_];
    t3_col = rule->left_columns_[rule->third_link_];
  } else {
    pair_side_tuple = third_link.left_tuple;
    pair_side_col = rule->left_columns_[rule->third_link_];
    t3_col = rule->right_columns_[rule->third_link_];
  }

  // Everything below runs dataflow stages, which surface retry-budget
  // exhaustion as a StageError; this function is the Status boundary.
  try {
  // Stage 1 (left side of the bushy plan): self co-block of the pair table
  // on the t1-t2 equality link, evaluating pair-only predicates early.
  Dataset<Row> pair_rows =
      Dataset<Row>::FromVector(ctx, pair_table.rows());
  auto key_by = [ctx](const Dataset<Row>& ds, size_t col) {
    return ds.MapPartitions<std::pair<uint64_t, Row>>(
        [col](const std::vector<Row>& part) {
          std::vector<std::pair<uint64_t, Row>> out;
          out.reserve(part.size());
          for (const Row& row : part) {
            const Value& v = row.value(col);
            if (!v.is_null()) out.emplace_back(v.Hash(), row);
          }
          return out;
        });
  };
  auto coblocks = CoGroup(key_by(pair_rows, t1_col), key_by(pair_rows, t2_col));

  // Pair-only predicates (no t3 reference) prune candidates early.
  std::vector<size_t> pair_only;
  std::vector<size_t> with_third;
  for (size_t i = 0; i < preds.size(); ++i) {
    bool third = preds[i].left_tuple == 3 ||
                 (!preds[i].right_is_constant && preds[i].right_tuple == 3);
    (third ? with_third : pair_only).push_back(i);
  }
  // Whether every predicate in `indices` holds; t3 is null before the
  // third table joins.
  auto all_hold = [&](const std::vector<size_t>& indices, const Row& t1,
                      const Row& t2, const Row* t3) {
    return std::all_of(indices.begin(), indices.end(), [&](size_t i) {
      return rule->PredicateHolds(i, t1, t2, t3);
    });
  };

  // Candidate pairs keyed by their t3 join value. Each task returns its
  // buffer (retry/speculation-safe: one commit per task).
  const auto& cparts = coblocks.partitions();
  std::vector<std::vector<std::pair<uint64_t, RowPair>>> per_part =
      coblocks.RunStageProducing<std::vector<std::pair<uint64_t, RowPair>>>(
          "iterate:3dc-pairs", [&](size_t p, TaskContext& tc) {
            std::vector<std::pair<uint64_t, RowPair>> out;
            for (const auto& kv : cparts[p]) {
              for (const Row& a : kv.second.first) {
                for (const Row& b : kv.second.second) {
                  if (a.id() == b.id()) continue;
                  if (!all_hold(pair_only, a, b, nullptr)) continue;
                  const Row& join_row = pair_side_tuple == 1 ? a : b;
                  const Value& jv = join_row.value(pair_side_col);
                  if (jv.is_null()) continue;
                  out.emplace_back(jv.Hash(), RowPair{a, b});
                }
              }
            }
            tc.records_out = out.size();
            return out;
          });
  std::vector<std::pair<uint64_t, RowPair>> keyed_pairs;
  for (auto& part : per_part) {
    keyed_pairs.insert(keyed_pairs.end(),
                       std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
  }
  auto pairs_ds = Dataset<std::pair<uint64_t, RowPair>>::FromVector(
      ctx, std::move(keyed_pairs));

  // Stage 2 (right side of the plan): scope + block the third table, then
  // co-group with the candidate pairs and evaluate the residual predicates.
  std::vector<size_t> third_only;
  for (size_t i : with_third) {
    const Predicate& p = preds[i];
    bool only_third =
        p.left_tuple == 3 && (p.right_is_constant || p.right_tuple == 3);
    if (only_third) third_only.push_back(i);
  }
  Dataset<Row> third_rows =
      Dataset<Row>::FromVector(ctx, third_table.rows());
  auto third_keyed = third_rows.MapPartitions<std::pair<uint64_t, Row>>(
      [&](const std::vector<Row>& part) {
        std::vector<std::pair<uint64_t, Row>> out;
        for (const Row& row : part) {
          // Scope: predicates touching only t3 (e.g. t3.Role = "M").
          if (!all_hold(third_only, row, row, &row)) continue;
          const Value& v = row.value(t3_col);
          if (!v.is_null()) out.emplace_back(v.Hash(), row);
        }
        return out;
      });

  auto joined = CoGroup(pairs_ds, third_keyed);
  const auto& jparts = joined.partitions();
  struct ThirdOut {
    std::vector<ViolationWithFixes> violations;
    uint64_t probes = 0;
  };
  std::vector<ThirdOut> outputs = joined.RunStageProducing<ThirdOut>(
      "detect|genfix:3dc", [&](size_t p, TaskContext& tc) {
        ThirdOut out;
        for (const auto& kv : jparts[p]) {
          for (const RowPair& pair : kv.second.first) {
            for (const Row& t3 : kv.second.second) {
              ++out.probes;
              if (!all_hold(with_third, pair.left, pair.right, &t3)) continue;
              ViolationWithFixes vf;
              vf.violation = rule->MakeViolation(pair.left, pair.right, t3);
              vf.fixes = rule->GenFixes(vf.violation);
              out.violations.push_back(std::move(vf));
            }
          }
        }
        ctx->metrics().AddPairsEnumerated(out.probes);
        tc.records_out = out.violations.size();
        return out;
      });

  std::vector<ViolationWithFixes> result;
  uint64_t total_probes = 0;
  for (auto& out : outputs) {
    total_probes += out.probes;
    result.insert(result.end(),
                  std::make_move_iterator(out.violations.begin()),
                  std::make_move_iterator(out.violations.end()));
  }
  if (probes != nullptr) *probes = total_probes;
  return result;
  } catch (const StageError& e) {
    return e.status();
  }
}

}  // namespace bigdansing
