#include "repair/hypergraph_repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "rules/violation.h"

namespace bigdansing {

namespace {

/// A constraint a fix imposes on one cell: `cell op bound`.
struct Constraint {
  FixOp op;
  Value bound;
};

/// The fix operator seen from the right-hand cell's perspective.
FixOp FlipFixOp(FixOp op) {
  switch (op) {
    case FixOp::kLt:
      return FixOp::kGt;
    case FixOp::kGt:
      return FixOp::kLt;
    case FixOp::kLeq:
      return FixOp::kGeq;
    case FixOp::kGeq:
      return FixOp::kLeq;
    default:
      return op;  // = and != are symmetric.
  }
}

bool EvalFixOp(const Value& a, FixOp op, const Value& b) {
  switch (op) {
    case FixOp::kEq:
      return a == b;
    case FixOp::kNeq:
      return a != b;
    case FixOp::kLt:
      return a < b;
    case FixOp::kGt:
      return a > b;
    case FixOp::kLeq:
      return a <= b;
    case FixOp::kGeq:
      return a >= b;
  }
  return false;
}

/// Chooses a value satisfying as many constraints as possible. Equality
/// constraints win by majority; ordering constraints narrow a numeric
/// interval whose midpoint (or boundary) is taken; != nudges away from
/// forbidden values.
Value ChooseValue(const std::vector<Constraint>& constraints,
                  const Value& current) {
  // Majority over equality targets first.
  std::map<Value, size_t> eq_votes;
  for (const auto& c : constraints) {
    if (c.op == FixOp::kEq) eq_votes[c.bound] += 1;
  }
  if (!eq_votes.empty()) {
    Value best;
    size_t best_count = 0;
    for (const auto& [v, n] : eq_votes) {
      if (n > best_count) {
        best = v;
        best_count = n;
      }
    }
    return best;
  }

  // Ordering constraints: intersect numeric bounds.
  double low = -std::numeric_limits<double>::infinity();
  double high = std::numeric_limits<double>::infinity();
  bool low_strict = false;
  bool high_strict = false;
  bool any_ordering = false;
  for (const auto& c : constraints) {
    if (!c.bound.is_numeric()) continue;
    double b = c.bound.AsNumber();
    switch (c.op) {
      case FixOp::kGt:
        any_ordering = true;
        if (b >= low) {
          low = b;
          low_strict = true;
        }
        break;
      case FixOp::kGeq:
        any_ordering = true;
        if (b > low) {
          low = b;
          low_strict = false;
        }
        break;
      case FixOp::kLt:
        any_ordering = true;
        if (b <= high) {
          high = b;
          high_strict = true;
        }
        break;
      case FixOp::kLeq:
        any_ordering = true;
        if (b < high) {
          high = b;
          high_strict = false;
        }
        break;
      default:
        break;
    }
  }
  Value candidate = current;
  if (any_ordering) {
    double v;
    const bool infeasible =
        low > high || (low == high && (low_strict || high_strict));
    if (std::isfinite(low) && std::isfinite(high) && infeasible) {
      // The conjunction is empty, but fixes are *alternatives*: satisfy
      // the majority side of the bounds instead.
      size_t lower_count = 0;
      size_t upper_count = 0;
      for (const auto& c : constraints) {
        if (c.op == FixOp::kGt || c.op == FixOp::kGeq) ++lower_count;
        if (c.op == FixOp::kLt || c.op == FixOp::kLeq) ++upper_count;
      }
      v = lower_count >= upper_count ? (low_strict ? low + 1.0 : low)
                                     : (high_strict ? high - 1.0 : high);
    } else if (std::isfinite(low) && std::isfinite(high)) {
      v = (low + high) / 2.0;
      if (!low_strict && v < low) v = low;
    } else if (std::isfinite(low)) {
      v = low_strict ? low + 1.0 : low;
    } else if (std::isfinite(high)) {
      v = high_strict ? high - 1.0 : high;
    } else {
      v = current.AsNumber();
    }
    candidate = current.is_int() && v == std::floor(v)
                    ? Value(static_cast<int64_t>(v))
                    : Value(v);
  }

  // Respect != constraints by nudging when violated.
  for (const auto& c : constraints) {
    if (c.op == FixOp::kNeq && candidate == c.bound) {
      if (candidate.is_numeric()) {
        candidate = Value(candidate.AsNumber() + 1.0);
      } else {
        candidate = Value(candidate.ToString() + "_x");
      }
    }
  }
  return candidate;
}

}  // namespace

std::vector<CellAssignment> HypergraphRepairAlgorithm::RepairComponent(
    const ViolationBuffer& violations, std::span<const size_t> edges) const {
  // Current value per cell (violation-recorded values, then assignments),
  // and every edge's fixes with their cells resolved; edge k is
  // edges[k], its fixes fixes[fix_begin[k] .. fix_begin[k + 1]).
  struct EdgeFix {
    CellRef left;
    FixOp op;
    bool right_is_cell;
    CellRef right;
    const Value* constant;
  };
  std::unordered_map<CellRef, Value, CellRefHash> values;
  std::vector<EdgeFix> fixes;
  std::vector<size_t> fix_begin = {0};
  fix_begin.reserve(edges.size() + 1);
  for (size_t e : edges) {
    const std::span<const BufferCell> cells = violations.cells(e);
    for (const BufferCell& c : cells) {
      values.try_emplace(c.ref(), violations.value(c));
    }
    for (const BufferFix& f : violations.fixes(e)) {
      fixes.push_back(EdgeFix{
          cells[f.left].ref(), f.op, f.right_is_cell,
          f.right_is_cell ? cells[f.right].ref() : CellRef{},
          f.right_is_cell ? nullptr : &violations.constant(f)});
    }
    fix_begin.push_back(fixes.size());
  }
  auto edge_fixes = [&](size_t k) {
    return std::span<const EdgeFix>(fixes.data() + fix_begin[k],
                                    fix_begin[k + 1] - fix_begin[k]);
  };

  auto fix_satisfied = [&](const EdgeFix& f) {
    const Value& left = values.at(f.left);
    const Value& right = f.right_is_cell ? values.at(f.right) : *f.constant;
    return EvalFixOp(left, f.op, right);
  };
  auto edge_resolved = [&](size_t k) {
    for (const auto& f : edge_fixes(k)) {
      if (fix_satisfied(f)) return true;
    }
    return false;
  };

  std::vector<size_t> unresolved;
  for (size_t k = 0; k < edges.size(); ++k) {
    if (!edge_fixes(k).empty() && !edge_resolved(k)) unresolved.push_back(k);
  }

  std::unordered_map<CellRef, Value, CellRefHash> assignments;
  while (!unresolved.empty()) {
    // 1. Rank cells by how many unresolved violations their fixes touch.
    std::map<CellRef, size_t> frequency;  // Ordered: deterministic tie-break.
    for (size_t k : unresolved) {
      std::map<CellRef, bool> seen;
      for (const auto& f : edge_fixes(k)) {
        if (!seen[f.left]) {
          frequency[f.left] += 1;
          seen[f.left] = true;
        }
        if (f.right_is_cell && !seen[f.right]) {
          frequency[f.right] += 1;
          seen[f.right] = true;
        }
      }
    }
    if (frequency.empty()) break;
    size_t max_frequency = 0;
    for (const auto& [_, n] : frequency) max_frequency = std::max(max_frequency, n);

    // 2. For each top-frequency candidate, compute the value its
    // constraints imply and the repair cost (the paper's §2.1 cost
    // function: distance between the old and new value). Among candidates
    // the cheapest repair wins — this is what makes the algorithm restore
    // a perturbed value instead of dragging a clean one.
    auto constraints_on = [&](const CellRef& cell) {
      std::vector<Constraint> constraints;
      for (size_t k : unresolved) {
        for (const auto& f : edge_fixes(k)) {
          if (f.left == cell) {
            Value bound = f.right_is_cell ? values.at(f.right) : *f.constant;
            constraints.push_back(Constraint{f.op, std::move(bound)});
          } else if (f.right_is_cell && f.right == cell) {
            constraints.push_back(
                Constraint{FlipFixOp(f.op), values.at(f.left)});
          }
        }
      }
      return constraints;
    };
    auto cost_of = [](const Value& from, const Value& to) {
      if (from.is_numeric() && to.is_numeric()) {
        return std::abs(from.AsNumber() - to.AsNumber());
      }
      return from == to ? 0.0 : 1.0;
    };
    constexpr size_t kMaxCandidates = 8;
    CellRef chosen{};
    Value new_value;
    double best_cost = std::numeric_limits<double>::infinity();
    size_t examined = 0;
    for (const auto& [cell, n] : frequency) {
      if (n != max_frequency) continue;
      if (++examined > kMaxCandidates) break;
      Value candidate = ChooseValue(constraints_on(cell), values.at(cell));
      double cost = cost_of(values.at(cell), candidate);
      if (cost < best_cost) {
        best_cost = cost;
        chosen = cell;
        new_value = std::move(candidate);
      }
    }

    // 3. Assign and re-evaluate.
    bool changed = values.at(chosen) != new_value;
    values[chosen] = new_value;
    std::vector<size_t> still;
    size_t resolved = 0;
    for (size_t k : unresolved) {
      if (edge_resolved(k)) {
        ++resolved;
      } else {
        still.push_back(k);
      }
    }
    if (changed && resolved > 0) assignments[chosen] = new_value;
    unresolved = std::move(still);
    if (resolved == 0) {
      // No progress: the remaining violations have no satisfiable fix here;
      // leave them for the next detect/repair iteration (§2.2 termination).
      break;
    }
  }

  std::vector<CellAssignment> out;
  out.reserve(assignments.size());
  for (const auto& [cell, value] : assignments) {
    out.push_back(CellAssignment{cell, value});
  }
  // Deterministic output order.
  std::sort(out.begin(), out.end(),
            [](const CellAssignment& a, const CellAssignment& b) {
              return a.cell < b.cell;
            });
  return out;
}

}  // namespace bigdansing
