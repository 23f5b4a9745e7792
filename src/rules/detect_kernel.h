#ifndef BIGDANSING_RULES_DETECT_KERNEL_H_
#define BIGDANSING_RULES_DETECT_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/dictionary.h"
#include "data/schema.h"
#include "rules/predicate.h"
#include "rules/rule.h"
#include "rules/violation_buffer.h"

namespace bigdansing {

/// One data unit as the kernel sees it: a contiguous code array per kernel
/// slot plus the unit's index into those arrays. Built by the engine per
/// enumeration site; reading a cell is two pointer hops and no branch.
struct CodeTuple {
  const uint32_t* const* cols;  ///< Per-slot code arrays.
  size_t row;

  uint32_t code(uint16_t slot) const { return cols[slot][row]; }
};

/// One DC conjunct compiled to dictionary-code compares. Cross-column
/// predicates require both slots to share a pool (the compiler groups such
/// columns); constant predicates carry the constant's position in the left
/// slot's pool, resolved at Bind time:
///   value == c  ⟺  code == const_eq   (kAbsentCode never matches)
///   value <  c  ⟺  code <  const_lo
///   value <= c  ⟺  code <  const_hi
struct CodePredicate {
  CmpOp op = CmpOp::kEq;
  bool left_is_t1 = true;
  uint16_t left_slot = 0;
  bool right_is_constant = false;
  bool right_is_t1 = false;
  uint16_t right_slot = 0;
  uint32_t const_eq = ValuePool::kAbsentCode;
  uint32_t const_lo = 0;
  uint32_t const_hi = 0;
  /// A predicate that can never hold (null constant): the whole
  /// conjunction is statically false.
  bool never = false;

  bool Eval(const CodeTuple& t1, const CodeTuple& t2) const {
    if (never) return false;
    const uint32_t a = (left_is_t1 ? t1 : t2).code(left_slot);
    if (a == ValuePool::kNullCode) return false;
    if (right_is_constant) {
      switch (op) {
        case CmpOp::kEq:  return a == const_eq;
        case CmpOp::kNeq: return a != const_eq;
        case CmpOp::kLt:  return a < const_lo;
        case CmpOp::kLeq: return a < const_hi;
        case CmpOp::kGt:  return a >= const_hi;
        case CmpOp::kGeq: return a >= const_lo;
        case CmpOp::kSimilar: return false;  // never compiled
      }
      return false;
    }
    const uint32_t b = (right_is_t1 ? t1 : t2).code(right_slot);
    if (b == ValuePool::kNullCode) return false;
    switch (op) {
      case CmpOp::kEq:  return a == b;
      case CmpOp::kNeq: return a != b;
      case CmpOp::kLt:  return a < b;
      case CmpOp::kLeq: return a <= b;
      case CmpOp::kGt:  return a > b;
      case CmpOp::kGeq: return a >= b;
      case CmpOp::kSimilar: return false;
    }
    return false;
  }
};

/// A compiled Detect decision kernel. `Matches` must be EXACT for the
/// compiled rule: true iff Rule::Detect on the same ordered pair would emit
/// at least one violation. That contract is what lets the engine evaluate
/// candidate batches over code vectors and run the compiled GenFix
/// (ViolationWriter) only on matches, keeping the violation stream
/// bit-identical to the interpreted path.
class DetectKernel {
 public:
  virtual ~DetectKernel() = default;
  /// Arity-2 decision over an ordered candidate pair.
  virtual bool Matches(const CodeTuple& t1, const CodeTuple& t2) const = 0;
  /// Arity-1 decision; false for pair rules.
  virtual bool MatchesSingle(const CodeTuple& t) const;
  /// Batched upper-triangle decision over a block of `n` tuples: appends
  /// (i, j) to `matches` for every i < j with Matches(tuples[i], tuples[j]),
  /// in i-outer j-inner order — the engine's per-pair enumeration order for
  /// symmetric rules, so consuming `matches` in sequence preserves the
  /// interpreted violation order. The default delegates to Matches; hot
  /// kernels (FD) override with a branch-light loop that hoists the outer
  /// tuple's codes and skips per-pair virtual dispatch.
  virtual void MatchUpper(
      const CodeTuple* tuples, size_t n,
      std::vector<std::pair<uint32_t, uint32_t>>* matches) const;
  /// Batched upper-triangle existence test over the same block: true iff
  /// MatchUpper would append at least one pair. The default runs the pair
  /// loop and stops at the first match; the FD kernel decides a block whose
  /// non-null-LHS tuples all share one LHS in a single pass.
  virtual bool AnyMatchUpper(const CodeTuple* tuples, size_t n) const;
};

/// Compiled GenFix of a declarative rule: writes the violation and possible
/// fixes that Rule::Detect and Rule::GenFix produce for a matched unit or
/// unit pair straight into a ViolationBuffer, with no intermediate objects.
/// Cells carry the unit's table position, so their values stay in the
/// table. Bound to one plan: detect-schema column c reads base column
/// scope[c] (c itself when the plan has no scope) of the unit's base row.
///
/// Two layouts cover the built-in rules:
///  - pair-equality (FD, variable CFD): each LHS column's (t1, t2) cells,
///    then the (t1, t2) cells of every RHS column whose values differ, one
///    `=` fix per such pair, then (FD with LHS fixes on) one `≠` fix per
///    LHS pair;
///  - predicate (DC, CHECK, constant CFD): per predicate its left cell and,
///    unless the right side is a constant, its right cell, and one fix with
///    the negated operator; constants go to the buffer's value pool.
class ViolationWriter {
 public:
  /// A unit: its base-table row and the row's table position.
  struct Unit {
    const Row* row;
    uint32_t pos;
  };

  /// The predicate layout's terms; `cmp` is the rule's operator, `fix` the
  /// fix's (negated) one.
  struct Term {
    CmpOp cmp = CmpOp::kEq;
    FixOp fix = FixOp::kEq;
    bool left_t1 = true;
    size_t left = 0;
    bool right_is_constant = false;
    bool right_t1 = false;
    size_t right = 0;
    Value constant;
  };

  /// Pair-equality layout over detect-schema columns.
  ViolationWriter(std::vector<size_t> lhs, std::vector<size_t> rhs,
                  bool lhs_fixes);
  /// Predicate layout.
  explicit ViolationWriter(std::vector<Term> terms);

  /// Binds detect-schema columns to base columns and names the rule.
  void Bind(const std::string& rule, const std::vector<size_t>& scope);

  /// Appends the violation of the ordered pair (t1, t2), which the rule
  /// matches (a kernel or MatchesPair decided).
  void WritePair(const Unit& t1, const Unit& t2, ViolationBuffer* out) const;
  /// Arity-1 form (CHECK, constant CFD): every cell reads `t`.
  void WriteSingle(const Unit& t, ViolationBuffer* out) const {
    WritePair(t, t, out);
  }
  /// Rule::Detect's decision over two base rows for a DC (the rules an
  /// inequality join's pairs reach): every predicate holds, a null operand
  /// failing it. Only DC and CHECK terms carry their rule's operators.
  bool MatchesPair(const Row& t1, const Row& t2) const;

 private:
  std::string rule_;
  std::vector<Term> terms_;
  std::vector<size_t> lhs_;
  std::vector<size_t> rhs_;
  bool lhs_fixes_ = false;
};

/// A schema-bound but pool-free kernel for one rule: names the columns to
/// dictionary-encode (and which of them must share a pool), then binds to
/// the pools once encoding has run.
class KernelTemplate {
 public:
  virtual ~KernelTemplate() = default;

  /// The rule's compiled GenFix, bound to `scope` (see ViolationWriter).
  std::unique_ptr<ViolationWriter> BindWriter(
      const std::string& rule, const std::vector<size_t>& scope) const {
    auto writer = std::make_unique<ViolationWriter>(*writer_);
    writer->Bind(rule, scope);
    return writer;
  }

  /// Detect-schema columns the kernel reads; slot s reads columns()[s].
  const std::vector<size_t>& columns() const { return columns_; }
  /// Detect-schema column sets whose codes are compared across columns and
  /// therefore must share one pool. Singleton groups are omitted.
  const std::vector<std::vector<size_t>>& shared_groups() const {
    return shared_groups_;
  }

  /// Slots whose codes the kernel compares by order: an ordering predicate
  /// (`<`, `<=`, `>`, `>=`) between two columns or against a range
  /// constant. Their pools must be in value order (code order = Value
  /// order); the kernel compares every other slot's codes for equality
  /// only, which holds in any pool.
  const std::vector<uint16_t>& ordered_slots() const { return ordered_slots_; }

  /// A rule constant that Bind looks up in slot `slot`'s pool.
  struct Constant {
    uint16_t slot;
    Value value;
  };
  /// Every constant Bind looks up. A kernel bound while one was absent from
  /// its pool decides as if no row holds it, so a holder whose pool later
  /// gains that value must re-Bind.
  const std::vector<Constant>& constants() const { return constants_; }

  /// Binds rule constants against the slots' pools; `pools[s]` is the pool
  /// of `columns()[s]`. Only the pools of ordered_slots() are asked for
  /// value-order positions (LowerBound/UpperBound).
  virtual std::unique_ptr<DetectKernel> Bind(
      const std::vector<const ValuePool*>& pools) const = 0;

 protected:
  /// Interns a detect-schema column, returning its slot.
  uint16_t SlotFor(size_t column);
  /// Records that two columns' codes are compared against each other.
  void ShareGroup(size_t a, size_t b);
  /// Records that a slot's codes are compared by order.
  void OrderSlot(uint16_t slot);

  std::vector<size_t> columns_;
  std::vector<std::vector<size_t>> shared_groups_;
  std::vector<uint16_t> ordered_slots_;
  std::vector<Constant> constants_;
  /// Unbound compiled GenFix (detect-schema columns), set by the compiler.
  std::optional<ViolationWriter> writer_;
};

/// Registry of rule-class kernel compilers — the dispatch point behind
/// RuleEngine's kernel routing. A compiler pattern-matches a rule (via
/// dynamic_cast) and returns an analyzed template, or null when it does not
/// apply. Compile returns null when no compiler accepts the rule (UDF
/// rules, similarity predicates, unresolvable attributes), which sends the
/// rule down the interpreted path.
class KernelRegistry {
 public:
  using Compiler = std::function<std::shared_ptr<const KernelTemplate>(
      const Rule&, const Schema&)>;

  static KernelRegistry& Instance();

  void Register(std::string name, Compiler compiler);

  /// First registered compiler that accepts `rule` wins. `schema` is the
  /// detect schema (post-Scope) the rule was bound against.
  std::shared_ptr<const KernelTemplate> Compile(const Rule& rule,
                                                const Schema& schema) const;

 private:
  KernelRegistry();  // registers the built-in FD/DC/CFD/CHECK compilers

  std::vector<std::pair<std::string, Compiler>> compilers_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_RULES_DETECT_KERNEL_H_
