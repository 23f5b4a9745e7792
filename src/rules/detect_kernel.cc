#include "rules/detect_kernel.h"

#include <algorithm>
#include <optional>

#include "rules/cfd_rule.h"
#include "rules/check_rule.h"
#include "rules/dc_rule.h"
#include "rules/fd_rule.h"

namespace bigdansing {

namespace {

/// FD LHS -> RHS: both tuples non-null and code-equal on every LHS slot,
/// code-differing on some RHS slot. Code equality is Value equality within
/// one pool (null==null included), so this is exactly FdRule::Detect's
/// emission condition.
class FdKernel : public DetectKernel {
 public:
  FdKernel(std::vector<uint16_t> lhs, std::vector<uint16_t> rhs)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  bool Matches(const CodeTuple& t1, const CodeTuple& t2) const override {
    for (uint16_t s : lhs_) {
      const uint32_t a = t1.code(s);
      const uint32_t b = t2.code(s);
      if (a == ValuePool::kNullCode || b == ValuePool::kNullCode || a != b) {
        return false;
      }
    }
    for (uint16_t s : rhs_) {
      if (t1.code(s) != t2.code(s)) return true;
    }
    return false;
  }

  void MatchUpper(const CodeTuple* tuples, size_t n,
                  std::vector<std::pair<uint32_t, uint32_t>>* matches)
      const override {
    if (lhs_.size() == 1 && rhs_.size() == 1) {
      // The canonical A -> B shape: hoist the outer tuple's two codes, so
      // the inner loop is two loads and two compares per pair.
      const uint16_t ls = lhs_[0];
      const uint16_t rs = rhs_[0];
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t a_lhs = tuples[i].code(ls);
        if (a_lhs == ValuePool::kNullCode) continue;
        const uint32_t a_rhs = tuples[i].code(rs);
        for (uint32_t j = i + 1; j < n; ++j) {
          if (tuples[j].code(ls) == a_lhs && tuples[j].code(rs) != a_rhs) {
            matches->emplace_back(i, j);
          }
        }
      }
      return;
    }
    DetectKernel::MatchUpper(tuples, n, matches);
  }

  bool AnyMatchUpper(const CodeTuple* tuples, size_t n) const override {
    // In a block keyed by the LHS (hash collisions aside) every tuple with
    // a non-null LHS carries the first such tuple's LHS. A pair then
    // violates iff some tuple's RHS differs from that first tuple's, and
    // the pair (first, that tuple) is one. Any other LHS in the block sends
    // it to the pair loop.
    auto has_null_lhs = [this](const CodeTuple& t) {
      for (uint16_t s : lhs_) {
        if (t.code(s) == ValuePool::kNullCode) return true;
      }
      return false;
    };
    size_t first = 0;
    while (first < n && has_null_lhs(tuples[first])) ++first;
    for (size_t j = first + 1; j < n; ++j) {
      const CodeTuple& t = tuples[j];
      if (has_null_lhs(t)) continue;
      for (uint16_t s : lhs_) {
        if (t.code(s) != tuples[first].code(s)) {
          return DetectKernel::AnyMatchUpper(tuples, n);
        }
      }
      for (uint16_t s : rhs_) {
        if (t.code(s) != tuples[first].code(s)) return true;
      }
    }
    return false;
  }

 private:
  std::vector<uint16_t> lhs_;
  std::vector<uint16_t> rhs_;
};

/// Variable CFD (X -> A, tp): FD semantics restricted to tuples whose
/// pattern-constant attributes carry the constant's code.
class CfdPairKernel : public DetectKernel {
 public:
  struct PatternCheck {
    uint16_t slot;
    uint32_t const_eq;  // kAbsentCode when the constant is not in the data
  };

  CfdPairKernel(std::vector<PatternCheck> pattern, std::vector<uint16_t> lhs,
                uint16_t rhs)
      : pattern_(std::move(pattern)), lhs_(std::move(lhs)), rhs_(rhs) {}

  bool Matches(const CodeTuple& t1, const CodeTuple& t2) const override {
    for (const PatternCheck& pc : pattern_) {
      if (t1.code(pc.slot) != pc.const_eq ||
          t2.code(pc.slot) != pc.const_eq) {
        return false;
      }
      // A null pattern constant never matches (MatchesPattern rejects it
      // even for null cells) — its const_eq is kNullCode, which also
      // equals a null cell's code, so reject that case explicitly.
      if (pc.const_eq >= ValuePool::kAbsentCode) return false;
    }
    for (uint16_t s : lhs_) {
      const uint32_t a = t1.code(s);
      const uint32_t b = t2.code(s);
      if (a == ValuePool::kNullCode || b == ValuePool::kNullCode || a != b) {
        return false;
      }
    }
    return t1.code(rhs_) != t2.code(rhs_);
  }

 private:
  std::vector<PatternCheck> pattern_;
  std::vector<uint16_t> lhs_;
  uint16_t rhs_;
};

/// Constant CFD: pattern matches and the RHS cell is null or differs from
/// the RHS constant.
class ConstantCfdKernel : public DetectKernel {
 public:
  ConstantCfdKernel(std::vector<CfdPairKernel::PatternCheck> pattern,
                    uint16_t rhs, uint32_t rhs_const)
      : pattern_(std::move(pattern)), rhs_(rhs), rhs_const_(rhs_const) {}

  bool Matches(const CodeTuple&, const CodeTuple&) const override {
    return false;
  }

  bool MatchesSingle(const CodeTuple& t) const override {
    for (const auto& pc : pattern_) {
      if (t.code(pc.slot) != pc.const_eq) return false;
      if (pc.const_eq >= ValuePool::kAbsentCode) return false;
    }
    const uint32_t v = t.code(rhs_);
    return v == ValuePool::kNullCode || v != rhs_const_;
  }

 private:
  std::vector<CfdPairKernel::PatternCheck> pattern_;
  uint16_t rhs_;
  uint32_t rhs_const_;
};

/// DC over a tuple pair: conjunction of compiled predicates.
class DcKernel : public DetectKernel {
 public:
  explicit DcKernel(std::vector<CodePredicate> preds)
      : preds_(std::move(preds)) {}

  bool Matches(const CodeTuple& t1, const CodeTuple& t2) const override {
    for (const CodePredicate& p : preds_) {
      if (!p.Eval(t1, t2)) return false;
    }
    return true;
  }

 private:
  std::vector<CodePredicate> preds_;
};

/// Single-tuple DC (CheckRule): same conjunction with both sides on t1.
class CheckKernel : public DetectKernel {
 public:
  explicit CheckKernel(std::vector<CodePredicate> preds)
      : preds_(std::move(preds)) {}

  bool Matches(const CodeTuple&, const CodeTuple&) const override {
    return false;
  }

  bool MatchesSingle(const CodeTuple& t) const override {
    for (const CodePredicate& p : preds_) {
      if (!p.Eval(t, t)) return false;
    }
    return true;
  }

 private:
  std::vector<CodePredicate> preds_;
};

// ---------------------------------------------------------------------------
// Templates (analyzed rules, bound to pools per dataset)

class FdTemplate : public KernelTemplate {
 public:
  FdTemplate(std::vector<size_t> lhs_cols, std::vector<size_t> rhs_cols,
             bool lhs_fixes) {
    for (size_t c : lhs_cols) lhs_.push_back(SlotFor(c));
    for (size_t c : rhs_cols) rhs_.push_back(SlotFor(c));
    writer_.emplace(std::move(lhs_cols), std::move(rhs_cols), lhs_fixes);
  }

  std::unique_ptr<DetectKernel> Bind(
      const std::vector<const ValuePool*>&) const override {
    return std::make_unique<FdKernel>(lhs_, rhs_);
  }

 private:
  std::vector<uint16_t> lhs_;
  std::vector<uint16_t> rhs_;
};

class CfdTemplate : public KernelTemplate {
 public:
  struct PatternSlot {
    uint16_t slot;
    Value constant;
  };

  CfdTemplate(std::vector<size_t> cols, std::vector<PatternSlot> pattern,
              std::vector<uint16_t> lhs, uint16_t rhs, bool constant_cfd,
              std::optional<Value> rhs_constant)
      : pattern_(std::move(pattern)),
        lhs_(std::move(lhs)),
        rhs_(rhs),
        constant_cfd_(constant_cfd),
        rhs_constant_(std::move(rhs_constant)) {
    columns_ = std::move(cols);
    for (const PatternSlot& p : pattern_) {
      constants_.push_back({p.slot, p.constant});
    }
    if (rhs_constant_) constants_.push_back({rhs_, *rhs_constant_});
    if (constant_cfd_) {
      // CfdRule::GenFix: the RHS cell gets the RHS constant.
      ViolationWriter::Term term;
      term.left = columns_[rhs_];
      term.right_is_constant = true;
      term.constant = *rhs_constant_;
      writer_.emplace(std::vector<ViolationWriter::Term>{std::move(term)});
    } else {
      std::vector<size_t> lhs_cols;
      for (uint16_t s : lhs_) lhs_cols.push_back(columns_[s]);
      writer_.emplace(std::move(lhs_cols), std::vector<size_t>{columns_[rhs_]},
                      /*lhs_fixes=*/false);
    }
  }

  std::unique_ptr<DetectKernel> Bind(
      const std::vector<const ValuePool*>& pools) const override {
    std::vector<CfdPairKernel::PatternCheck> checks;
    checks.reserve(pattern_.size());
    for (const auto& p : pattern_) {
      checks.push_back({p.slot, pools[p.slot]->CodeOf(p.constant)});
    }
    if (constant_cfd_) {
      return std::make_unique<ConstantCfdKernel>(
          std::move(checks), rhs_, pools[rhs_]->CodeOf(*rhs_constant_));
    }
    return std::make_unique<CfdPairKernel>(std::move(checks), lhs_, rhs_);
  }

 private:
  std::vector<PatternSlot> pattern_;
  std::vector<uint16_t> lhs_;
  uint16_t rhs_;
  bool constant_cfd_;
  std::optional<Value> rhs_constant_;
};

/// Shared by DcRule and CheckRule: a conjunction of predicates compiled to
/// CodePredicates, with constants positioned in the pools at Bind time.
class ConjunctionTemplate : public KernelTemplate {
 public:
  struct Analyzed {
    CodePredicate compiled;  // constant bounds filled at Bind
    std::optional<Value> constant;
  };

  ConjunctionTemplate(std::vector<Analyzed> preds, bool single)
      : preds_(std::move(preds)), single_(single) {}

  static std::shared_ptr<const KernelTemplate> Analyze(
      const std::vector<Predicate>& predicates, const Schema& schema,
      bool single) {
    auto tmpl = std::make_shared<ConjunctionTemplate>(
        std::vector<Analyzed>{}, single);
    std::vector<ViolationWriter::Term> terms;
    for (const Predicate& p : predicates) {
      if (p.op == CmpOp::kSimilar) return nullptr;  // interpreted only
      auto left = schema.IndexOf(p.left_attr);
      if (!left.ok()) return nullptr;
      ViolationWriter::Term term;
      term.cmp = p.op;
      term.fix = FixOpFor(NegateOp(p.op));
      term.left_t1 = p.left_tuple == 1;
      term.left = *left;
      term.right_is_constant = p.right_is_constant;
      term.constant = p.constant;
      Analyzed a;
      a.compiled.op = p.op;
      a.compiled.left_is_t1 = p.left_tuple == 1;
      a.compiled.left_slot = tmpl->SlotFor(*left);
      a.compiled.right_is_constant = p.right_is_constant;
      if (p.right_is_constant) {
        if (p.constant.is_null()) {
          a.compiled.never = true;
        } else {
          tmpl->constants_.push_back({a.compiled.left_slot, p.constant});
          if (IsOrderingOp(p.op)) tmpl->OrderSlot(a.compiled.left_slot);
        }
        a.constant = p.constant;
      } else {
        auto right = schema.IndexOf(p.right_attr);
        if (!right.ok()) return nullptr;
        term.right_t1 = p.right_tuple == 1;
        term.right = *right;
        a.compiled.right_is_t1 = p.right_tuple == 1;
        a.compiled.right_slot = tmpl->SlotFor(*right);
        if (IsOrderingOp(p.op)) {
          tmpl->OrderSlot(a.compiled.left_slot);
          tmpl->OrderSlot(a.compiled.right_slot);
        }
        // Codes of the two sides are compared directly, so the columns
        // must intern into one pool.
        if (*left != *right) tmpl->ShareGroup(*left, *right);
      }
      tmpl->preds_.push_back(std::move(a));
      terms.push_back(std::move(term));
    }
    tmpl->writer_.emplace(std::move(terms));
    return tmpl;
  }

  std::unique_ptr<DetectKernel> Bind(
      const std::vector<const ValuePool*>& pools) const override {
    std::vector<CodePredicate> compiled;
    compiled.reserve(preds_.size());
    for (const Analyzed& a : preds_) {
      CodePredicate p = a.compiled;
      if (p.right_is_constant && !p.never) {
        const ValuePool& pool = *pools[p.left_slot];
        p.const_eq = pool.CodeOf(*a.constant);
        // Range bounds only for ordering operators: only their slots'
        // pools are in value order.
        if (IsOrderingOp(p.op)) {
          p.const_lo = pool.LowerBound(*a.constant);
          p.const_hi = pool.UpperBound(*a.constant);
        }
      }
      compiled.push_back(p);
    }
    if (single_) return std::make_unique<CheckKernel>(std::move(compiled));
    return std::make_unique<DcKernel>(std::move(compiled));
  }

 private:
  std::vector<Analyzed> preds_;
  bool single_;
};

std::shared_ptr<const KernelTemplate> CompileFd(const Rule& rule,
                                                const Schema& schema) {
  const auto* fd = dynamic_cast<const FdRule*>(&rule);
  if (fd == nullptr) return nullptr;
  std::vector<size_t> lhs_cols;
  std::vector<size_t> rhs_cols;
  for (const auto& a : fd->lhs()) {
    auto idx = schema.IndexOf(a);
    if (!idx.ok()) return nullptr;
    lhs_cols.push_back(*idx);
  }
  for (const auto& a : fd->rhs()) {
    auto idx = schema.IndexOf(a);
    if (!idx.ok()) return nullptr;
    rhs_cols.push_back(*idx);
  }
  return std::make_shared<FdTemplate>(
      std::move(lhs_cols), std::move(rhs_cols), fd->generate_lhs_fixes());
}

std::shared_ptr<const KernelTemplate> CompileCfd(const Rule& rule,
                                                 const Schema& schema) {
  const auto* cfd = dynamic_cast<const CfdRule*>(&rule);
  if (cfd == nullptr) return nullptr;
  auto rhs_idx = schema.IndexOf(cfd->rhs().attribute);
  if (!rhs_idx.ok()) return nullptr;

  std::vector<size_t> cols;
  auto slot_for = [&cols](size_t column) -> uint16_t {
    for (size_t s = 0; s < cols.size(); ++s) {
      if (cols[s] == column) return static_cast<uint16_t>(s);
    }
    cols.push_back(column);
    return static_cast<uint16_t>(cols.size() - 1);
  };
  std::vector<CfdTemplate::PatternSlot> pattern;
  std::vector<uint16_t> lhs;
  for (const auto& attr : cfd->lhs()) {
    auto idx = schema.IndexOf(attr.attribute);
    if (!idx.ok()) return nullptr;
    const uint16_t slot = slot_for(*idx);
    if (attr.constant.has_value()) {
      pattern.push_back({slot, *attr.constant});
    }
    // Detect requires non-null equality on every LHS column, constant-
    // patterned ones included.
    lhs.push_back(slot);
  }
  const uint16_t rhs_slot = slot_for(*rhs_idx);
  std::optional<Value> rhs_constant;
  if (cfd->is_constant_cfd()) rhs_constant = *cfd->rhs().constant;
  return std::make_shared<CfdTemplate>(std::move(cols), std::move(pattern),
                                       std::move(lhs), rhs_slot,
                                       cfd->is_constant_cfd(),
                                       std::move(rhs_constant));
}

std::shared_ptr<const KernelTemplate> CompileDc(const Rule& rule,
                                                const Schema& schema) {
  const auto* dc = dynamic_cast<const DcRule*>(&rule);
  if (dc == nullptr) return nullptr;
  return ConjunctionTemplate::Analyze(dc->predicates(), schema,
                                      /*single=*/false);
}

std::shared_ptr<const KernelTemplate> CompileCheck(const Rule& rule,
                                                   const Schema& schema) {
  const auto* check = dynamic_cast<const CheckRule*>(&rule);
  if (check == nullptr) return nullptr;
  return ConjunctionTemplate::Analyze(check->predicates(), schema,
                                      /*single=*/true);
}

}  // namespace

ViolationWriter::ViolationWriter(std::vector<size_t> lhs,
                                 std::vector<size_t> rhs, bool lhs_fixes)
    : lhs_(std::move(lhs)), rhs_(std::move(rhs)), lhs_fixes_(lhs_fixes) {}

ViolationWriter::ViolationWriter(std::vector<Term> terms)
    : terms_(std::move(terms)) {}

void ViolationWriter::Bind(const std::string& rule,
                           const std::vector<size_t>& scope) {
  rule_ = rule;
  if (scope.empty()) return;
  for (Term& t : terms_) {
    t.left = scope[t.left];
    if (!t.right_is_constant) t.right = scope[t.right];
  }
  for (size_t& c : lhs_) c = scope[c];
  for (size_t& c : rhs_) c = scope[c];
}

void ViolationWriter::WritePair(const Unit& t1, const Unit& t2,
                                ViolationBuffer* out) const {
  auto cell = [out](const Unit& u, size_t column) {
    return out->AddTableCell(u.row->id(), u.row->source_column(column),
                             u.pos);
  };
  out->Begin(rule_);
  if (!terms_.empty()) {
    for (const Term& t : terms_) {
      const uint32_t left = cell(t.left_t1 ? t1 : t2, t.left);
      if (t.right_is_constant) {
        out->AddConstantFix(left, t.fix, t.constant);
      } else {
        out->AddFix(left, t.fix, cell(t.right_t1 ? t1 : t2, t.right));
      }
    }
    return;
  }
  for (size_t c : lhs_) {
    cell(t1, c);
    cell(t2, c);
  }
  for (size_t c : rhs_) {
    if (t1.row->value(c) == t2.row->value(c)) continue;
    const uint32_t left = cell(t1, c);
    out->AddFix(left, FixOp::kEq, cell(t2, c));
  }
  if (lhs_fixes_) {
    for (uint32_t i = 0; i < lhs_.size(); ++i) {
      out->AddFix(2 * i, FixOp::kNeq, 2 * i + 1);
    }
  }
}

bool ViolationWriter::MatchesPair(const Row& t1, const Row& t2) const {
  for (const Term& t : terms_) {
    const Value& left = (t.left_t1 ? t1 : t2).value(t.left);
    const Value& right =
        t.right_is_constant ? t.constant : (t.right_t1 ? t1 : t2).value(t.right);
    if (!EvalCmp(left, t.cmp, right)) return false;
  }
  return !terms_.empty();
}

bool DetectKernel::MatchesSingle(const CodeTuple&) const { return false; }

void DetectKernel::MatchUpper(
    const CodeTuple* tuples, size_t n,
    std::vector<std::pair<uint32_t, uint32_t>>* matches) const {
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (Matches(tuples[i], tuples[j])) matches->emplace_back(i, j);
    }
  }
}

bool DetectKernel::AnyMatchUpper(const CodeTuple* tuples, size_t n) const {
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (Matches(tuples[i], tuples[j])) return true;
    }
  }
  return false;
}

uint16_t KernelTemplate::SlotFor(size_t column) {
  for (size_t s = 0; s < columns_.size(); ++s) {
    if (columns_[s] == column) return static_cast<uint16_t>(s);
  }
  columns_.push_back(column);
  return static_cast<uint16_t>(columns_.size() - 1);
}

void KernelTemplate::OrderSlot(uint16_t slot) {
  if (std::find(ordered_slots_.begin(), ordered_slots_.end(), slot) ==
      ordered_slots_.end()) {
    ordered_slots_.push_back(slot);
  }
}

void KernelTemplate::ShareGroup(size_t a, size_t b) {
  // Union the groups containing a and b (creating singletons as needed).
  auto find = [&](size_t col) -> size_t {
    for (size_t g = 0; g < shared_groups_.size(); ++g) {
      for (size_t c : shared_groups_[g]) {
        if (c == col) return g;
      }
    }
    shared_groups_.push_back({col});
    return shared_groups_.size() - 1;
  };
  const size_t ga = find(a);
  const size_t gb = find(b);
  if (ga == gb) return;
  auto& dst = shared_groups_[ga];
  auto& src = shared_groups_[gb];
  dst.insert(dst.end(), src.begin(), src.end());
  shared_groups_.erase(shared_groups_.begin() + gb);
}

KernelRegistry& KernelRegistry::Instance() {
  static KernelRegistry* instance = new KernelRegistry();
  return *instance;
}

KernelRegistry::KernelRegistry() {
  Register("fd", CompileFd);
  Register("cfd", CompileCfd);
  Register("dc", CompileDc);
  Register("check", CompileCheck);
}

void KernelRegistry::Register(std::string name, Compiler compiler) {
  compilers_.emplace_back(std::move(name), std::move(compiler));
}

std::shared_ptr<const KernelTemplate> KernelRegistry::Compile(
    const Rule& rule, const Schema& schema) const {
  for (const auto& [name, compiler] : compilers_) {
    if (auto tmpl = compiler(rule, schema)) return tmpl;
  }
  return nullptr;
}

}  // namespace bigdansing
