#ifndef BIGDANSING_RULES_FD_RULE_H_
#define BIGDANSING_RULES_FD_RULE_H_

#include <string>
#include <vector>

#include "rules/rule.h"

namespace bigdansing {

/// A functional dependency LHS -> RHS (e.g. the paper's φF:
/// zipcode -> city). Two units violate the FD when they agree on every LHS
/// attribute but differ on some RHS attribute. GenFix proposes equating the
/// differing RHS cells (and optionally breaking the LHS agreement).
class FdRule : public Rule {
 public:
  FdRule(std::string name, std::vector<std::string> lhs,
         std::vector<std::string> rhs);

  /// When true, GenFix additionally proposes making an LHS cell differ
  /// (the paper's alternative fix for φF). Off by default because the
  /// equivalence-class repair consumes equality fixes only.
  void set_generate_lhs_fixes(bool value) { generate_lhs_fixes_ = value; }
  bool generate_lhs_fixes() const { return generate_lhs_fixes_; }

  const std::vector<std::string>& lhs() const { return lhs_; }
  const std::vector<std::string>& rhs() const { return rhs_; }

  std::vector<std::string> RelevantAttributes() const override;
  std::vector<std::string> BlockingAttributes() const override { return lhs_; }
  bool IsSymmetric() const override { return true; }

  Status Bind(const Schema& schema) override;
  void Detect(const Row& t1, const Row& t2,
              std::vector<Violation>* out) const override;
  void GenFix(const Violation& violation,
              std::vector<Fix>* out) const override;

 private:
  std::vector<std::string> lhs_;
  std::vector<std::string> rhs_;
  std::vector<size_t> lhs_columns_;
  std::vector<size_t> rhs_columns_;
  Schema bound_schema_;
  bool generate_lhs_fixes_ = false;
};

}  // namespace bigdansing

#endif  // BIGDANSING_RULES_FD_RULE_H_
