#ifndef BIGDANSING_CORE_DETECT_OUTPUT_H_
#define BIGDANSING_CORE_DETECT_OUTPUT_H_

#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "core/rule_engine.h"
#include "obs/profiler.h"
#include "rules/rule.h"

namespace bigdansing {
namespace detect {

/// Per-task accumulation of detection output, shared by the interpreted
/// stages (rule_engine.cc) and the columnar kernel stages
/// (columnar_detect.cc). `detect_calls` counts candidate-pair (or unit)
/// evaluations — for the kernel path that is kernel evaluations, so the
/// counter stays identical to the interpreted path's Detect-call count.
struct TaskOutput {
  std::vector<ViolationWithFixes> violations;
  uint64_t detect_calls = 0;
};

/// Runs Detect (and GenFix) on the ordered pair (a, b), appending to `out`.
inline void Probe(const Rule& rule, const Row& a, const Row& b,
                  TaskOutput* out) {
  ++out->detect_calls;
  std::vector<Violation> found;
  rule.Detect(a, b, &found);
  for (auto& v : found) {
    ViolationWithFixes vf;
    vf.violation = std::move(v);
    rule.GenFix(vf.violation, &vf.fixes);
    out->violations.push_back(std::move(vf));
  }
}

/// Materializes violations + fixes for a pair the kernel already decided
/// matches. Does NOT bump detect_calls — the kernel path counts every
/// evaluated pair, matching or not, at its evaluation site.
inline void MaterializePair(const Rule& rule, const Row& a, const Row& b,
                            TaskOutput* out) {
  std::vector<Violation> found;
  rule.Detect(a, b, &found);
  for (auto& v : found) {
    ViolationWithFixes vf;
    vf.violation = std::move(v);
    rule.GenFix(vf.violation, &vf.fixes);
    out->violations.push_back(std::move(vf));
  }
}

/// Arity-1 analogue of MaterializePair.
inline void MaterializeSingle(const Rule& rule, const Row& row,
                              TaskOutput* out) {
  std::vector<Violation> found;
  rule.DetectSingle(row, &found);
  for (auto& v : found) {
    ViolationWithFixes vf;
    vf.violation = std::move(v);
    rule.GenFix(vf.violation, &vf.fixes);
    out->violations.push_back(std::move(vf));
  }
}

/// Folds one partition's morsel partials into its TaskOutput, in morsel
/// (unit-range) order — violation order stays identical to one sequential
/// pass over the partition's units.
inline TaskOutput MergeTaskPieces(std::vector<TaskOutput>&& pieces) {
  TaskOutput merged;
  size_t total = 0;
  for (const auto& piece : pieces) total += piece.violations.size();
  merged.violations.reserve(total);
  for (auto& piece : pieces) {
    merged.detect_calls += piece.detect_calls;
    for (auto& v : piece.violations) {
      merged.violations.push_back(std::move(v));
    }
  }
  return merged;
}

/// Merges per-task outputs into a DetectionResult. Driver-side (one call
/// per detection stage), so the registry bookkeeping here is off the
/// worker-timed hot path.
inline void MergeOutputs(std::vector<TaskOutput>* tasks,
                         DetectionResult* result) {
  ScopedActivity activity(
      Profiler::Instance().Intern("detect:merge", "driver"));
  size_t total = 0;
  for (const auto& t : *tasks) total += t.violations.size();
  result->violations.reserve(result->violations.size() + total);
  uint64_t fixes = 0;
  for (auto& t : *tasks) {
    result->detect_calls += t.detect_calls;
    for (auto& v : t.violations) {
      fixes += v.fixes.size();
      result->violations.push_back(std::move(v));
    }
  }
  if (total > 0) {
    MetricsRegistry& registry = MetricsRegistry::Instance();
    registry.GetCounter("rules.violations_detected").Add(total);
    registry.GetCounter("rules.fixes_proposed").Add(fixes);
  }
}

}  // namespace detect
}  // namespace bigdansing

#endif  // BIGDANSING_CORE_DETECT_OUTPUT_H_
