#ifndef BIGDANSING_CORE_DETECT_OUTPUT_H_
#define BIGDANSING_CORE_DETECT_OUTPUT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "core/physical_plan.h"
#include "core/rule_engine.h"
#include "obs/profiler.h"
#include "rules/detect_kernel.h"
#include "rules/rule.h"

namespace bigdansing {
namespace detect {

/// Per-task accumulation of detection output, shared by the engine's
/// detection stages (columnar_detect.cc) and the stream session's window
/// stage (stream_session.cc). `detect_calls` counts candidate-pair (or
/// unit) evaluations — with a kernel that is kernel evaluations, so the
/// counter stays identical to the Rule::Detect call count without one.
struct TaskOutput {
  ViolationBuffer violations;
  uint64_t detect_calls = 0;
};

/// Runs Detect (and GenFix) on the ordered pair (a, b), appending the
/// objects to `out`: the decision and the write of a rule without a kernel.
inline void Probe(const Rule& rule, const Row& a, const Row& b,
                  TaskOutput* out) {
  ++out->detect_calls;
  std::vector<Violation> found;
  rule.Detect(a, b, &found);
  for (auto& v : found) {
    std::vector<Fix> fixes;
    rule.GenFix(v, &fixes);
    out->violations.Append(std::move(v), std::move(fixes));
  }
}

/// Arity-1 analogue of Probe.
inline void ProbeSingle(const Rule& rule, const Row& row, TaskOutput* out) {
  ++out->detect_calls;
  std::vector<Violation> found;
  rule.DetectSingle(row, &found);
  for (auto& v : found) {
    std::vector<Fix> fixes;
    rule.GenFix(v, &fixes);
    out->violations.Append(std::move(v), std::move(fixes));
  }
}

/// A unit under a kernel: its code tuple, and its base row and table
/// position for the compiled GenFix.
struct KernelUnit {
  CodeTuple codes;
  ViolationWriter::Unit unit;
};

/// Reused per-task buffers of IterateBlock.
struct BlockScratch {
  std::vector<CodeTuple> tuples;
  std::vector<ViolationWriter::Unit> units;
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  std::vector<const Row*> rows;
  std::vector<Row> projected;
};

/// The Iterate -> Detect -> GenFix pass over one block of `n` units, shared
/// by the engine's blocked stage and the stream session's in-place stage,
/// so pair order and detect_calls counting live here only, with a kernel or
/// without. `row(i, storage)` returns unit i's detect-schema row; it may
/// fill `*storage` (an on-demand scope projection) and return it.
///
///  - UCrossProduct: pairs i < j in i-outer j-inner order; symmetric rules
///    probe (i, j), asymmetric ones (i, j) then (j, i).
///  - CrossProduct, and the within-block fallback of blocked OCJoin plans
///    (blocks are small, so the quadratic pass stays local): every ordered
///    pair i != j, row-major.
///
/// With a `kernel` (null: none), `unit(i)` returns unit i as a KernelUnit
/// and the kernel decides each pair in the same order (a symmetric block in one
/// batched MatchUpper call); only matches reach the compiled GenFix
/// `writer`, so the violations are byte-equal to Rule::Detect/GenFix's and
/// detect_calls counts every evaluated pair either way; `row` is not
/// called. Without one, each unit's row is resolved once and Probe runs on
/// every pair.
template <typename RowAt, typename UnitAt>
void IterateBlock(const PhysicalRulePlan& plan, size_t n, const RowAt& row,
                  BlockScratch* scratch, TaskOutput* out,
                  const DetectKernel* kernel, const ViolationWriter* writer,
                  const UnitAt& unit) {
  const Rule& rule = *plan.rule;
  const bool unordered = plan.strategy == IterateStrategy::kUCrossProduct;
  const bool symmetric = rule.IsSymmetric();
  auto each_pair = [&](auto&& eval) {
    for (size_t i = 0; i < n; ++i) {
      if (unordered) {
        for (size_t j = i + 1; j < n; ++j) {
          eval(i, j);
          if (!symmetric) eval(j, i);
        }
      } else {
        for (size_t j = 0; j < n; ++j) {
          if (i != j) eval(i, j);
        }
      }
    }
  };
  if (kernel == nullptr) {
    auto& rows = scratch->rows;
    if (scratch->projected.size() < n) scratch->projected.resize(n);
    rows.clear();
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(&row(i, &scratch->projected[i]));
    }
    each_pair([&](size_t i, size_t j) { Probe(rule, *rows[i], *rows[j], out); });
    return;
  }

  auto& tuples = scratch->tuples;
  auto& units = scratch->units;
  tuples.clear();
  units.clear();
  for (size_t i = 0; i < n; ++i) {
    const KernelUnit u = unit(i);
    tuples.push_back(u.codes);
    units.push_back(u.unit);
  }
  auto materialize = [&](size_t i, size_t j) {
    writer->WritePair(units[i], units[j], &out->violations);
  };
  if (unordered && symmetric) {
    // The hot shape (FDs, symmetric DCs): one branch-light batched call
    // over contiguous codes, reporting matches in (i, j) loop order.
    scratch->matches.clear();
    out->detect_calls += n * (n - 1) / 2;
    kernel->MatchUpper(tuples.data(), n, &scratch->matches);
    for (const auto& [i, j] : scratch->matches) materialize(i, j);
    return;
  }
  each_pair([&](size_t i, size_t j) {
    ++out->detect_calls;
    if (kernel->Matches(tuples[i], tuples[j])) materialize(i, j);
  });
}

/// Appends every task's violations to `out` in task order, reserving once.
inline void AppendViolations(std::vector<TaskOutput>* tasks,
                             ViolationBuffer* out) {
  std::vector<ViolationBuffer*> parts;
  parts.reserve(tasks->size());
  for (TaskOutput& t : *tasks) parts.push_back(&t.violations);
  out->AppendAll(parts);
}

/// Folds one partition's morsel partials into its TaskOutput, in morsel
/// (unit-range) order — violation order stays identical to one sequential
/// pass over the partition's units.
inline TaskOutput MergeTaskPieces(std::vector<TaskOutput>&& pieces) {
  TaskOutput merged;
  for (const auto& piece : pieces) merged.detect_calls += piece.detect_calls;
  AppendViolations(&pieces, &merged.violations);
  return merged;
}

/// Appends per-task outputs to `violations` and counts their Detect calls
/// into `result`. Driver-side (one call per detection stage), so the
/// registry bookkeeping here is off the worker-timed hot path.
inline void MergeOutputs(std::vector<TaskOutput>* tasks,
                         ViolationBuffer* violations,
                         DetectionResult* result) {
  ScopedActivity activity(
      Profiler::Instance().Intern("detect:merge", "driver"));
  size_t total = 0;
  uint64_t fixes = 0;
  for (const auto& t : *tasks) {
    result->detect_calls += t.detect_calls;
    total += t.violations.size();
    fixes += t.violations.num_fixes();
  }
  AppendViolations(tasks, violations);
  if (total > 0) {
    MetricsRegistry& registry = MetricsRegistry::Instance();
    registry.GetCounter("rules.violations_detected").Add(total);
    registry.GetCounter("rules.fixes_proposed").Add(fixes);
  }
}

}  // namespace detect
}  // namespace bigdansing

#endif  // BIGDANSING_CORE_DETECT_OUTPUT_H_
