#ifndef BIGDANSING_CORE_JOB_H_
#define BIGDANSING_CORE_JOB_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/logical_plan.h"
#include "core/rule_engine.h"
#include "data/table.h"
#include "dataflow/context.h"

namespace bigdansing {

/// The user-facing job API of Appendix A: users register labeled logical
/// operators (Scope, Block, Iterate, Detect, GenFix) and input datasets,
/// and the planner assembles, validates and executes the dataflow
/// (§3.2, Figure 3). Labels name data flows; an operator consumes the flow
/// with its label and passes the transformed flow downstream under the
/// same label (Iterate merges several input flows into one output flow).
///
/// Example (the paper's Listing 3, adapted):
///
///   Job job("example");
///   job.AddInput("S", &customers)
///      .AddInput("W", &suppliers)
///      .AddScope(ProjectNamePhone, "S")
///      .AddBlock(KeyOnName, "S")
///      .AddBlock(KeyOnName, "W")
///      .AddIterate("M", {"S", "W"})       // pairs across the two flows
///      .AddDetect(MyDetect, "M")
///      .AddGenFix(MyGenFix, "M");
///   auto result = job.Run(&ctx);
///
/// Missing operators are generated per §3.2: no Iterate -> all unordered
/// pairs (single flow) or all cross-flow pairs (two flows); no Block ->
/// one global block; no Scope -> identity. Iterate outputs cannot feed
/// other Iterates (bushy plans over iterate outputs, Appendix E, are out
/// of scope for the job API; use a DetectRequest with `right` set for the
/// supported two-table case).
class Job {
 public:
  /// Scope UDF: unit -> filtered/transformed units (may replicate or drop).
  using ScopeFn = std::function<std::vector<Row>(const Row&)>;
  /// Block UDF: unit -> blocking key (null key drops the unit from blocks).
  using BlockFn = std::function<Value(const Row&)>;
  /// Iterate UDF over one flow's block: units -> candidate pairs.
  using IterateFn =
      std::function<std::vector<RowPair>(const std::vector<Row>&)>;
  /// Iterate UDF over a co-block of two flows: (left units, right units)
  /// -> candidate pairs.
  using Iterate2Fn = std::function<std::vector<RowPair>(
      const std::vector<Row>&, const std::vector<Row>&)>;
  /// Detect UDF: candidate pair -> violations.
  using DetectFn =
      std::function<void(const RowPair&, std::vector<Violation>*)>;
  /// GenFix UDF: violation -> possible fixes.
  using GenFixFn =
      std::function<void(const Violation&, std::vector<Fix>*)>;

  explicit Job(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Registers `table` as the data flow `label`. The table must outlive
  /// Run(). The same table may be registered under several labels (the
  /// paper's Listing 3 registers D1 as both S and T).
  Job& AddInput(const std::string& label, const Table* table);

  /// Adds a Scope operator on flow `label`.
  Job& AddScope(ScopeFn fn, const std::string& label);

  /// Adds a Block operator on flow `label`.
  Job& AddBlock(BlockFn fn, const std::string& label);

  /// Adds an Iterate producing flow `output_label` from one or two input
  /// flows. With one input flow the pairing is within blocks; with two it
  /// is across the co-blocks of the two flows. `fn`/`fn2` override the
  /// default pairing (all unordered pairs / full bag cross product).
  Job& AddIterate(const std::string& output_label,
                  std::vector<std::string> input_labels);
  Job& AddIterate(const std::string& output_label,
                  std::vector<std::string> input_labels, IterateFn fn);
  Job& AddIterate(const std::string& output_label,
                  std::vector<std::string> input_labels, Iterate2Fn fn2);

  /// Adds a Detect on flow `label` (an Iterate output, or a unit flow —
  /// the planner then generates the Iterate, §3.2).
  Job& AddDetect(DetectFn fn, const std::string& label,
                 const std::string& rule_name = "");

  /// Adds a GenFix on the same label as a Detect.
  Job& AddGenFix(GenFixFn fn, const std::string& label);

  /// Validates the job (§3.2: every referenced flow defined, at least one
  /// Detect, at most one operator of each kind per label, Iterate arity
  /// 1 or 2) without running it.
  Status Validate() const;

  /// The logical plan the planner assembled, for inspection/EXPLAIN.
  Result<LogicalPlan> Plan() const;

  /// Validates, plans and executes the job on `ctx`; returns all
  /// violations with their fixes (one DetectionResult pooling every
  /// Detect operator's output).
  Result<DetectionResult> Run(ExecutionContext* ctx) const;

 private:
  struct ScopeOp {
    ScopeFn fn;
    std::string label;
  };
  struct BlockOp {
    BlockFn fn;
    std::string label;
  };
  struct IterateOp {
    std::string output_label;
    std::vector<std::string> input_labels;
    IterateFn fn;    // One-flow custom pairing (optional).
    Iterate2Fn fn2;  // Two-flow custom pairing (optional).
  };
  struct DetectOp {
    DetectFn fn;
    std::string label;
    std::string rule_name;
  };
  struct GenFixOp {
    GenFixFn fn;
    std::string label;
  };

  const ScopeOp* FindScope(const std::string& label) const;
  const BlockOp* FindBlock(const std::string& label) const;
  const IterateOp* FindIterate(const std::string& output_label) const;

  std::string name_;
  std::vector<std::pair<std::string, const Table*>> inputs_;
  std::vector<ScopeOp> scopes_;
  std::vector<BlockOp> blocks_;
  std::vector<IterateOp> iterates_;
  std::vector<DetectOp> detects_;
  std::vector<GenFixOp> genfixes_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_JOB_H_
