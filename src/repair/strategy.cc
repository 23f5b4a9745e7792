#include "repair/strategy.h"

#include "common/fault.h"
#include "obs/quality.h"
#include "repair/equivalence_class.h"
#include "repair/hypergraph_repair.h"

namespace bigdansing {

Result<RepairPassResult> RepairStrategy::Repair(
    ExecutionContext* ctx, const std::vector<ViolationWithFixes>& violations,
    const BlackBoxOptions& options) const {
  ViolationBuffer buffer;
  try {
    buffer = ObjectsAsBuffer(ctx, violations);
  } catch (const StageError& e) {
    return e.status();
  }
  return Repair(ctx, buffer, options);
}

Result<RepairPassResult> RepairStrategy::Repair(
    ExecutionContext* ctx, const ViolationBuffer& violations,
    const BlackBoxOptions& options) const {
  // Provenance feeds both the lineage ledger and the quality recorder, so
  // either consumer being live turns attribution on.
  const bool lineage_on = ProvenanceTrackingEnabled();
  try {
    return DoRepair(ctx, violations, options, lineage_on);
  } catch (const StageError& e) {
    return e.status();
  }
}

namespace {

/// Black-box scheme around the centralized equivalence-class algorithm.
class EquivalenceClassStrategy : public RepairStrategy {
 public:
  std::string name() const override { return "equivalence-class"; }

 protected:
  RepairPassResult DoRepair(ExecutionContext* ctx,
                            const ViolationBuffer& violations,
                            const BlackBoxOptions& options,
                            bool /*lineage_on*/) const override {
    // BlackBoxRepair reads the lineage toggle itself when attributing
    // assignments; nothing extra to thread through.
    EquivalenceClassAlgorithm algorithm;
    return BlackBoxRepair(ctx, violations, algorithm, options);
  }
};

/// Black-box scheme around the hypergraph algorithm.
class HypergraphStrategy : public RepairStrategy {
 public:
  std::string name() const override { return "hypergraph"; }

 protected:
  RepairPassResult DoRepair(ExecutionContext* ctx,
                            const ViolationBuffer& violations,
                            const BlackBoxOptions& options,
                            bool /*lineage_on*/) const override {
    HypergraphRepairAlgorithm algorithm;
    return BlackBoxRepair(ctx, violations, algorithm, options);
  }
};

/// Natively distributed equivalence class (§5.2). Ignores the black-box
/// options — the distribution scheme is baked into the algorithm.
class DistributedEquivalenceClassStrategy : public RepairStrategy {
 public:
  std::string name() const override { return "distributed-equivalence-class"; }

 protected:
  RepairPassResult DoRepair(ExecutionContext* ctx,
                            const ViolationBuffer& violations,
                            const BlackBoxOptions& /*options*/,
                            bool lineage_on) const override {
    RepairPassResult result;
    result.applied = DistributedEquivalenceClassRepair(
        ctx, violations, lineage_on ? &result.provenance : nullptr);
    return result;
  }
};

}  // namespace

const RepairStrategy& RepairStrategyFor(RepairMode mode) {
  static const EquivalenceClassStrategy equivalence_class;
  static const HypergraphStrategy hypergraph;
  static const DistributedEquivalenceClassStrategy distributed;
  switch (mode) {
    case RepairMode::kHypergraph:
      return hypergraph;
    case RepairMode::kDistributedEquivalenceClass:
      return distributed;
    case RepairMode::kEquivalenceClass:
      break;
  }
  return equivalence_class;
}

}  // namespace bigdansing
