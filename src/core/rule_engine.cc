#include "core/rule_engine.h"

#include <optional>
#include <unordered_map>

#include "common/fault.h"
#include "common/trace.h"
#include "core/columnar_detect.h"
#include "dataflow/dataset.h"
#include "dataflow/stage_executor.h"

namespace bigdansing {

namespace {

using columnar::RowRef;

/// A public Detect builds its objects in up to four tasks per worker of at
/// least kObjectsPerTask each, so every logical worker gets a share; an
/// output that would make a single task is built on the calling thread.
constexpr size_t kObjectsPerTask = 256;

/// Violations [begin, end) of `buffer` as objects, written in place into a
/// vector sized up front: one `detect:objects` stage over contiguous runs,
/// or the calling thread for small outputs.
std::vector<ViolationWithFixes> BuildObjects(ExecutionContext* ctx,
                                             const ViolationBuffer& buffer,
                                             size_t begin, size_t end) {
  const size_t n = end - begin;
  std::vector<ViolationWithFixes> out(n);
  if (n < 2 * kObjectsPerTask) {
    for (size_t v = begin; v < end; ++v) buffer.ToObject(v, &out[v - begin]);
    return out;
  }
  const size_t num_tasks = std::min(
      n / kObjectsPerTask, 4 * std::max<size_t>(1, ctx->num_workers()));
  // Tasks write disjoint slots (a retried attempt rewrites its own), and
  // Run never speculates.
  const Status status = StageExecutor(ctx).Run(
      "detect:objects", num_tasks, [&](size_t t, TaskContext& tc) {
        const size_t first = t * n / num_tasks;
        const size_t last = (t + 1) * n / num_tasks;
        for (size_t i = first; i < last; ++i) {
          buffer.ToObject(begin + i, &out[i]);
        }
        tc.records_in = last - first;
        tc.records_out = last - first;
      });
  if (!status.ok()) throw StageError(status);
  return out;
}

}  // namespace

RuleEngine::RuleEngine(ExecutionContext* ctx, PlannerOptions options)
    : ctx_(ctx), options_(options) {}

Result<BufferedDetection> RuleEngine::DetectBuffered(
    const DetectRequest& request) const {
  return DetectImpl(request, /*objects=*/false);
}

Result<std::vector<DetectionResult>> RuleEngine::Detect(
    const DetectRequest& request) const {
  auto detected = DetectImpl(request, /*objects=*/true);
  if (!detected.ok()) return detected.status();
  return std::move(detected->results);
}

Result<DetectionResult> RuleEngine::Detect(const Table& table,
                                           const RulePtr& rule) const {
  DetectRequest request;
  request.table = &table;
  request.rules = {rule};
  auto results = Detect(request);
  if (!results.ok()) return results.status();
  return std::move((*results)[0]);
}

Result<BufferedDetection> RuleEngine::DetectImpl(const DetectRequest& request,
                                                 bool objects) const {
  // --- Shape validation: reject malformed requests before any stage runs.
  // Zero rules is trivially valid for plain in-memory detection (nothing to
  // detect, empty result) — Clean() with an empty rule list relies on it.
  if (request.rules.empty()) {
    if (request.storage != nullptr || request.right != nullptr ||
        request.changed_rows != nullptr) {
      return Status::InvalidArgument(
          "DetectRequest: at least one rule required");
    }
    if (request.table == nullptr) {
      return Status::InvalidArgument(
          "DetectRequest: a table (or storage + dataset) is required");
    }
    return BufferedDetection{};
  }
  for (const auto& rule : request.rules) {
    if (rule == nullptr) {
      return Status::InvalidArgument("DetectRequest: null rule");
    }
  }
  const bool storage_backed = request.storage != nullptr;
  const bool across = request.right != nullptr;
  const bool incremental = request.changed_rows != nullptr;
  if (storage_backed) {
    if (request.table != nullptr || across || incremental) {
      return Status::InvalidArgument(
          "DetectRequest: storage-backed detection takes no table, right "
          "table, or changed-row set");
    }
    if (request.dataset.empty()) {
      return Status::InvalidArgument(
          "DetectRequest: storage-backed detection requires a dataset name");
    }
    if (request.rules.size() != 1) {
      return Status::InvalidArgument(
          "DetectRequest: storage-backed detection takes exactly one rule");
    }
  } else {
    if (request.table == nullptr) {
      return Status::InvalidArgument(
          "DetectRequest: a table (or storage + dataset) is required");
    }
    if (!request.dataset.empty()) {
      return Status::InvalidArgument(
          "DetectRequest: dataset name requires a storage manager");
    }
  }
  std::shared_ptr<DcRule> across_rule;
  if (across) {
    if (incremental) {
      return Status::InvalidArgument(
          "DetectRequest: two-table detection cannot be incremental");
    }
    if (request.rules.size() != 1) {
      return Status::InvalidArgument(
          "DetectRequest: two-table detection takes exactly one rule");
    }
    across_rule = std::dynamic_pointer_cast<DcRule>(request.rules[0]);
    if (across_rule == nullptr) {
      return Status::InvalidArgument(
          "DetectRequest: two-table detection requires a denial-constraint "
          "rule");
    }
  }
  if (incremental && request.rules.size() != 1) {
    return Status::InvalidArgument(
        "DetectRequest: incremental detection takes exactly one rule");
  }

  // --- Scoped fault policy + the single StageError -> Status boundary of
  // the detection API: everything below, the objects' stage included, may
  // throw when a stage exhausts its retry budget.
  std::optional<ScopedFaultPolicy> scoped_policy;
  if (request.fault_policy.has_value()) {
    scoped_policy.emplace(ctx_, *request.fault_policy);
  }
  BufferedDetection out;
  out.violations.set_table(request.table);
  try {
    // Tracing: a standalone request (benches driving the engine directly)
    // is its own job span, the objects' stage included; when a Clean()
    // fix-point iteration already opened a phase span, rule spans nest
    // under it instead.
    TraceRecorder& trace = TraceRecorder::Instance();
    std::optional<ScopedSpan> job_span;
    if (trace.enabled() && trace.CurrentSpan() == 0) {
      job_span.emplace(across ? "detect-across" : "detect", "job");
      job_span->Annotate("rules",
                         static_cast<uint64_t>(request.rules.size()));
    }
    Status status;
    if (storage_backed) {
      status = DetectWithStorageImpl(*request.storage, request.dataset,
                                     request.rules[0], &out);
    } else if (across) {
      status =
          DetectAcrossImpl(*request.table, *request.right, across_rule, &out);
    } else {
      status = DetectAllImpl(*request.table, request.rules,
                             request.changed_rows, &out);
    }
    if (!status.ok()) return status;
    if (objects) {
      for (size_t r = 0; r < out.results.size(); ++r) {
        out.results[r].violations =
            BuildObjects(ctx_, out.violations,
                         r == 0 ? 0 : out.rule_end[r - 1], out.rule_end[r]);
      }
    }
  } catch (const StageError& e) {
    return e.status();
  }
  return out;
}

Status RuleEngine::DetectAllImpl(const Table& table,
                                 const std::vector<RulePtr>& rules,
                                 const std::unordered_set<RowId>* changed,
                                 BufferedDetection* out) const {
  out->results.resize(rules.size());
  TraceRecorder& trace = TraceRecorder::Instance();

  // Build physical plans first so binding errors surface before any work.
  std::vector<PhysicalRulePlan> plans;
  plans.reserve(rules.size());
  for (const auto& rule : rules) {
    auto plan = BuildPhysicalPlan(rule, table.schema(), options_);
    if (!plan.ok()) return plan.status();
    plans.push_back(std::move(*plan));
  }

  // Shared scan (plan consolidation, §4.2): every rule reads the table in
  // place through one partitioned view, and rules with equal encode or
  // Block parameters reuse one pass through the caches. An empty
  // changed-row set has nothing to re-detect: no stage runs, and the table
  // is not read.
  const bool idle = changed != nullptr && changed->empty();
  const PartitionView<Row> view =
      idle ? PartitionView<Row>() : PartitionView<Row>::Split(ctx_, table.rows());
  columnar::ColumnarCaches caches;
  for (size_t r = 0; r < rules.size(); ++r) {
    const PhysicalRulePlan& plan = plans[r];
    DetectionResult& result = out->results[r];
    result.plan_description = plan.ToString();
    if (changed != nullptr) {
      result.plan_description += " [incremental: " +
                                 std::to_string(changed->size()) +
                                 " changed rows]";
    }
    if (idle) {
      out->rule_end.push_back(out->violations.size());
      continue;
    }

    // Per-rule attribution: every stage this rule forces nests under its
    // rule span (via the driver thread's scope stack), so the EXPLAIN tree
    // and Chrome trace break execution down by rule.
    std::optional<ScopedSpan> rule_span;
    if (trace.enabled()) {
      rule_span.emplace(plan.rule->name(), "rule");
      plan.AnnotateSpan(&*rule_span);
    }
    columnar::DetectRule(ctx_, plan, options_.use_iejoin, view, changed,
                         &caches, &out->violations, &result);
    out->rule_end.push_back(out->violations.size());
  }
  return Status::OK();
}

Status RuleEngine::DetectWithStorageImpl(const StorageManager& storage,
                                         const std::string& name,
                                         const RulePtr& rule,
                                         BufferedDetection* out) const {
  auto schema = storage.GetSchema(name);
  if (!schema.ok()) return schema.status();
  auto plan = BuildPhysicalPlan(rule, *schema, options_);
  if (!plan.ok()) return plan.status();

  // Pushdown applies when the rule blocks on exactly one attribute and a
  // replica partitioned on that attribute exists.
  std::vector<std::string> blocking = rule->BlockingAttributes();
  const PartitionedReplica* replica = nullptr;
  if (blocking.size() == 1 && !plan->block_key_fn) {
    auto found = storage.FindReplica(name, blocking[0]);
    if (found.ok()) replica = *found;
  }
  if (replica == nullptr) {
    // No matching replica: ordinary path over the reassembled table, which
    // the result keeps (its cells refer to it).
    auto table = storage.Load(name);
    if (!table.ok()) return table.status();
    out->loaded = std::make_unique<Table>(std::move(*table));
    out->violations.set_table(out->loaded.get());
    return DetectAllImpl(*out->loaded, {rule}, nullptr, out);
  }

  out->results.resize(1);
  DetectionResult& result = out->results[0];
  result.plan_description =
      plan->ToString() + " [block pushed down to storage replica '" +
      replica->attribute + "']";
  // Rows sharing a blocking key are co-located in one storage partition,
  // so grouping is local to each partition — no shuffle. Then the blocked
  // stage of a whole-table Detect, without a kernel.
  const PartitionView<Row> view(ctx_, replica->partitions);
  ctx_->metrics().AddRecordsRead(view.Count());
  const auto& parts = view.partitions();
  using LocalBlocks = std::vector<std::pair<uint64_t, std::vector<RowRef>>>;
  std::vector<LocalBlocks> blocks = view.RunStageProducing<LocalBlocks>(
      "block:local", [&](size_t p, TaskContext& tc) {
        std::unordered_map<uint64_t, std::vector<RowRef>> groups;
        Row projected;
        uint64_t key = 0;
        for (size_t i = 0; i < parts[p].size(); ++i) {
          if (columnar::ComputeBlockKey(*plan, parts[p][i], &projected,
                                        &key)) {
            groups[key].push_back(RowRef{static_cast<uint32_t>(p),
                                         static_cast<uint32_t>(i)});
          }
        }
        LocalBlocks out;
        out.reserve(groups.size());
        for (auto& g : groups) out.emplace_back(g.first, std::move(g.second));
        tc.records_out = out.size();
        return out;
      });
  columnar::IterateBlocks(ctx_, *plan, view,
                          columnar::Blocks(ctx_, std::move(blocks)),
                          &out->violations, &result);
  out->rule_end.assign(1, out->violations.size());
  return Status::OK();
}

Status RuleEngine::DetectAcrossImpl(const Table& left, const Table& right,
                                    const std::shared_ptr<DcRule>& rule,
                                    BufferedDetection* out) const {
  BIGDANSING_RETURN_NOT_OK(rule->BindAcross(left.schema(), right.schema()));
  // The CoBlock keys: each side's half of the equality predicates
  // t1.X = t2.Y.
  auto blocking = rule->BlockingAttributePairs();
  std::vector<size_t> left_cols;
  std::vector<size_t> right_cols;
  for (const auto& [la, ra] : blocking) {
    auto lc = left.schema().IndexOf(la);
    if (!lc.ok()) return lc.status();
    left_cols.push_back(*lc);
    auto rc = right.schema().IndexOf(ra);
    if (!rc.ok()) return rc.status();
    right_cols.push_back(*rc);
  }
  out->results.resize(1);
  DetectionResult& result = out->results[0];
  result.plan_description =
      "PhysicalPlan[" + rule->name() + "]: coblock(" +
      std::to_string(blocking.size()) + " key pairs) -> iterate -> detect -> genfix";
  std::optional<ScopedSpan> rule_span;
  if (TraceRecorder::Instance().enabled()) {
    rule_span.emplace(rule->name(), "rule");
  }
  columnar::DetectAcross(ctx_, *rule,
                         PartitionView<Row>::Split(ctx_, left.rows()),
                         PartitionView<Row>::Split(ctx_, right.rows()),
                         left_cols, right_cols, &out->violations, &result);
  out->rule_end.assign(1, out->violations.size());
  return Status::OK();
}

}  // namespace bigdansing
