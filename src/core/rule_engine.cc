#include "core/rule_engine.h"

#include <atomic>
#include <optional>
#include <unordered_map>

#include "common/fault.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/columnar_detect.h"
#include "core/detect_output.h"
#include "obs/profiler.h"
#include "dataflow/dataset.h"
#include "dataflow/stage_executor.h"

namespace bigdansing {

namespace {

/// The viewed rows copied into a dataset on the view's partitions, for the
/// changed-rows request's single and unblocked passes and two-table
/// detection. The copy is serial driver work; published to the sampling
/// profiler so profiled runs attribute it instead of counting idle ticks.
Dataset<Row> LoadTable(const PartitionView<Row>& view) {
  ScopedActivity activity(Profiler::Instance().Intern("load:table", "driver"));
  return view.Materialize();
}

/// Applies PScope: projects each row to `scope_columns`, recording source
/// columns so cells map back to the base table. Empty columns = identity.
Dataset<Row> ApplyScope(const Dataset<Row>& data,
                        const std::vector<size_t>& scope_columns) {
  if (scope_columns.empty()) return data;
  return data.Map([scope_columns](const Row& row) {
    return columnar::ScopeProject(row, scope_columns);
  }, "scope");
}

// Detection task accumulation and the merge helpers live in
// detect_output.h, shared with the detection stages (columnar_detect.cc)
// and the stream session's window stage.
using columnar::RowRef;
using detect::MergeOutputs;
using detect::MergeTaskPieces;
using detect::Probe;
using detect::ProbeSingle;
using detect::TaskOutput;

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
    } else if (incremental) {
      status = DetectIncrementalImpl(*request.table, request.rules[0],
                                     *request.changed_rows, &out);
    } else {
      status = DetectAllImpl(*request.table, request.rules, &out);
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
  // Block parameters reuse one pass through the caches.
  const PartitionView<Row> view = PartitionView<Row>::Split(ctx_, table.rows());
  columnar::ColumnarCaches caches;
  for (size_t r = 0; r < rules.size(); ++r) {
    const PhysicalRulePlan& plan = plans[r];
    DetectionResult& result = out->results[r];
    result.plan_description = plan.ToString();

    // Per-rule attribution: every stage this rule forces nests under its
    // rule span (via the driver thread's scope stack), so the EXPLAIN tree
    // and Chrome trace break execution down by rule.
    std::optional<ScopedSpan> rule_span;
    if (trace.enabled()) {
      rule_span.emplace(plan.rule->name(), "rule");
      plan.AnnotateSpan(&*rule_span);
    }
    columnar::DetectRule(ctx_, plan, options_.use_iejoin, view, &caches,
                         &out->violations, &result);
    out->rule_end.push_back(out->violations.size());
  }
  return Status::OK();
}

Status RuleEngine::DetectIncrementalImpl(
    const Table& table, const RulePtr& rule,
    const std::unordered_set<RowId>& changed_rows,
    BufferedDetection* out) const {
  auto plan = BuildPhysicalPlan(rule, table.schema(), options_);
  if (!plan.ok()) return plan.status();
  out->results.resize(1);
  out->rule_end.assign(1, 0);
  DetectionResult& result = out->results[0];
  ViolationBuffer* violations = &out->violations;
  result.plan_description = plan->ToString() + " [incremental: " +
                            std::to_string(changed_rows.size()) +
                            " changed rows]";
  if (changed_rows.empty()) return Status::OK();

  const PartitionView<Row> view = PartitionView<Row>::Split(ctx_, table.rows());
  const bool has_blocking =
      !plan->blocking_columns.empty() || static_cast<bool>(plan->block_key_fn);
  if (plan->strategy != IterateStrategy::kSingle && has_blocking) {
    // Only blocks containing a changed row can gain or lose violations.
    // First pass: the changed rows' block keys (a small driver-side set);
    // second pass: key only the rows landing in those blocks, so the
    // shuffle moves a fraction of the data. Then the blocked stage of a
    // whole-table Detect, without a kernel.
    const auto& parts = view.partitions();
    std::vector<std::vector<uint64_t>> per_part_keys =
        view.RunStageProducing<std::vector<uint64_t>>(
            "block:dirty-keys", [&](size_t p, TaskContext& tc) {
              std::vector<uint64_t> keys;
              Row projected;
              uint64_t key = 0;
              for (const Row& row : parts[p]) {
                if (changed_rows.count(row.id()) > 0 &&
                    columnar::ComputeBlockKey(*plan, row, &projected, &key)) {
                  keys.push_back(key);
                }
              }
              tc.records_out = keys.size();
              return keys;
            });
    std::unordered_set<uint64_t> dirty_keys;
    for (const auto& keys : per_part_keys) {
      dirty_keys.insert(keys.begin(), keys.end());
    }
    using KeyedPart = std::vector<std::pair<uint64_t, RowRef>>;
    std::vector<KeyedPart> keyed = view.RunStageProducing<KeyedPart>(
        "block:dirty", [&](size_t p, TaskContext& tc) {
          KeyedPart out;
          Row projected;
          uint64_t key = 0;
          for (size_t i = 0; i < parts[p].size(); ++i) {
            if (columnar::ComputeBlockKey(*plan, parts[p][i], &projected,
                                          &key) &&
                dirty_keys.count(key) > 0) {
              out.emplace_back(key, RowRef{static_cast<uint32_t>(p),
                                           static_cast<uint32_t>(i)});
            }
          }
          tc.records_out = out.size();
          return out;
        });
    columnar::IterateBlocks(
        ctx_, *plan, view,
        GroupByKey(Dataset<std::pair<uint64_t, RowRef>>(ctx_, std::move(keyed))),
        violations, &result);
    out->rule_end[0] = violations->size();
    return Status::OK();
  }

  Dataset<Row> scoped = ApplyScope(LoadTable(view), plan->scope_columns);

  // Arity-1: only the changed units can have new violations.
  if (plan->strategy == IterateStrategy::kSingle) {
    const auto& parts = scoped.partitions();
    std::vector<TaskOutput> tasks = scoped.RunStageProducing<TaskOutput>(
        "detect:single|genfix", [&](size_t p, TaskContext& tc) {
          TaskOutput out;
          for (const Row& row : parts[p]) {
            if (changed_rows.count(row.id()) == 0) continue;
            ProbeSingle(*plan->rule, row, &out);
          }
          tc.records_out = out.violations.size();
          return out;
        });
    MergeOutputs(&tasks, violations, &result);
    out->rule_end[0] = violations->size();
    return Status::OK();
  }

  // Unblocked (incl. OCJoin rules): pair every changed row against the
  // whole dataset in both orientations — O(|changed| * n) probes, which is
  // the win when few rows changed.
  std::vector<Row> rows = scoped.Collect();
  std::vector<Row> changed;
  for (const Row& row : rows) {
    if (changed_rows.count(row.id()) > 0) changed.push_back(row);
  }
  Dataset<Row> changed_ds = Dataset<Row>::FromVector(ctx_, std::move(changed));
  const auto& parts = changed_ds.partitions();
  std::vector<TaskOutput> tasks = changed_ds.RunStageMorsels<TaskOutput>(
      "iterate|detect:incremental",
      [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        for (size_t i = begin; i < end; ++i) {
          const Row& c = parts[p][i];
          for (const Row& r : rows) {
            if (r.id() == c.id()) continue;
            // Each unordered pair {c, r} is owned by exactly one loop
            // iteration: by c when r is unchanged, else by the smaller id —
            // so both-changed pairs are not probed twice.
            if (changed_rows.count(r.id()) > 0 && r.id() < c.id()) continue;
            Probe(*plan->rule, c, r, &out);
            Probe(*plan->rule, r, c, &out);
          }
        }
        ctx_->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = end - begin;
        tc.records_out = out.violations.size();
        return out;
      },
      [](size_t, std::vector<TaskOutput>&& pieces) {
        return MergeTaskPieces(std::move(pieces));
      });
  MergeOutputs(&tasks, violations, &result);
  out->rule_end[0] = violations->size();
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
    return DetectAllImpl(*out->loaded, {rule}, out);
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
  out->results.resize(1);
  out->rule_end.assign(1, 0);
  DetectionResult& result = out->results[0];
  ViolationBuffer* violations = &out->violations;
  BIGDANSING_RETURN_NOT_OK(rule->BindAcross(left.schema(), right.schema()));
  TraceRecorder& trace = TraceRecorder::Instance();
  std::optional<ScopedSpan> rule_span;
  if (trace.enabled()) rule_span.emplace(rule->name(), "rule");
  auto blocking = rule->BlockingAttributePairs();
  result.plan_description =
      "PhysicalPlan[" + rule->name() + "]: coblock(" +
      std::to_string(blocking.size()) + " key pairs) -> iterate -> detect -> genfix";

  Dataset<Row> left_ds =
      LoadTable(PartitionView<Row>::Split(ctx_, left.rows()));
  Dataset<Row> right_ds =
      LoadTable(PartitionView<Row>::Split(ctx_, right.rows()));

  if (blocking.empty()) {
    // No equality link: cross product of the two datasets.
    std::optional<ScopedSpan> op_span;
    if (trace.enabled()) {
      op_span.emplace("iterate|detect|genfix", "operator");
    }
    auto pairs = left_ds.Cartesian(right_ds);
    const auto& parts = pairs.partitions();
    std::vector<TaskOutput> tasks = pairs.RunStageMorsels<TaskOutput>(
        "detect|genfix:cartesian",
        [&](size_t p) { return parts[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          TaskOutput out;
          for (size_t i = begin; i < end; ++i) {
            const auto& pr = parts[p][i];
            Probe(*rule, pr.first, pr.second, &out);
          }
          tc.records_in = end - begin;
          tc.records_out = out.violations.size();
          return out;
        },
        [](size_t, std::vector<TaskOutput>&& pieces) {
          return MergeTaskPieces(std::move(pieces));
        });
    MergeOutputs(&tasks, violations, &result);
    out->rule_end[0] = violations->size();
    return Status::OK();
  }

  // CoBlock enhancer: key both sides on their half of the equality
  // predicates and cogroup, so Iterate only pairs units within co-blocks
  // (Figure 6).
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
  auto key_rows = [](const Dataset<Row>& ds, const std::vector<size_t>& cols) {
    // Deferred until the CoGroup below: capture the column list by value.
    return ds.FlatMap([cols](const Row& row) {
      std::vector<std::pair<uint64_t, Row>> out;
      uint64_t h = 0x42D;
      for (size_t c : cols) {
        const Value& v = row.value(c);
        if (v.is_null()) return out;
        h = StableHashUint64(h ^ v.Hash());
      }
      out.emplace_back(h, row);
      return out;
    });
  };
  std::optional<ScopedSpan> op_span;
  if (trace.enabled()) {
    op_span.emplace("coblock|iterate|detect|genfix", "operator");
  }
  auto coblocks = CoGroup(key_rows(left_ds, left_cols),
                          key_rows(right_ds, right_cols));
  const auto& parts = coblocks.partitions();
  std::vector<TaskOutput> tasks = coblocks.RunStageMorsels<TaskOutput>(
      "iterate|detect|genfix:coblock",
      [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        for (size_t i = begin; i < end; ++i) {
          const auto& [lbag, rbag] = parts[p][i].second;
          for (const Row& a : lbag) {
            for (const Row& b : rbag) {
              Probe(*rule, a, b, &out);
            }
          }
        }
        ctx_->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = end - begin;
        tc.records_out = out.violations.size();
        return out;
      },
      [](size_t, std::vector<TaskOutput>&& pieces) {
        return MergeTaskPieces(std::move(pieces));
      });
  MergeOutputs(&tasks, violations, &result);
  out->rule_end[0] = violations->size();
  return Status::OK();
}

}  // namespace bigdansing
