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

/// Block key type: a stable hash of the blocking-key values. Collisions only
/// merge blocks (Detect re-checks the actual predicates), never lose pairs
/// that belong together, so correctness is preserved.
using BlockKey = uint64_t;

/// The viewed rows copied into a dataset on the view's partitions, for the
/// interpreted stages. The copy is serial driver work; published to the
/// sampling profiler so profiled runs attribute it instead of counting idle
/// ticks.
Dataset<Row> LoadTable(const PartitionView<Row>& view) {
  ScopedActivity activity(Profiler::Instance().Intern("load:table", "driver"));
  return view.Materialize();
}

/// PScope over viewed rows as one "scope" stage, without copying the base
/// rows first: the projected rows, partitioned like `view`.
Dataset<Row> ScopeView(const PartitionView<Row>& view,
                       const std::vector<size_t>& scope_columns) {
  const auto& parts = view.partitions();
  return Dataset<Row>(
      view.context(),
      view.RunStageMorsels<std::vector<Row>>(
          "scope", [&](size_t p) { return parts[p].size(); },
          [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
            std::vector<Row> out;
            out.reserve(end - begin);
            for (size_t i = begin; i < end; ++i) {
              out.push_back(columnar::ScopeProject(parts[p][i], scope_columns));
            }
            tc.records_in = end - begin;
            tc.records_out = out.size();
            return out;
          },
          [](size_t, std::vector<std::vector<Row>>&& pieces) {
            size_t total = 0;
            for (const auto& piece : pieces) total += piece.size();
            std::vector<Row> merged;
            merged.reserve(total);
            for (auto& piece : pieces) {
              merged.insert(merged.end(),
                            std::make_move_iterator(piece.begin()),
                            std::make_move_iterator(piece.end()));
            }
            return merged;
          }));
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

/// Computes the blocking key of `row` under `plan`; returns false when the
/// row belongs to no block (null key component / null UDF key).
bool ComputeBlockKey(const PhysicalRulePlan& plan, const Row& row,
                     BlockKey* key) {
  if (plan.block_key_fn) {
    Value v = plan.block_key_fn(plan.detect_schema, row);
    if (v.is_null()) return false;
    *key = v.Hash();
    return true;
  }
  uint64_t h = 0x42D;
  for (size_t c : plan.blocking_columns) {
    const Value& v = row.value(c);
    if (v.is_null()) return false;
    h = StableHashUint64(h ^ v.Hash());
  }
  *key = h;
  return true;
}

// Detection task accumulation, the per-block pair enumeration and the merge
// helpers live in detect_output.h, shared with the columnar kernel path
// (columnar_detect.cc) and the stream session's window stage.
using detect::BlockScratch;
using detect::IterateBlock;
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

/// Executes the blocked pipeline: Iterate within blocks -> Detect -> GenFix.
/// The task body accumulates into a per-attempt TaskOutput and returns it,
/// so a retried or speculative attempt never double-appends (the executor
/// commits exactly one buffer per task).
void RunBlocked(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                const Dataset<std::pair<BlockKey, std::vector<Row>>>& blocks,
                ViolationBuffer* violations, DetectionResult* result) {
  // Morsel units are whole blocks: a skewed partition (one giant dedup
  // block plus many tiny ones) no longer pins a single worker — idle
  // workers steal its block ranges. The quadratic interior of one block is
  // the floor of splittability here; OCJoin handles that case upstream by
  // never building giant blocks.
  const auto& parts = blocks.partitions();
  std::vector<TaskOutput> tasks = blocks.RunStageMorsels<TaskOutput>(
      "iterate|detect|genfix",
      [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        BlockScratch scratch;
        for (size_t b = begin; b < end; ++b) {
          const std::vector<Row>& block = parts[p][b].second;
          IterateBlock(
              plan, block.size(),
              [&block](size_t i, Row*) -> const Row& { return block[i]; },
              &scratch, &out);
        }
        ctx->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = end - begin;
        tc.records_out = out.violations.size();
        return out;
      },
      [](size_t, std::vector<TaskOutput>&& pieces) {
        return MergeTaskPieces(std::move(pieces));
      });
  MergeOutputs(&tasks, violations, result);
}

/// Executes the whole-dataset pair enumeration (no blocking key): rows are
/// chunked and chunk pairs are processed as parallel tasks.
void RunUnblocked(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                  const std::vector<Row>& rows, ViolationBuffer* violations,
                  DetectionResult* result) {
  const bool unordered = plan.strategy == IterateStrategy::kUCrossProduct &&
                         plan.rule->IsSymmetric();
  size_t num_chunks = std::max<size_t>(1, ctx->num_workers() * 2);
  if (num_chunks > rows.size()) num_chunks = std::max<size_t>(1, rows.size());
  size_t chunk = (rows.size() + num_chunks - 1) / num_chunks;
  // Task list: chunk pairs (i <= j). For unordered enumeration each chunk
  // pair is visited once; for ordered enumeration both orientations are
  // probed inside the task.
  struct ChunkPair {
    size_t i;
    size_t j;
  };
  std::vector<ChunkPair> chunk_pairs;
  for (size_t i = 0; i < num_chunks; ++i) {
    for (size_t j = i; j < num_chunks; ++j) chunk_pairs.push_back({i, j});
  }
  const bool materialize = plan.strategy == IterateStrategy::kCrossProduct;
  auto tasks = StageExecutor(ctx).RunProducing<TaskOutput>(
      "iterate|detect|genfix:unblocked", chunk_pairs.size(),
      [&](size_t t, TaskContext& tc) {
    auto [ci, cj] = chunk_pairs[t];
    size_t ibegin = ci * chunk;
    size_t iend = std::min(rows.size(), ibegin + chunk);
    size_t jbegin = cj * chunk;
    size_t jend = std::min(rows.size(), jbegin + chunk);
    TaskOutput task_out;
    TaskOutput* out = &task_out;
    const Rule& rule = *plan.rule;
    if (materialize) {
      // Wrapper semantics: PIterate materializes the candidate pair list,
      // then PDetect consumes it.
      std::vector<std::pair<const Row*, const Row*>> pairs;
      for (size_t i = ibegin; i < iend; ++i) {
        size_t jstart = (ci == cj) ? i + 1 : jbegin;
        for (size_t j = jstart; j < jend; ++j) {
          pairs.emplace_back(&rows[i], &rows[j]);
          pairs.emplace_back(&rows[j], &rows[i]);
        }
      }
      for (const auto& [a, b] : pairs) Probe(rule, *a, *b, out);
    } else {
      for (size_t i = ibegin; i < iend; ++i) {
        size_t jstart = (ci == cj) ? i + 1 : jbegin;
        for (size_t j = jstart; j < jend; ++j) {
          Probe(rule, rows[i], rows[j], out);
          if (!unordered) Probe(rule, rows[j], rows[i], out);
        }
      }
    }
    ctx->metrics().AddPairsEnumerated(out->detect_calls);
    tc.records_in = iend - ibegin;
    tc.records_out = out->violations.size();
    return task_out;
  });
  if (!tasks.ok()) throw StageError(tasks.status());
  MergeOutputs(&*tasks, violations, result);
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
  // place through one partitioned view. Only rules that take the
  // interpreted stages need the rows copied into a dataset, made once on
  // first use. Scoped/blocked intermediates are cached by their parameter
  // signature so rules with equal Scope/Block params reuse one pass.
  const PartitionView<Row> view = PartitionView<Row>::Split(ctx_, table.rows());
  std::optional<Dataset<Row>> base;
  std::unordered_map<std::string, Dataset<Row>> scoped_cache;
  std::unordered_map<std::string,
                     Dataset<std::pair<BlockKey, std::vector<Row>>>>
      block_cache;
  columnar::ColumnarCaches columnar_caches;
  ViolationBuffer* violations = &out->violations;

  auto detect_rule = [&](const PhysicalRulePlan& plan,
                         DetectionResult& result) {
    // Columnar kernel path (default; BD_KERNELS=0 disables): declarative
    // rules with a registered kernel compiler evaluate candidates over
    // dictionary codes encoded straight from the table's rows — no eager
    // scope stage — and fall through to the interpreted stages below when
    // not kernelizable (UDF rules, similarity predicates, global OCJoin).
    // Bit-identical output either way.
    if (ctx_->kernels_enabled() &&
        columnar::TryDetectColumnar(ctx_, plan, view, &columnar_caches,
                                    violations, &result)) {
      return;
    }

    // OCJoin enhancer: global inequality self-join (no blocking key). The
    // join encodes its condition columns straight from the table's rows, so
    // the conditions are mapped to base columns; it returns row positions,
    // which index the scoped rows as well (scope is a per-row projection).
    const bool has_blocking =
        !plan.blocking_columns.empty() || static_cast<bool>(plan.block_key_fn);
    if (plan.strategy == IterateStrategy::kOCJoin && !has_blocking) {
      // With kernels on, a compiled rule decides and writes each pair over
      // the base rows in place (position = table position); otherwise
      // Rule::Detect probes the scoped rows.
      std::unique_ptr<ViolationWriter> writer;
      if (ctx_->kernels_enabled()) {
        if (auto tmpl = KernelRegistry::Instance().Compile(
                *plan.rule, plan.detect_schema)) {
          writer = tmpl->BindWriter(plan.rule->name(), plan.scope_columns);
        }
      }
      Dataset<Row> scoped;
      std::vector<const Row*> rows;
      {
        std::optional<ScopedSpan> op_span;
        if (trace.enabled()) op_span.emplace("scope", "operator");
        rows.reserve(view.Count());
        if (writer != nullptr || plan.scope_columns.empty()) {
          for (const auto& part : view.partitions()) {
            for (const Row& row : part) rows.push_back(&row);
          }
        } else {
          scoped = ScopeView(view, plan.scope_columns);
          for (const auto& part : scoped.partitions()) {
            for (const Row& row : part) rows.push_back(&row);
          }
        }
      }
      std::vector<OrderingCondition> conditions = plan.ocjoin_conditions;
      if (!plan.scope_columns.empty()) {
        for (auto& c : conditions) {
          c.left_column = plan.scope_columns[c.left_column];
          c.right_column = plan.scope_columns[c.right_column];
        }
      }
      std::vector<RowIndexPair> pairs;
      if (options_.use_iejoin && IEJoinApplicable(conditions)) {
        pairs = IEJoin(ctx_, view, conditions, &result.iejoin_stats);
      } else {
        OCJoinOptions oc_options;
        oc_options.order_conditions_by_selectivity =
            options_.ocjoin_selectivity_ordering;
        pairs = OCJoin(ctx_, view, conditions, oc_options,
                       &result.ocjoin_stats);
      }
      std::optional<ScopedSpan> op_span;
      if (trace.enabled()) op_span.emplace("detect|genfix", "operator");
      // Tasks probe contiguous runs of the pair list, cut like a dataset
      // of the pairs would be. The pairs are join output, not input
      // records, so they are not counted as read.
      const size_t num_tasks = std::max<size_t>(1, ctx_->default_partitions());
      const size_t per =
          Dataset<RowIndexPair>::PartitionSize(pairs.size(), num_tasks);
      auto first_pair = [&](size_t t) {
        return std::min(pairs.size(), t * per);
      };
      auto tasks = StageExecutor(ctx_).RunMorsels<TaskOutput>(
          "detect|genfix:ocjoin-pairs", num_tasks,
          [&](size_t t) { return first_pair(t + 1) - first_pair(t); },
          [&](size_t t, size_t begin, size_t end, TaskContext& tc) {
            TaskOutput out;
            for (size_t i = first_pair(t) + begin; i < first_pair(t) + end;
                 ++i) {
              const RowIndexPair& pr = pairs[i];
              const Row& a = *rows[pr.left];
              const Row& b = *rows[pr.right];
              if (writer == nullptr) {
                Probe(*plan.rule, a, b, &out);
                continue;
              }
              ++out.detect_calls;
              if (writer->MatchesPair(a, b)) {
                writer->WritePair({&a, static_cast<uint32_t>(pr.left)},
                                  {&b, static_cast<uint32_t>(pr.right)},
                                  &out.violations);
              }
            }
            tc.records_in = end - begin;
            tc.records_out = out.violations.size();
            return out;
          },
          [](size_t, std::vector<TaskOutput>&& pieces) {
            return MergeTaskPieces(std::move(pieces));
          });
      if (!tasks.ok()) throw StageError(tasks.status());
      MergeOutputs(&*tasks, violations, &result);
      return;
    }

    // Interpreted stages: the table's rows as a dataset, copied once.
    if (!base) base = LoadTable(view);

    // PScope (cached across rules with identical column sets).
    std::string scope_sig;
    for (size_t c : plan.scope_columns) {
      scope_sig += std::to_string(c) + ",";
    }
    auto scoped_it = scoped_cache.find(scope_sig);
    if (scoped_it == scoped_cache.end()) {
      scoped_it =
          scoped_cache.emplace(scope_sig, ApplyScope(*base, plan.scope_columns))
              .first;
    }
    const Dataset<Row>& scoped = scoped_it->second;

    // Arity-1 rules: units flow straight to Detect.
    if (plan.strategy == IterateStrategy::kSingle) {
      std::optional<ScopedSpan> op_span;
      if (trace.enabled()) op_span.emplace("scope|detect|genfix", "operator");
      const auto& parts = scoped.partitions();
      std::vector<TaskOutput> tasks = scoped.RunStageMorsels<TaskOutput>(
          "detect:single|genfix",
          [&](size_t p) { return parts[p].size(); },
          [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
            TaskOutput out;
            for (size_t i = begin; i < end; ++i) {
              ProbeSingle(*plan.rule, parts[p][i], &out);
            }
            tc.records_in = end - begin;
            tc.records_out = out.violations.size();
            return out;
          },
          [](size_t, std::vector<TaskOutput>&& pieces) {
            return MergeTaskPieces(std::move(pieces));
          });
      MergeOutputs(&tasks, violations, &result);
      return;
    }

    if (has_blocking) {
      // PBlock (cached): key rows, drop keyless rows, group.
      std::string block_sig = scope_sig + "|";
      if (plan.block_key_fn) {
        block_sig += "udf:" + plan.rule->name();
      } else {
        for (size_t c : plan.blocking_columns) {
          block_sig += std::to_string(c) + ",";
        }
      }
      std::optional<ScopedSpan> op_span;
      if (trace.enabled()) {
        op_span.emplace("scope|block|iterate|detect|genfix", "operator");
      }
      auto block_it = block_cache.find(block_sig);
      if (block_it == block_cache.end()) {
        auto keyed = scoped.MapPartitions<std::pair<BlockKey, Row>>(
            [&plan](const std::vector<Row>& part) {
              std::vector<std::pair<BlockKey, Row>> out;
              out.reserve(part.size());
              BlockKey key = 0;
              for (const Row& row : part) {
                if (ComputeBlockKey(plan, row, &key)) {
                  out.emplace_back(key, row);
                }
              }
              return out;
            }, "block");
        block_it = block_cache.emplace(block_sig, GroupByKey(keyed)).first;
      }
      RunBlocked(ctx_, plan, block_it->second, violations, &result);
      return;
    }

    // No blocking key: whole-dataset enumeration.
    std::optional<ScopedSpan> op_span;
    if (trace.enabled()) {
      op_span.emplace("scope|iterate|detect|genfix", "operator");
    }
    std::vector<Row> rows = scoped.Collect();
    RunUnblocked(ctx_, plan, rows, violations, &result);
  };

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
    detect_rule(plan, result);
    out->rule_end.push_back(violations->size());
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

  Dataset<Row> base =
      LoadTable(PartitionView<Row>::Split(ctx_, table.rows()));
  Dataset<Row> scoped = ApplyScope(base, plan->scope_columns);

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

  const bool has_blocking =
      !plan->blocking_columns.empty() || static_cast<bool>(plan->block_key_fn);
  if (has_blocking) {
    // Only blocks containing a changed row can gain or lose violations.
    // First pass: the changed rows' block keys (a small driver-side set);
    // second pass: key and group only the rows landing in those blocks, so
    // the shuffle moves a fraction of the data.
    std::vector<std::vector<BlockKey>> per_part_keys =
        scoped.RunStageProducing<std::vector<BlockKey>>(
            "block:dirty-keys", [&](size_t p, TaskContext& tc) {
              std::vector<BlockKey> keys;
              BlockKey key = 0;
              for (const Row& row : scoped.partitions()[p]) {
                if (changed_rows.count(row.id()) > 0 &&
                    ComputeBlockKey(*plan, row, &key)) {
                  keys.push_back(key);
                }
              }
              tc.records_out = keys.size();
              return keys;
            });
    std::unordered_set<BlockKey> dirty_keys;
    for (const auto& keys : per_part_keys) {
      dirty_keys.insert(keys.begin(), keys.end());
    }
    auto keyed = scoped.MapPartitions<std::pair<BlockKey, Row>>(
        [&plan = *plan, &dirty_keys](const std::vector<Row>& part) {
          std::vector<std::pair<BlockKey, Row>> out;
          BlockKey key = 0;
          for (const Row& row : part) {
            if (ComputeBlockKey(plan, row, &key) &&
                dirty_keys.count(key) > 0) {
              out.emplace_back(key, row);
            }
          }
          return out;
        }, "block:dirty");
    RunBlocked(ctx_, *plan, GroupByKey(keyed), violations, &result);
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
  // so grouping is local to each partition — no shuffle.
  Dataset<Row> data(ctx_, replica->partitions);
  ctx_->metrics().AddRecordsRead(data.Count());
  auto scoped = ApplyScope(data, plan->scope_columns);
  auto blocks = scoped.MapPartitions<std::pair<BlockKey, std::vector<Row>>>(
      [&plan = *plan](const std::vector<Row>& part) {
        std::unordered_map<BlockKey, std::vector<Row>> groups;
        BlockKey key = 0;
        for (const Row& row : part) {
          if (ComputeBlockKey(plan, row, &key)) groups[key].push_back(row);
        }
        std::vector<std::pair<BlockKey, std::vector<Row>>> out;
        out.reserve(groups.size());
        for (auto& g : groups) out.emplace_back(g.first, std::move(g.second));
        return out;
      }, "block:local");
  RunBlocked(ctx_, *plan, blocks, &out->violations, &result);
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
      std::vector<std::pair<BlockKey, Row>> out;
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
