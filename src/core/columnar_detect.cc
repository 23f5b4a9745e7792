#include "core/columnar_detect.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/hash.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "dataflow/stage_executor.h"
#include "obs/profiler.h"
#include "rules/detect_kernel.h"

namespace bigdansing {
namespace columnar {

namespace {

/// Per-task accumulation of detection output. `detect_calls` counts
/// candidate-pair (or unit) evaluations — with a kernel that is kernel
/// evaluations, so the counter stays identical to the Rule::Detect call
/// count without one.
struct TaskOutput {
  ViolationBuffer violations;
  uint64_t detect_calls = 0;
};

/// Runs Detect (and GenFix) on the ordered pair (a, b), appending the
/// objects to `out`: the decision and the write of a rule without a kernel.
void Probe(const Rule& rule, const Row& a, const Row& b, TaskOutput* out) {
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
void ProbeSingle(const Rule& rule, const Row& row, TaskOutput* out) {
  ++out->detect_calls;
  std::vector<Violation> found;
  rule.DetectSingle(row, &found);
  for (auto& v : found) {
    std::vector<Fix> fixes;
    rule.GenFix(v, &fixes);
    out->violations.Append(std::move(v), std::move(fixes));
  }
}

/// Reused per-task buffers of IterateBlock.
struct BlockScratch {
  std::vector<CodeTuple> tuples;
  std::vector<ViolationWriter::Unit> units;
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  std::vector<const Row*> rows;
  std::vector<Row> projected;
};

/// The Iterate -> Detect -> GenFix pass over one block, the table
/// positions `members` of `rows`, so pair order and detect_calls counting
/// live here only, with a kernel or without.
///
///  - UCrossProduct: pairs i < j in i-outer j-inner order; symmetric rules
///    probe (i, j), asymmetric ones (i, j) then (j, i).
///  - CrossProduct, and the within-block fallback of blocked OCJoin plans
///    (blocks are small, so the quadratic pass stays local): every ordered
///    pair i != j, row-major.
///
/// With a `bound` kernel, the kernel decides each pair in the same order
/// (a symmetric block in one batched MatchUpper call); only matches reach
/// the compiled GenFix, so the violations are byte-equal to
/// Rule::Detect/GenFix's and detect_calls counts every evaluated pair
/// either way. Without one, each member's detect-schema row is resolved
/// once and Probe runs on every pair.
void IterateBlock(const PhysicalRulePlan& plan,
                  const std::vector<uint32_t>& members, const RowsAt& rows,
                  const BoundKernel& bound, BlockScratch* scratch,
                  TaskOutput* out) {
  const Rule& rule = *plan.rule;
  const size_t n = members.size();
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
  if (bound.kernel == nullptr) {
    auto& detect_rows = scratch->rows;
    if (scratch->projected.size() < n) scratch->projected.resize(n);
    detect_rows.clear();
    for (size_t i = 0; i < n; ++i) {
      detect_rows.push_back(&DetectRow(rows[members[i]], plan.scope_columns,
                                       &scratch->projected[i]));
    }
    each_pair([&](size_t i, size_t j) {
      Probe(rule, *detect_rows[i], *detect_rows[j], out);
    });
    return;
  }

  auto& tuples = scratch->tuples;
  auto& units = scratch->units;
  tuples.clear();
  units.clear();
  for (uint32_t pos : members) {
    tuples.push_back({bound.slot_ptrs.data(), pos});
    units.push_back({&rows[pos], pos});
  }
  auto materialize = [&](size_t i, size_t j) {
    bound.writer->WritePair(units[i], units[j], &out->violations);
  };
  if (unordered && symmetric) {
    // The hot shape (FDs, symmetric DCs): one branch-light batched call
    // over contiguous codes, reporting matches in (i, j) loop order.
    scratch->matches.clear();
    out->detect_calls += n * (n - 1) / 2;
    bound.kernel->MatchUpper(tuples.data(), n, &scratch->matches);
    for (const auto& [i, j] : scratch->matches) materialize(i, j);
    return;
  }
  each_pair([&](size_t i, size_t j) {
    ++out->detect_calls;
    if (bound.kernel->Matches(tuples[i], tuples[j])) materialize(i, j);
  });
}

/// Appends every task's violations to `out` in task order, reserving once.
void AppendViolations(std::vector<TaskOutput>* tasks, ViolationBuffer* out) {
  std::vector<ViolationBuffer*> parts;
  parts.reserve(tasks->size());
  for (TaskOutput& t : *tasks) parts.push_back(&t.violations);
  out->AppendAll(parts);
}

/// Folds one partition's morsel partials into its TaskOutput, in morsel
/// (unit-range) order — violation order stays identical to one sequential
/// pass over the partition's units.
TaskOutput MergeTaskPieces(std::vector<TaskOutput>&& pieces) {
  TaskOutput merged;
  for (const auto& piece : pieces) merged.detect_calls += piece.detect_calls;
  AppendViolations(&pieces, &merged.violations);
  return merged;
}

/// Appends per-task outputs to `violations` and counts their Detect calls
/// into `result`. Driver-side (one call per detection stage), so the
/// registry bookkeeping here is off the worker-timed hot path.
void MergeOutputs(std::vector<TaskOutput>* tasks, ViolationBuffer* violations,
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

/// Column `c` of the detect schema as a base column.
size_t ToBase(const PhysicalRulePlan& plan, size_t c) {
  return plan.scope_columns.empty() ? c : plan.scope_columns[c];
}

/// A column set's cache key, independent of the columns' order.
std::string ColumnSig(std::vector<size_t> columns) {
  std::sort(columns.begin(), columns.end());
  std::string sig;
  for (size_t c : columns) sig += std::to_string(c) + ",";
  return sig;
}

/// Encodes the kernel's slots and the plan's blocking columns over `base`
/// (no scope stage: codes come straight from base rows, honouring the
/// scope's column mapping) and binds `tmpl` to them.
BoundKernel BindKernel(const PhysicalRulePlan& plan,
                       const KernelTemplate& tmpl,
                       const PartitionView<Row>& base,
                       ColumnarCaches* caches) {
  auto to_base = [&](size_t c) { return ToBase(plan, c); };

  // Columns to dictionary-encode, in base-column space: the kernel's slots
  // plus the blocking key. Columns whose codes are compared across columns
  // share one pool (one group); the rest are singleton groups.
  std::vector<std::vector<size_t>> groups;
  std::unordered_set<size_t> covered;
  for (const auto& g : tmpl.shared_groups()) {
    std::vector<size_t> mapped;
    for (size_t c : g) {
      if (covered.insert(to_base(c)).second) mapped.push_back(to_base(c));
    }
    if (!mapped.empty()) groups.push_back(std::move(mapped));
  }
  for (size_t c : tmpl.columns()) {
    if (covered.insert(to_base(c)).second) groups.push_back({to_base(c)});
  }
  for (size_t c : plan.blocking_columns) {
    if (covered.insert(to_base(c)).second) groups.push_back({to_base(c)});
  }

  // Encode with per-group caching (keyed by the group's sorted base
  // columns), so e.g. two FDs sharing a key column encode it once even when
  // their scopes differ.
  std::vector<std::vector<size_t>> missing;
  std::vector<std::string> group_sigs;
  group_sigs.reserve(groups.size());
  for (const auto& g : groups) {
    group_sigs.push_back(ColumnSig(g));
    if (caches->encoded.find(group_sigs.back()) == caches->encoded.end()) {
      missing.push_back(g);
    }
  }
  if (!missing.empty()) {
    std::optional<ScopedSpan> encode_span;
    if (TraceRecorder::Instance().enabled()) {
      encode_span.emplace("kernel:encode", "operator");
    }
    EncodedColumnSet fresh = EncodeColumns(base, missing);
    for (const auto& g : missing) {
      EncodedColumnSet set;
      set.rows = fresh.rows;
      for (size_t c : g) {
        set.columns.emplace(c, std::move(fresh.columns.at(c)));
      }
      caches->encoded.emplace(ColumnSig(g), std::move(set));
    }
  }
  // Gather this rule's columns from the per-group cache entries.
  std::unordered_map<size_t, const EncodedColumn*> enc;
  for (size_t g = 0; g < groups.size(); ++g) {
    const EncodedColumnSet& set = caches->encoded.at(group_sigs[g]);
    for (size_t c : groups[g]) enc.emplace(c, &set.columns.at(c));
  }

  BoundKernel bound;
  std::vector<const ValuePool*> pools;
  pools.reserve(tmpl.columns().size());
  for (size_t c : tmpl.columns()) {
    const EncodedColumn* col = enc.at(to_base(c));
    bound.slot_ptrs.push_back(col->codes.data());
    pools.push_back(col->pool.get());
  }
  bound.kernel = tmpl.Bind(pools);
  for (size_t c : plan.blocking_columns) {
    const EncodedColumn* col = enc.at(to_base(c));
    bound.key_cols.push_back({col->pool.get(), &col->codes});
  }
  // Matched candidates are written by the rule's compiled GenFix, which
  // reads the base rows through the plan's scope; a cell's value stays at
  // its row's table position.
  bound.writer = tmpl.BindWriter(plan.rule->name(), plan.scope_columns);
  return bound;
}

/// Arity-1 rules: every unit (every changed unit, with a `changed` set) is
/// decided on its own.
void DetectSingle(const PhysicalRulePlan& plan, const PartitionView<Row>& base,
                  const std::unordered_set<RowId>* changed,
                  const BoundKernel* k, ViolationBuffer* violations,
                  DetectionResult* result) {
  const auto& parts = base.partitions();
  std::vector<TaskOutput> tasks = base.RunStageMorsels<TaskOutput>(
      k != nullptr ? "kernel:detect:single|genfix" : "detect:single|genfix",
      [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        if (k != nullptr) {
          const uint32_t* const* cols = k->slot_ptrs.data();
          const size_t first = base.Begin(p);
          for (size_t i = begin; i < end; ++i) {
            const auto pos = static_cast<uint32_t>(first + i);
            ++out.detect_calls;
            if (k->kernel->MatchesSingle(CodeTuple{cols, pos})) {
              k->writer->WriteSingle({&parts[p][i], pos}, &out.violations);
            }
          }
        } else {
          Row projected;
          for (size_t i = begin; i < end; ++i) {
            const Row& row = parts[p][i];
            if (changed != nullptr && changed->count(row.id()) == 0) continue;
            ProbeSingle(*plan.rule,
                        DetectRow(row, plan.scope_columns, &projected), &out);
          }
        }
        tc.records_in = end - begin;
        tc.records_out = out.violations.size();
        return out;
      },
      [](size_t, std::vector<TaskOutput>&& pieces) {
        return MergeTaskPieces(std::move(pieces));
      });
  MergeOutputs(&tasks, violations, result);
}

/// The seed every block key folds its components' value hashes into.
constexpr uint64_t kKeySeed = 0x42D;

/// The block-key hash fold over `row`'s values in `columns`, each read at
/// base column `to_base(c)`; false when one of them is null (the row joins
/// no block).
template <typename ToBaseFn>
bool FoldKey(const Row& row, const std::vector<size_t>& columns,
             const ToBaseFn& to_base, uint64_t* key) {
  uint64_t h = kKeySeed;
  for (size_t c : columns) {
    const Value& v = row.value(to_base(c));
    if (v.is_null()) return false;
    h = StableHashUint64(h ^ v.Hash());
  }
  *key = h;
  return true;
}

using KeyedRows = Dataset<std::pair<uint64_t, uint32_t>>;

/// Every row of `view` that `key_of(row, pos, &projected, &key)` keys, as a
/// (key, position) record in view order: one morsel stage named `stage`.
template <typename KeyOf>
KeyedRows KeyRows(const PartitionView<Row>& view, const std::string& stage,
                  const KeyOf& key_of) {
  const auto& parts = view.partitions();
  using KeyedPiece = std::vector<std::pair<uint64_t, uint32_t>>;
  std::vector<KeyedPiece> keyed_parts = view.RunStageMorsels<KeyedPiece>(
      stage, [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        KeyedPiece out;
        out.reserve(end - begin);
        Row projected;
        uint64_t key = 0;
        const size_t first = view.Begin(p);
        for (size_t i = begin; i < end; ++i) {
          const auto pos = static_cast<uint32_t>(first + i);
          if (key_of(parts[p][i], pos, &projected, &key)) {
            out.emplace_back(key, pos);
          }
        }
        tc.records_in = end - begin;
        tc.records_out = out.size();
        return out;
      },
      [](size_t, std::vector<KeyedPiece>&& pieces) {
        KeyedPiece merged;
        size_t total = 0;
        for (const auto& piece : pieces) total += piece.size();
        merged.reserve(total);
        for (auto& piece : pieces) {
          merged.insert(merged.end(), piece.begin(), piece.end());
        }
        return merged;
      });
  return KeyedRows(view.context(), std::move(keyed_parts));
}

/// The plan's blocks over `base`, built once per blocking signature: one
/// block-key stage keying every row that joins a block by its position,
/// then GroupByKey. With a kernel the keys fold the blocking columns'
/// per-code hashes (CodeBlockKey); without one ComputeBlockKey hashes each
/// row's Values. The keys are equal either way, so kernel and interpreted
/// rules share blocks.
const Blocks& BlockRows(const PhysicalRulePlan& plan,
                        const PartitionView<Row>& base, const BoundKernel* k,
                        ColumnarCaches* caches) {
  std::string sig;
  if (plan.block_key_fn) {
    // A UDF key is its rule's own function: only that rule object shares
    // its blocks, whatever its name.
    sig = "udf:" +
          std::to_string(reinterpret_cast<uintptr_t>(plan.rule.get()));
  } else {
    for (size_t c : plan.blocking_columns) {
      sig += std::to_string(ToBase(plan, c)) + ",";
    }
  }
  auto cached = caches->blocks.find(sig);
  if (cached != caches->blocks.end()) return cached->second;

  KeyedRows keyed =
      k != nullptr
          ? KeyRows(base, "kernel:block",
                    [&](const Row&, uint32_t pos, Row*, uint64_t* key) {
                      return CodeBlockKey(k->key_cols, pos, key);
                    })
          : KeyRows(base, "block",
                    [&](const Row& row, uint32_t, Row* projected,
                        uint64_t* key) {
                      return ComputeBlockKey(plan, row, projected, key);
                    });
  return caches->blocks.emplace(sig, GroupByKey(keyed)).first->second;
}

/// The changed-rows request's blocks: only a block holding a changed row
/// can gain or lose a violation. `block:dirty-keys` collects the changed
/// rows' block keys (a small driver-side set), then `block:dirty` keys only
/// the rows landing in those blocks, so the shuffle moves a fraction of the
/// table.
Blocks DirtyBlocks(const PhysicalRulePlan& plan,
                   const PartitionView<Row>& base,
                   const std::unordered_set<RowId>& changed) {
  const auto& parts = base.partitions();
  std::vector<std::vector<uint64_t>> per_part_keys =
      base.RunStageProducing<std::vector<uint64_t>>(
          "block:dirty-keys", [&](size_t p, TaskContext& tc) {
            std::vector<uint64_t> keys;
            Row projected;
            uint64_t key = 0;
            for (const Row& row : parts[p]) {
              if (changed.count(row.id()) > 0 &&
                  ComputeBlockKey(plan, row, &projected, &key)) {
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
  return GroupByKey(KeyRows(
      base, "block:dirty",
      [&](const Row& row, uint32_t, Row* projected, uint64_t* key) {
        return ComputeBlockKey(plan, row, projected, key) &&
               dirty_keys.count(*key) > 0;
      }));
}

/// The unblocked orientation rule: a symmetric rule under UCrossProduct
/// probes each unordered pair once, lower table position first; every
/// other plan probes both orders, (i, j) then (j, i).
bool ProbesBothOrders(const PhysicalRulePlan& plan) {
  return !(plan.strategy == IterateStrategy::kUCrossProduct &&
           plan.rule->IsSymmetric());
}

/// No blocking key: whole-table chunk-pair enumeration. Rows are cut into
/// 2 * workers chunks in table order, and each chunk pair (i <= j) is one
/// task. A kernel reads the encoded columns by table position; without one
/// each task reads the rows in place, or under a scope builds its two
/// chunks' detect-schema rows once.
void IterateUnblocked(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                      const PartitionView<Row>& base, const BoundKernel* k,
                      ViolationBuffer* violations, DetectionResult* result) {
  const size_t n = base.Count();
  const bool both = ProbesBothOrders(plan);
  size_t num_chunks = std::max<size_t>(1, ctx->num_workers() * 2);
  if (num_chunks > n) num_chunks = std::max<size_t>(1, n);
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  struct ChunkPair {
    size_t i;
    size_t j;
  };
  std::vector<ChunkPair> chunk_pairs;
  for (size_t i = 0; i < num_chunks; ++i) {
    for (size_t j = i; j < num_chunks; ++j) chunk_pairs.push_back({i, j});
  }
  auto tasks = StageExecutor(ctx).RunProducing<TaskOutput>(
      k != nullptr ? "kernel:iterate|detect|genfix:unblocked"
                   : "iterate|detect|genfix:unblocked",
      chunk_pairs.size(), [&](size_t t, TaskContext& tc) {
        auto [ci, cj] = chunk_pairs[t];
        const size_t ibegin = ci * chunk;
        const size_t iend = std::min(n, ibegin + chunk);
        const size_t jbegin = cj * chunk;
        const size_t jend = std::min(n, jbegin + chunk);
        TaskOutput out;
        auto each_pair = [&](auto&& eval) {
          for (size_t i = ibegin; i < iend; ++i) {
            const size_t jstart = (ci == cj) ? i + 1 : jbegin;
            for (size_t j = jstart; j < jend; ++j) {
              eval(i, j);
              if (both) eval(j, i);
            }
          }
        };
        if (k != nullptr) {
          const uint32_t* const* cols = k->slot_ptrs.data();
          each_pair([&](size_t i, size_t j) {
            ++out.detect_calls;
            if (k->kernel->Matches(CodeTuple{cols, i}, CodeTuple{cols, j})) {
              k->writer->WritePair({&base.at(i), static_cast<uint32_t>(i)},
                                   {&base.at(j), static_cast<uint32_t>(j)},
                                   &out.violations);
            }
          });
        } else {
          // Under a scope, the task's chunks' detect-schema rows, chunk
          // i's first; else the base rows in place.
          const size_t ilen = iend - ibegin;
          const size_t jlen = ci == cj ? 0 : jend - jbegin;
          std::vector<Row> projected;
          if (!plan.scope_columns.empty()) projected.resize(ilen + jlen);
          for (size_t x = 0; x < projected.size(); ++x) {
            const size_t pos = x < ilen ? ibegin + x : jbegin + (x - ilen);
            DetectRow(base.at(pos), plan.scope_columns, &projected[x]);
          }
          auto row = [&](size_t pos) -> const Row& {
            if (projected.empty()) return base.at(pos);
            return projected[pos < iend ? pos - ibegin
                                        : ilen + (pos - jbegin)];
          };
          each_pair([&](size_t i, size_t j) {
            Probe(*plan.rule, row(i), row(j), &out);
          });
        }
        ctx->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = iend - ibegin;
        tc.records_out = out.violations.size();
        return out;
      });
  if (!tasks.ok()) throw StageError(tasks.status());
  MergeOutputs(&*tasks, violations, result);
}

/// The changed-rows request's unblocked pass, the global join's included:
/// morsels of the changed rows, in table order, each probing every other
/// row in table order under IterateUnblocked's orientation rule
/// (ProbesBothOrders), both orders as (c, r) then (r, c). A pair of two
/// changed rows is probed by its lower position's changed row only. Under
/// a scope, each row's detect-schema row is resolved once, up front.
void PairChangedRows(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                     const PartitionView<Row>& base,
                     const std::unordered_set<RowId>& changed,
                     ViolationBuffer* violations, DetectionResult* result) {
  const size_t n = base.Count();
  std::vector<Row> projected(plan.scope_columns.empty() ? 0 : n);
  std::vector<char> is_changed(n, 0);
  std::vector<size_t> changed_pos;
  for (size_t pos = 0; pos < n; ++pos) {
    const Row& row = base.at(pos);
    if (changed.count(row.id()) > 0) {
      is_changed[pos] = 1;
      changed_pos.push_back(pos);
    }
    if (!projected.empty()) {
      DetectRow(row, plan.scope_columns, &projected[pos]);
    }
  }
  auto row = [&](size_t pos) -> const Row& {
    return projected.empty() ? base.at(pos) : projected[pos];
  };

  const bool both = ProbesBothOrders(plan);
  const size_t num_tasks = std::max<size_t>(1, ctx->default_partitions());
  const size_t per =
      Dataset<size_t>::PartitionSize(changed_pos.size(), num_tasks);
  auto first = [&](size_t t) { return std::min(changed_pos.size(), t * per); };
  auto tasks = StageExecutor(ctx).RunMorsels<TaskOutput>(
      "iterate|detect:incremental", num_tasks,
      [&](size_t t) { return first(t + 1) - first(t); },
      [&](size_t t, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        for (size_t x = first(t) + begin; x < first(t) + end; ++x) {
          const size_t c = changed_pos[x];
          for (size_t r = 0; r < n; ++r) {
            if (r == c || (r < c && is_changed[r])) continue;
            if (both) {
              Probe(*plan.rule, row(c), row(r), &out);
              Probe(*plan.rule, row(r), row(c), &out);
            } else {
              Probe(*plan.rule, row(std::min(c, r)), row(std::max(c, r)),
                    &out);
            }
          }
        }
        ctx->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = end - begin;
        tc.records_out = out.violations.size();
        return out;
      },
      [](size_t, std::vector<TaskOutput>&& pieces) {
        return MergeTaskPieces(std::move(pieces));
      });
  if (!tasks.ok()) throw StageError(tasks.status());
  MergeOutputs(&*tasks, violations, result);
}

/// Global inequality self-join (no blocking key): OCJoin or IEJoin encode
/// the condition columns straight from the table's rows and return row
/// positions. A compiled `writer` decides and writes each pair over the
/// base rows in place (position = table position); without one,
/// Rule::Detect probes the pair's detect-schema rows.
void JoinGlobal(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                bool use_iejoin, const PartitionView<Row>& base,
                const ViolationWriter* writer, ViolationBuffer* violations,
                DetectionResult* result) {
  std::vector<OrderingCondition> conditions = plan.ocjoin_conditions;
  for (auto& c : conditions) {
    c.left_column = ToBase(plan, c.left_column);
    c.right_column = ToBase(plan, c.right_column);
  }
  std::vector<RowIndexPair> pairs;
  if (use_iejoin && IEJoinApplicable(conditions)) {
    pairs = IEJoin(ctx, base, conditions, &result->iejoin_stats);
  } else {
    OCJoinOptions oc_options;
    oc_options.order_conditions_by_selectivity = true;
    pairs = OCJoin(ctx, base, conditions, oc_options, &result->ocjoin_stats);
  }
  std::optional<ScopedSpan> op_span;
  if (TraceRecorder::Instance().enabled()) {
    op_span.emplace("detect|genfix", "operator");
  }
  // Tasks probe contiguous runs of the pair list, cut like a dataset of
  // the pairs would be. The pairs are join output, not input records, so
  // they are not counted as read.
  const size_t num_tasks = std::max<size_t>(1, ctx->default_partitions());
  const size_t per =
      Dataset<RowIndexPair>::PartitionSize(pairs.size(), num_tasks);
  auto first_pair = [&](size_t t) { return std::min(pairs.size(), t * per); };
  auto tasks = StageExecutor(ctx).RunMorsels<TaskOutput>(
      "detect|genfix:ocjoin-pairs", num_tasks,
      [&](size_t t) { return first_pair(t + 1) - first_pair(t); },
      [&](size_t t, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        const size_t first = first_pair(t) + begin;
        const size_t last = first_pair(t) + end;
        if (writer != nullptr) {
          for (size_t i = first; i < last; ++i) {
            const RowIndexPair& pr = pairs[i];
            const Row& a = base.at(pr.left);
            const Row& b = base.at(pr.right);
            ++out.detect_calls;
            if (writer->MatchesPair(a, b)) {
              writer->WritePair({&a, static_cast<uint32_t>(pr.left)},
                                {&b, static_cast<uint32_t>(pr.right)},
                                &out.violations);
            }
          }
        } else {
          Row left;
          Row right;
          for (size_t i = first; i < last; ++i) {
            const RowIndexPair& pr = pairs[i];
            Probe(*plan.rule,
                  DetectRow(base.at(pr.left), plan.scope_columns, &left),
                  DetectRow(base.at(pr.right), plan.scope_columns, &right),
                  &out);
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
  MergeOutputs(&*tasks, violations, result);
}

}  // namespace

bool ComputeBlockKey(const PhysicalRulePlan& plan, const Row& row,
                     Row* projected, uint64_t* key) {
  if (plan.block_key_fn) {
    Value v = plan.block_key_fn(plan.detect_schema,
                                DetectRow(row, plan.scope_columns, projected));
    if (v.is_null()) return false;
    *key = v.Hash();
    return true;
  }
  return FoldKey(row, plan.blocking_columns,
                 [&](size_t c) { return ToBase(plan, c); }, key);
}

bool CodeBlockKey(const std::vector<KeyCodes>& columns, size_t pos,
                  uint64_t* key) {
  // ValuePool::hash is Value::Hash, so this folds FoldKey's hashes.
  uint64_t h = kKeySeed;
  for (const KeyCodes& kc : columns) {
    const uint32_t code = (*kc.codes)[pos];
    if (code == ValuePool::kNullCode) return false;
    h = StableHashUint64(h ^ kc.pool->hash(code));
  }
  *key = h;
  return true;
}

void DetectRule(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                bool use_iejoin, const PartitionView<Row>& base,
                const std::unordered_set<RowId>* changed,
                ColumnarCaches* caches, ViolationBuffer* violations,
                DetectionResult* result) {
  // A kernel needs a registered compiler and the whole table's codes;
  // procedural UDF keys are never compiled.
  std::shared_ptr<const KernelTemplate> tmpl;
  if (ctx->kernels_enabled() && !plan.block_key_fn && changed == nullptr) {
    tmpl = KernelRegistry::Instance().Compile(*plan.rule, plan.detect_schema);
  }
  const bool has_blocking =
      !plan.blocking_columns.empty() || static_cast<bool>(plan.block_key_fn);
  if (plan.strategy == IterateStrategy::kOCJoin && !has_blocking &&
      changed == nullptr) {
    const std::unique_ptr<ViolationWriter> writer =
        tmpl != nullptr
            ? tmpl->BindWriter(plan.rule->name(), plan.scope_columns)
            : nullptr;
    JoinGlobal(ctx, plan, use_iejoin, base, writer.get(), violations, result);
    return;
  }

  BoundKernel bound;
  if (tmpl != nullptr) {
    result->plan_description += " [kernel]";
    bound = BindKernel(plan, *tmpl, base, caches);
  }
  const BoundKernel* k = bound.kernel != nullptr ? &bound : nullptr;
  const std::string prefix = k != nullptr ? "kernel:" : "";
  std::optional<ScopedSpan> op_span;
  const bool traced = TraceRecorder::Instance().enabled();

  if (plan.strategy == IterateStrategy::kSingle) {
    if (traced) op_span.emplace(prefix + "detect|genfix", "operator");
    DetectSingle(plan, base, changed, k, violations, result);
  } else if (has_blocking) {
    if (traced) {
      op_span.emplace(prefix + "block|iterate|detect|genfix", "operator");
    }
    // Both arms are lvalues, so the cached blocks are read, not copied.
    std::optional<Blocks> dirty;
    if (changed != nullptr) dirty.emplace(DirtyBlocks(plan, base, *changed));
    const Blocks& blocks =
        dirty.has_value() ? *dirty : BlockRows(plan, base, k, caches);
    IterateBlocks(ctx, prefix + "iterate|detect|genfix", plan,
                  RowsAt{base.data()}, PartitionTasks(blocks),
                  bound, violations, result);
  } else {
    if (traced) op_span.emplace(prefix + "iterate|detect|genfix", "operator");
    if (changed != nullptr) {
      PairChangedRows(ctx, plan, base, *changed, violations, result);
    } else {
      IterateUnblocked(ctx, plan, base, k, violations, result);
    }
  }
}

BlockTasks PartitionTasks(const Blocks& blocks) {
  const auto& parts = blocks.partitions();
  return {parts.size(), [&parts](size_t t) { return parts[t].size(); },
          [&parts](size_t t, size_t b) -> const std::vector<uint32_t>& {
            return parts[t][b].second;
          }};
}

void IterateBlocks(ExecutionContext* ctx, const std::string& stage,
                   const PhysicalRulePlan& plan, const RowsAt& rows,
                   const BlockTasks& blocks, const BoundKernel& bound,
                   ViolationBuffer* violations, DetectionResult* result) {
  // Morsel units are whole blocks: a skewed partition (one giant dedup
  // block plus many tiny ones) no longer pins a single worker — idle
  // workers steal its block ranges. The quadratic interior of one block is
  // the floor of splittability here; OCJoin handles that case upstream by
  // never building giant blocks.
  auto tasks = StageExecutor(ctx).RunMorsels<TaskOutput>(
      stage, blocks.num_tasks, blocks.size,
      [&](size_t t, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        BlockScratch scratch;
        for (size_t b = begin; b < end; ++b) {
          IterateBlock(plan, blocks.members(t, b), rows, bound, &scratch, &out);
        }
        ctx->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = end - begin;
        tc.records_out = out.violations.size();
        return out;
      },
      [](size_t, std::vector<TaskOutput>&& pieces) {
        return MergeTaskPieces(std::move(pieces));
      });
  if (!tasks.ok()) throw StageError(tasks.status());
  MergeOutputs(&*tasks, violations, result);
}

void DetectAcross(ExecutionContext* ctx, const Rule& rule,
                  const PartitionView<Row>& left,
                  const PartitionView<Row>& right,
                  const std::vector<size_t>& left_cols,
                  const std::vector<size_t>& right_cols,
                  ViolationBuffer* violations, DetectionResult* result) {
  const bool traced = TraceRecorder::Instance().enabled();
  std::optional<ScopedSpan> op_span;
  const auto& lparts = left.partitions();
  const auto& rparts = right.partitions();
  std::vector<TaskOutput> tasks;
  if (left_cols.empty()) {
    // No equality link: every left row against the whole right table.
    if (traced) op_span.emplace("iterate|detect|genfix", "operator");
    tasks = left.RunStageMorsels<TaskOutput>(
        "iterate|detect|genfix:unblocked",
        [&](size_t p) { return lparts[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          TaskOutput out;
          for (size_t i = begin; i < end; ++i) {
            for (const auto& rpart : rparts) {
              for (const Row& b : rpart) Probe(rule, lparts[p][i], b, &out);
            }
          }
          ctx->metrics().AddPairsEnumerated(out.detect_calls);
          tc.records_in = end - begin;
          tc.records_out = out.violations.size();
          return out;
        },
        [](size_t, std::vector<TaskOutput>&& pieces) {
          return MergeTaskPieces(std::move(pieces));
        });
  } else {
    // CoBlock (Figure 6): key both sides on their half of the equality
    // predicates and co-group, so Iterate only pairs units within
    // co-blocks.
    if (traced) op_span.emplace("coblock|iterate|detect|genfix", "operator");
    auto key_rows = [](const PartitionView<Row>& view,
                       const std::vector<size_t>& cols) {
      return KeyRows(view, "block", [&](const Row& row, uint32_t, Row*,
                                        uint64_t* key) {
        return FoldKey(row, cols, [](size_t c) { return c; }, key);
      });
    };
    auto coblocks =
        CoGroup(key_rows(left, left_cols), key_rows(right, right_cols));
    const auto& parts = coblocks.partitions();
    tasks = coblocks.RunStageMorsels<TaskOutput>(
        "iterate|detect|genfix:coblock",
        [&](size_t p) { return parts[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          TaskOutput out;
          for (size_t i = begin; i < end; ++i) {
            const auto& [lbag, rbag] = parts[p][i].second;
            for (uint32_t a : lbag) {
              for (uint32_t b : rbag) {
                Probe(rule, left.at(a), right.at(b), &out);
              }
            }
          }
          ctx->metrics().AddPairsEnumerated(out.detect_calls);
          tc.records_in = end - begin;
          tc.records_out = out.violations.size();
          return out;
        },
        [](size_t, std::vector<TaskOutput>&& pieces) {
          return MergeTaskPieces(std::move(pieces));
        });
  }
  MergeOutputs(&tasks, violations, result);
}

}  // namespace columnar
}  // namespace bigdansing
