#include "core/columnar_detect.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/hash.h"
#include "common/trace.h"
#include "core/detect_output.h"
#include "dataflow/stage_executor.h"
#include "rules/detect_kernel.h"

namespace bigdansing {
namespace columnar {

/// The candidate decision and the compiled GenFix of one rule, bound to
/// its columns encoded over one view, with the code pointers both read.
struct BoundKernel {
  std::unique_ptr<DetectKernel> kernel;
  std::unique_ptr<ViolationWriter> writer;
  /// Per-partition arrays of per-slot code pointers, the gather structure
  /// every kernel evaluation reads through.
  std::vector<std::vector<const uint32_t*>> slot_ptrs;
  /// Each slot's encoded column.
  std::vector<const EncodedColumn*> slot_cols;
  /// The blocking columns' pools and codes, in blocking order.
  struct KeyCol {
    const ValuePool* pool;
    const EncodedColumn* col;
  };
  std::vector<KeyCol> key_cols;
  /// Partition p's first table position.
  std::vector<uint32_t> part_begin;

  /// Row i of partition p as the compiled GenFix writes it.
  ViolationWriter::Unit UnitAt(const PartitionView<Row>& base, size_t p,
                               size_t i) const {
    return {&base.partitions()[p][i],
            part_begin[p] + static_cast<uint32_t>(i)};
  }
};

namespace {

using detect::BlockScratch;
using detect::IterateBlock;
using detect::KernelUnit;
using detect::MergeOutputs;
using detect::MergeTaskPieces;
using detect::Probe;
using detect::ProbeSingle;
using detect::TaskOutput;

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
      for (size_t c : g) set.columns.emplace(c, fresh.columns.at(c));
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
    bound.slot_cols.push_back(enc.at(to_base(c)));
    pools.push_back(bound.slot_cols.back()->pool.get());
  }
  bound.kernel = tmpl.Bind(pools);
  for (size_t c : plan.blocking_columns) {
    const EncodedColumn* col = enc.at(to_base(c));
    bound.key_cols.push_back({col->pool.get(), col});
  }
  const auto& parts = base.partitions();
  bound.slot_ptrs.resize(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    bound.slot_ptrs[p].reserve(bound.slot_cols.size());
    for (const EncodedColumn* col : bound.slot_cols) {
      bound.slot_ptrs[p].push_back(col->codes[p].data());
    }
  }
  // Matched candidates are written by the rule's compiled GenFix, which
  // reads the base rows through the plan's scope; a cell's value stays at
  // its row's table position.
  bound.writer = tmpl.BindWriter(plan.rule->name(), plan.scope_columns);
  bound.part_begin.assign(parts.size() + 1, 0);
  for (size_t p = 0; p < parts.size(); ++p) {
    bound.part_begin[p + 1] =
        bound.part_begin[p] + static_cast<uint32_t>(parts[p].size());
  }
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
          const uint32_t* const* cols = k->slot_ptrs[p].data();
          for (size_t i = begin; i < end; ++i) {
            ++out.detect_calls;
            if (k->kernel->MatchesSingle(CodeTuple{cols, i})) {
              k->writer->WriteSingle(k->UnitAt(base, p, i), &out.violations);
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

/// The block-key hash fold over `row`'s values in `columns`, each read at
/// base column `to_base(c)`; false when one of them is null (the row joins
/// no block).
template <typename ToBaseFn>
bool FoldKey(const Row& row, const std::vector<size_t>& columns,
             const ToBaseFn& to_base, uint64_t* key) {
  uint64_t h = 0x42D;
  for (size_t c : columns) {
    const Value& v = row.value(to_base(c));
    if (v.is_null()) return false;
    h = StableHashUint64(h ^ v.Hash());
  }
  *key = h;
  return true;
}

using KeyedRows = Dataset<std::pair<uint64_t, RowRef>>;

/// Every row of `view` that `key_of(p, i, &projected, &key)` keys, as a
/// (key, RowRef) record in view order: one morsel stage named `stage`.
template <typename KeyOf>
KeyedRows KeyRows(const PartitionView<Row>& view, const std::string& stage,
                  const KeyOf& key_of) {
  const auto& parts = view.partitions();
  using KeyedPiece = std::vector<std::pair<uint64_t, RowRef>>;
  std::vector<KeyedPiece> keyed_parts = view.RunStageMorsels<KeyedPiece>(
      stage, [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        KeyedPiece out;
        out.reserve(end - begin);
        Row projected;
        uint64_t key = 0;
        for (size_t i = begin; i < end; ++i) {
          if (key_of(p, i, &projected, &key)) {
            out.emplace_back(key, RowRef{static_cast<uint32_t>(p),
                                         static_cast<uint32_t>(i)});
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
/// block-key stage keying every row that joins a block as a RowRef, then
/// GroupByKey. With a kernel the keys hash the blocking columns' per-code
/// hashes in one tight loop; without one ComputeBlockKey hashes each row's
/// Values. The keys are equal either way, so kernel and interpreted rules
/// share blocks.
const Blocks& BlockRows(const PhysicalRulePlan& plan,
                        const PartitionView<Row>& base, const BoundKernel* k,
                        ColumnarCaches* caches) {
  std::string sig;
  if (plan.block_key_fn) {
    // The UDF key reads the scoped row.
    sig = "udf:" + plan.rule->name() + "|";
    for (size_t c : plan.scope_columns) sig += std::to_string(c) + ",";
  } else {
    for (size_t c : plan.blocking_columns) {
      sig += std::to_string(ToBase(plan, c)) + ",";
    }
  }
  auto cached = caches->blocks.find(sig);
  if (cached != caches->blocks.end()) return cached->second;

  KeyedRows keyed;
  if (k != nullptr) {
    keyed = KeyRows(base, "kernel:block",
                    [&](size_t p, size_t i, Row*, uint64_t* key) {
                      uint64_t h = 0x42D;
                      for (const BoundKernel::KeyCol& kc : k->key_cols) {
                        const uint32_t code = kc.col->codes[p][i];
                        // A null key component: the row joins no block.
                        if (code == ValuePool::kNullCode) return false;
                        h = StableHashUint64(h ^ kc.pool->hash(code));
                      }
                      *key = h;
                      return true;
                    });
  } else {
    const auto& parts = base.partitions();
    keyed = KeyRows(base, "block",
                    [&](size_t p, size_t i, Row* projected, uint64_t* key) {
                      return ComputeBlockKey(plan, parts[p][i], projected, key);
                    });
  }
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
      [&](size_t p, size_t i, Row* projected, uint64_t* key) {
        return ComputeBlockKey(plan, parts[p][i], projected, key) &&
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
/// task. A kernel reads flat contiguous code arrays (partition codes
/// concatenated in table order); without one each task builds its two
/// chunks' detect-schema rows once.
void IterateUnblocked(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                      const PartitionView<Row>& base, const BoundKernel* k,
                      ViolationBuffer* violations, DetectionResult* result) {
  std::vector<const Row*> base_rows;
  base_rows.reserve(base.Count());
  for (const auto& part : base.partitions()) {
    for (const Row& row : part) base_rows.push_back(&row);
  }
  std::vector<std::vector<uint32_t>> flat;
  std::vector<const uint32_t*> flat_ptrs;
  if (k != nullptr) {
    flat.resize(k->slot_cols.size());
    for (size_t s = 0; s < flat.size(); ++s) {
      flat[s].reserve(base_rows.size());
      for (const auto& part : k->slot_cols[s]->codes) {
        flat[s].insert(flat[s].end(), part.begin(), part.end());
      }
      flat_ptrs.push_back(flat[s].data());
    }
  }

  const bool both = ProbesBothOrders(plan);
  size_t num_chunks = std::max<size_t>(1, ctx->num_workers() * 2);
  if (num_chunks > base_rows.size()) {
    num_chunks = std::max<size_t>(1, base_rows.size());
  }
  const size_t chunk = (base_rows.size() + num_chunks - 1) / num_chunks;
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
        const size_t iend = std::min(base_rows.size(), ibegin + chunk);
        const size_t jbegin = cj * chunk;
        const size_t jend = std::min(base_rows.size(), jbegin + chunk);
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
          const uint32_t* const* cols = flat_ptrs.data();
          each_pair([&](size_t i, size_t j) {
            ++out.detect_calls;
            if (k->kernel->Matches(CodeTuple{cols, i}, CodeTuple{cols, j})) {
              k->writer->WritePair({base_rows[i], static_cast<uint32_t>(i)},
                                   {base_rows[j], static_cast<uint32_t>(j)},
                                   &out.violations);
            }
          });
        } else {
          // The task's chunks' detect-schema rows, chunk i's first.
          const size_t ilen = iend - ibegin;
          const size_t jlen = ci == cj ? 0 : jend - jbegin;
          std::vector<Row> projected(ilen + jlen);
          std::vector<const Row*> rows(ilen + jlen);
          for (size_t x = 0; x < rows.size(); ++x) {
            const size_t pos = x < ilen ? ibegin + x : jbegin + (x - ilen);
            rows[x] =
                &DetectRow(*base_rows[pos], plan.scope_columns, &projected[x]);
          }
          auto row = [&](size_t pos) -> const Row& {
            return *rows[pos < iend ? pos - ibegin : ilen + (pos - jbegin)];
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
/// changed rows is probed by its lower position's changed row only. Each
/// row's detect-schema row is resolved once, up front.
void PairChangedRows(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                     const PartitionView<Row>& base,
                     const std::unordered_set<RowId>& changed,
                     ViolationBuffer* violations, DetectionResult* result) {
  const size_t n = base.Count();
  std::vector<Row> projected(plan.scope_columns.empty() ? 0 : n);
  std::vector<const Row*> rows;
  rows.reserve(n);
  std::vector<char> is_changed(n, 0);
  std::vector<size_t> changed_pos;
  for (const auto& part : base.partitions()) {
    for (const Row& row : part) {
      const size_t pos = rows.size();
      if (changed.count(row.id()) > 0) {
        is_changed[pos] = 1;
        changed_pos.push_back(pos);
      }
      rows.push_back(projected.empty()
                         ? &row
                         : &DetectRow(row, plan.scope_columns, &projected[pos]));
    }
  }

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
              Probe(*plan.rule, *rows[c], *rows[r], &out);
              Probe(*plan.rule, *rows[r], *rows[c], &out);
            } else {
              Probe(*plan.rule, *rows[std::min(c, r)], *rows[std::max(c, r)],
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
  std::vector<const Row*> rows;
  rows.reserve(base.Count());
  for (const auto& part : base.partitions()) {
    for (const Row& row : part) rows.push_back(&row);
  }
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
            const Row& a = *rows[pr.left];
            const Row& b = *rows[pr.right];
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
                  DetectRow(*rows[pr.left], plan.scope_columns, &left),
                  DetectRow(*rows[pr.right], plan.scope_columns, &right),
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

  std::optional<BoundKernel> bound;
  if (tmpl != nullptr) {
    result->plan_description += " [kernel]";
    bound = BindKernel(plan, *tmpl, base, caches);
  }
  const BoundKernel* k = bound ? &*bound : nullptr;
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
    IterateBlocks(ctx, plan, base,
                  changed != nullptr ? DirtyBlocks(plan, base, *changed)
                                     : BlockRows(plan, base, k, caches),
                  violations, result, k);
  } else {
    if (traced) op_span.emplace(prefix + "iterate|detect|genfix", "operator");
    if (changed != nullptr) {
      PairChangedRows(ctx, plan, base, *changed, violations, result);
    } else {
      IterateUnblocked(ctx, plan, base, k, violations, result);
    }
  }
}

void IterateBlocks(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                   const PartitionView<Row>& base, const Blocks& blocks,
                   ViolationBuffer* violations, DetectionResult* result,
                   const BoundKernel* kernel) {
  // Morsel units are whole blocks: a skewed partition (one giant dedup
  // block plus many tiny ones) no longer pins a single worker — idle
  // workers steal its block ranges. The quadratic interior of one block is
  // the floor of splittability here; OCJoin handles that case upstream by
  // never building giant blocks.
  const auto& bparts = base.partitions();
  const auto& gparts = blocks.partitions();
  std::vector<TaskOutput> tasks = blocks.RunStageMorsels<TaskOutput>(
      kernel != nullptr ? "kernel:iterate|detect|genfix"
                        : "iterate|detect|genfix",
      [&](size_t p) { return gparts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        BlockScratch scratch;
        for (size_t b = begin; b < end; ++b) {
          const std::vector<RowRef>& block = gparts[p][b].second;
          IterateBlock(
              plan, block.size(),
              [&](size_t i, Row* storage) -> const Row& {
                const RowRef& r = block[i];
                return DetectRow(bparts[r.part][r.idx], plan.scope_columns,
                                 storage);
              },
              &scratch, &out, kernel ? kernel->kernel.get() : nullptr,
              kernel ? kernel->writer.get() : nullptr, [&](size_t i) {
                const RowRef& r = block[i];
                return KernelUnit{
                    CodeTuple{kernel->slot_ptrs[r.part].data(), r.idx},
                    kernel->UnitAt(base, r.part, r.idx)};
              });
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
      const auto& parts = view.partitions();
      return KeyRows(view, "block", [&](size_t p, size_t i, Row*,
                                        uint64_t* key) {
        return FoldKey(parts[p][i], cols, [](size_t c) { return c; }, key);
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
            for (const RowRef& a : lbag) {
              for (const RowRef& b : rbag) {
                Probe(rule, lparts[a.part][a.idx], rparts[b.part][b.idx],
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
  }
  MergeOutputs(&tasks, violations, result);
}

}  // namespace columnar
}  // namespace bigdansing
