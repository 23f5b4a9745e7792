#include "core/columnar_detect.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "common/hash.h"
#include "common/trace.h"
#include "core/detect_output.h"
#include "dataflow/stage_executor.h"
#include "rules/detect_kernel.h"

namespace bigdansing {
namespace columnar {

namespace {

using detect::BlockScratch;
using detect::IterateBlock;
using detect::KernelUnit;
using detect::MergeOutputs;
using detect::MergeTaskPieces;
using detect::TaskOutput;

/// Per-partition arrays of per-slot code pointers, the gather structure
/// every kernel evaluation reads through.
using SlotPtrs = std::vector<std::vector<const uint32_t*>>;

}  // namespace

bool TryDetectColumnar(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                       const PartitionView<Row>& base, ColumnarCaches* caches,
                       ViolationBuffer* violations, DetectionResult* result) {
  // Eligibility — decided before any stage runs, so a false return leaves
  // the engine free to take the interpreted path untouched.
  if (plan.block_key_fn) return false;  // procedural UDF keys stay interpreted
  auto tmpl =
      KernelRegistry::Instance().Compile(*plan.rule, plan.detect_schema);
  if (tmpl == nullptr) return false;
  const bool single = plan.strategy == IterateStrategy::kSingle;
  const bool has_blocking = !plan.blocking_columns.empty();
  if (plan.strategy == IterateStrategy::kOCJoin && !has_blocking) {
    // Global inequality self-join: OCJoin/IEJoin own that path.
    return false;
  }

  result->plan_description += " [kernel]";
  TraceRecorder& trace = TraceRecorder::Instance();

  // The kernel path never runs the scope stage: codes are encoded straight
  // from base rows, honouring the scope's column mapping, and so is what
  // compiled GenFix writes.
  auto to_base = [&](size_t c) {
    return plan.scope_columns.empty() ? c : plan.scope_columns[c];
  };

  // Columns to dictionary-encode, in base-column space: the kernel's slots
  // plus the blocking key. Columns whose codes are compared across columns
  // share one pool (one group); the rest are singleton groups.
  std::vector<std::vector<size_t>> groups;
  std::unordered_set<size_t> covered;
  for (const auto& g : tmpl->shared_groups()) {
    std::vector<size_t> mapped;
    for (size_t c : g) {
      if (covered.insert(to_base(c)).second) mapped.push_back(to_base(c));
    }
    if (!mapped.empty()) groups.push_back(std::move(mapped));
  }
  for (size_t c : tmpl->columns()) {
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
    std::vector<size_t> sorted = g;
    std::sort(sorted.begin(), sorted.end());
    std::string sig;
    for (size_t c : sorted) sig += std::to_string(c) + ",";
    group_sigs.push_back(sig);
    if (caches->encoded.find(sig) == caches->encoded.end()) missing.push_back(g);
  }
  if (!missing.empty()) {
    std::optional<ScopedSpan> encode_span;
    if (trace.enabled()) encode_span.emplace("kernel:encode", "operator");
    EncodedColumnSet fresh = EncodeColumns(base, missing);
    for (const auto& g : missing) {
      std::vector<size_t> sorted = g;
      std::sort(sorted.begin(), sorted.end());
      std::string sig;
      for (size_t c : sorted) sig += std::to_string(c) + ",";
      EncodedColumnSet set;
      set.rows = fresh.rows;
      for (size_t c : g) set.columns.emplace(c, fresh.columns.at(c));
      caches->encoded.emplace(std::move(sig), std::move(set));
    }
  }
  // Gather this rule's columns from the per-group cache entries.
  std::unordered_map<size_t, const EncodedColumn*> enc;
  for (size_t g = 0; g < groups.size(); ++g) {
    const EncodedColumnSet& set = caches->encoded.at(group_sigs[g]);
    for (size_t c : groups[g]) enc.emplace(c, &set.columns.at(c));
  }

  std::vector<const ValuePool*> pools;
  pools.reserve(tmpl->columns().size());
  for (size_t c : tmpl->columns()) {
    pools.push_back(enc.at(to_base(c))->pool.get());
  }
  const std::unique_ptr<DetectKernel> kernel = tmpl->Bind(pools);

  const auto& bparts = base.partitions();
  SlotPtrs slot_ptrs(bparts.size());
  for (size_t p = 0; p < bparts.size(); ++p) {
    slot_ptrs[p].reserve(tmpl->columns().size());
    for (size_t c : tmpl->columns()) {
      slot_ptrs[p].push_back(enc.at(to_base(c))->codes[p].data());
    }
  }
  // Matched candidates are written by the rule's compiled GenFix, which
  // reads the base rows through the plan's scope; a cell's value stays at
  // its row's table position (partition p starts at part_begin[p]).
  const std::unique_ptr<ViolationWriter> writer =
      tmpl->BindWriter(plan.rule->name(), plan.scope_columns);
  std::vector<uint32_t> part_begin(bparts.size() + 1, 0);
  for (size_t p = 0; p < bparts.size(); ++p) {
    part_begin[p + 1] = part_begin[p] + static_cast<uint32_t>(bparts[p].size());
  }

  // --- Arity-1 rules: evaluate every unit against the code vectors.
  if (single) {
    std::optional<ScopedSpan> op_span;
    if (trace.enabled()) op_span.emplace("kernel:detect|genfix", "operator");
    std::vector<TaskOutput> tasks = base.RunStageMorsels<TaskOutput>(
        "kernel:detect:single|genfix",
        [&](size_t p) { return bparts[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          TaskOutput out;
          const uint32_t* const* cols = slot_ptrs[p].data();
          for (size_t i = begin; i < end; ++i) {
            ++out.detect_calls;
            if (kernel->MatchesSingle(CodeTuple{cols, i})) {
              writer->WriteSingle(
                  {&bparts[p][i], part_begin[p] + static_cast<uint32_t>(i)},
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
    MergeOutputs(&tasks, violations, result);
    return true;
  }

  // --- Blocked rules: block keys hashed from precomputed per-code hashes
  // in one tight loop, then 8-byte RowRefs shuffled instead of whole rows.
  if (has_blocking) {
    std::optional<ScopedSpan> op_span;
    if (trace.enabled()) {
      op_span.emplace("kernel:block|iterate|detect|genfix", "operator");
    }
    std::string block_sig;
    for (size_t c : plan.blocking_columns) {
      block_sig += std::to_string(to_base(c)) + ",";
    }
    auto block_it = caches->blocks.find(block_sig);
    if (block_it == caches->blocks.end()) {
      struct KeyCol {
        const ValuePool* pool;
        const EncodedColumn* col;
      };
      std::vector<KeyCol> key_cols;
      key_cols.reserve(plan.blocking_columns.size());
      for (size_t c : plan.blocking_columns) {
        const EncodedColumn* col = enc.at(to_base(c));
        key_cols.push_back({col->pool.get(), col});
      }
      using KeyedPiece = std::vector<std::pair<uint64_t, RowRef>>;
      std::vector<KeyedPiece> keyed_parts = base.RunStageMorsels<KeyedPiece>(
          "kernel:block",
          [&](size_t p) { return bparts[p].size(); },
          [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
            KeyedPiece out;
            out.reserve(end - begin);
            for (size_t i = begin; i < end; ++i) {
              uint64_t h = 0x42D;
              bool keyed = true;
              for (const KeyCol& kc : key_cols) {
                const uint32_t code = kc.col->codes[p][i];
                if (code == ValuePool::kNullCode) {
                  keyed = false;  // null key component: row joins no block
                  break;
                }
                h = StableHashUint64(h ^ kc.pool->hash(code));
              }
              if (keyed) {
                out.emplace_back(h, RowRef{static_cast<uint32_t>(p),
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
      Dataset<std::pair<uint64_t, RowRef>> keyed(ctx, std::move(keyed_parts));
      block_it = caches->blocks.emplace(block_sig, GroupByKey(keyed)).first;
    }
    const auto& blocks = block_it->second;
    const auto& gparts = blocks.partitions();
    std::vector<TaskOutput> tasks = blocks.RunStageMorsels<TaskOutput>(
        "kernel:iterate|detect|genfix",
        [&](size_t p) { return gparts[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          TaskOutput out;
          BlockScratch scratch;
          for (size_t b = begin; b < end; ++b) {
            const std::vector<RowRef>& block = gparts[p][b].second;
            IterateBlock(
                plan, block.size(), detect::NoRows(), &scratch, &out,
                kernel.get(), writer.get(), [&](size_t i) {
                  const RowRef& r = block[i];
                  return KernelUnit{
                      CodeTuple{slot_ptrs[r.part].data(), r.idx},
                      {&bparts[r.part][r.idx], part_begin[r.part] + r.idx}};
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
    return true;
  }

  // --- No blocking key: whole-dataset chunk-pair enumeration over flat
  // contiguous code arrays (partition codes concatenated in Collect order).
  std::optional<ScopedSpan> op_span;
  if (trace.enabled()) {
    op_span.emplace("kernel:iterate|detect|genfix", "operator");
  }
  std::vector<const Row*> base_rows;
  base_rows.reserve(base.Count());
  for (const auto& part : bparts) {
    for (const Row& row : part) base_rows.push_back(&row);
  }
  std::vector<std::vector<uint32_t>> flat(tmpl->columns().size());
  for (size_t s = 0; s < tmpl->columns().size(); ++s) {
    const EncodedColumn& col = *enc.at(to_base(tmpl->columns()[s]));
    flat[s].reserve(base_rows.size());
    for (const auto& part : col.codes) {
      flat[s].insert(flat[s].end(), part.begin(), part.end());
    }
  }
  std::vector<const uint32_t*> flat_ptrs;
  flat_ptrs.reserve(flat.size());
  for (const auto& codes : flat) flat_ptrs.push_back(codes.data());

  // Chunking replicated from the interpreted RunUnblocked so tasks, pair
  // order and therefore violation order line up exactly.
  const bool unordered = plan.strategy == IterateStrategy::kUCrossProduct &&
                         plan.rule->IsSymmetric();
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
  const bool materialize = plan.strategy == IterateStrategy::kCrossProduct;
  auto tasks = StageExecutor(ctx).RunProducing<TaskOutput>(
      "kernel:iterate|detect|genfix:unblocked", chunk_pairs.size(),
      [&](size_t t, TaskContext& tc) {
        auto [ci, cj] = chunk_pairs[t];
        const size_t ibegin = ci * chunk;
        const size_t iend = std::min(base_rows.size(), ibegin + chunk);
        const size_t jbegin = cj * chunk;
        const size_t jend = std::min(base_rows.size(), jbegin + chunk);
        TaskOutput out;
        const uint32_t* const* cols = flat_ptrs.data();
        auto eval = [&](size_t i, size_t j) {
          ++out.detect_calls;
          if (kernel->Matches(CodeTuple{cols, i}, CodeTuple{cols, j})) {
            writer->WritePair({base_rows[i], static_cast<uint32_t>(i)},
                              {base_rows[j], static_cast<uint32_t>(j)},
                              &out.violations);
          }
        };
        for (size_t i = ibegin; i < iend; ++i) {
          const size_t jstart = (ci == cj) ? i + 1 : jbegin;
          for (size_t j = jstart; j < jend; ++j) {
            if (materialize) {
              // CrossProduct wrapper order: (i, j) then (j, i), exactly
              // the interpreted pair-list materialization order.
              eval(i, j);
              eval(j, i);
            } else {
              eval(i, j);
              if (!unordered) eval(j, i);
            }
          }
        }
        ctx->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = iend - ibegin;
        tc.records_out = out.violations.size();
        return out;
      });
  if (!tasks.ok()) throw StageError(tasks.status());
  MergeOutputs(&*tasks, violations, result);
  return true;
}

}  // namespace columnar
}  // namespace bigdansing
