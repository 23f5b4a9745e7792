#include "data/dictionary.h"

#include <algorithm>

#include "obs/profiler.h"

namespace bigdansing {

namespace {

bool ValueLess(const Value& a, const Value& b) { return a.Compare(b) < 0; }

uint64_t NextPow2(uint64_t n) {
  uint64_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

/// Flat open-addressing set of distinct Values, used for the per-partition
/// dedup in the encode stage. Slots hold value-index+1 (0 = empty) into a
/// parallel (value, hash) store; probing compares cached hashes before
/// falling back to Value equality, and nothing allocates per element —
/// the node-per-insert cost of std::unordered_set is what this replaces in
/// the hottest encode loop.
class FlatValueSet {
 public:
  void Reserve(size_t n) {
    values_.reserve(n);
    hashes_.reserve(n);
    Rehash(NextPow2(2 * n + 16));
  }

  void Insert(Value v) {
    if ((values_.size() + 1) * 2 > slots_.size()) Rehash(2 * slots_.size());
    const uint64_t h = v.Hash();
    uint64_t i = h & mask_;
    while (uint32_t slot = slots_[i]) {
      const uint32_t idx = slot - 1;
      if (hashes_[idx] == h && values_[idx] == v) return;
      i = (i + 1) & mask_;
    }
    slots_[i] = static_cast<uint32_t>(values_.size()) + 1;
    values_.push_back(std::move(v));
    hashes_.push_back(h);
  }

  std::vector<Value> Take() { return std::move(values_); }

 private:
  void Rehash(uint64_t size) {
    slots_.assign(size, 0);
    mask_ = size - 1;
    for (uint32_t idx = 0; idx < values_.size(); ++idx) {
      uint64_t i = hashes_[idx] & mask_;
      while (slots_[i]) i = (i + 1) & mask_;
      slots_[i] = idx + 1;
    }
  }

  std::vector<uint32_t> slots_;
  uint64_t mask_ = 0;
  std::vector<Value> values_;
  std::vector<uint64_t> hashes_;
};

/// Sorts a set of distinct values into Value order. A set of ints only
/// (integer key columns such as zip codes) sorts as plain int64 keys, about
/// 2.5 times faster than moving Values through Compare; each value is then
/// rebuilt from its key, which is exact since the set holds one value per
/// key.
void SortDistinct(std::vector<Value>* values) {
  const bool ints_only =
      std::all_of(values->begin(), values->end(),
                  [](const Value& v) { return v.is_int(); });
  if (!ints_only) {
    std::sort(values->begin(), values->end(), ValueLess);
    return;
  }
  std::vector<int64_t> keys;
  keys.reserve(values->size());
  for (const Value& v : *values) keys.push_back(v.as_int());
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < keys.size(); ++i) (*values)[i] = Value(keys[i]);
}

/// Merges two sorted, deduplicated runs into one. Of two values that
/// compare equal it keeps `lo`'s, so folding runs of ascending partitions
/// keeps the lowest partition's representative.
std::vector<Value> MergeRuns(std::vector<Value> lo, std::vector<Value> hi) {
  std::vector<Value> out;
  out.reserve(lo.size() + hi.size());
  size_t i = 0;
  size_t j = 0;
  while (i < lo.size() && j < hi.size()) {
    const int cmp = lo[i].Compare(hi[j]);
    if (cmp <= 0) {
      out.push_back(std::move(lo[i++]));
      if (cmp == 0) ++j;
    } else {
      out.push_back(std::move(hi[j++]));
    }
  }
  for (; i < lo.size(); ++i) out.push_back(std::move(lo[i]));
  for (; j < hi.size(); ++j) out.push_back(std::move(hi[j]));
  return out;
}

}  // namespace

ValuePool::ValuePool(std::vector<Value> values)
    : values_(std::move(values)) {
  hashes_.reserve(values_.size());
  for (const Value& v : values_) hashes_.push_back(v.Hash());
  Reindex(NextPow2(2 * values_.size() + 16));
}

void ValuePool::Reindex(uint64_t slots) {
  index_.assign(slots, 0);
  index_mask_ = slots - 1;
  for (uint32_t code = 0; code < values_.size(); ++code) {
    uint64_t i = hashes_[code] & index_mask_;
    while (index_[i]) i = (i + 1) & index_mask_;
    index_[i] = code + 1;
  }
}

uint32_t ValuePool::Find(const Value& v, uint64_t h, uint64_t* slot) const {
  uint64_t i = h & index_mask_;
  while (uint32_t entry = index_[i]) {
    const uint32_t code = entry - 1;
    if (hashes_[code] == h && values_[code] == v) return code;
    i = (i + 1) & index_mask_;
  }
  *slot = i;
  return kAbsentCode;
}

uint32_t ValuePool::CodeOf(const Value& v) const {
  if (v.is_null()) return kNullCode;
  uint64_t slot = 0;
  return Find(v, v.Hash(), &slot);
}

uint32_t ValuePool::Intern(const Value& v) {
  if (v.is_null()) return kNullCode;
  const uint64_t h = v.Hash();
  uint64_t i = 0;
  const uint32_t found = Find(v, h, &i);
  if (found != kAbsentCode) return found;
  const auto code = static_cast<uint32_t>(values_.size());
  values_.push_back(v);
  hashes_.push_back(h);
  if (2 * values_.size() > index_.size()) {
    Reindex(2 * index_.size());
  } else {
    index_[i] = code + 1;
  }
  return code;
}

uint32_t ValuePool::LowerBound(const Value& v) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), v, ValueLess);
  return static_cast<uint32_t>(it - values_.begin());
}

uint32_t ValuePool::UpperBound(const Value& v) const {
  auto it = std::upper_bound(values_.begin(), values_.end(), v, ValueLess);
  return static_cast<uint32_t>(it - values_.begin());
}

EncodedColumnSet EncodeColumns(
    const PartitionView<Row>& data,
    const std::vector<std::vector<size_t>>& groups) {
  EncodedColumnSet out;
  const auto& parts = data.partitions();
  const size_t num_parts = parts.size();

  // Flat column order (group-major) fixes the layout of both stage outputs.
  std::vector<size_t> flat_cols;
  std::vector<size_t> flat_group;  // flat slot -> group index
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t c : groups[g]) {
      flat_cols.push_back(c);
      flat_group.push_back(g);
    }
  }

  // Stage 1: per-partition distinct non-null values per group via flat hash
  // dedup (one Hash + O(1) probe per cell — cheaper than sorting every
  // cell), then each task sorts its own distinct set, so the driver only
  // merges sorted runs. Columns may carry per-row source mappings (scoped
  // rows), honoured via source_column.
  std::vector<std::vector<std::vector<Value>>> runs =
      data.RunStageProducing<std::vector<std::vector<Value>>>(
          "kernel:encode:pool", [&](size_t p, TaskContext& tc) {
            std::vector<std::vector<Value>> per_group(groups.size());
            for (size_t g = 0; g < groups.size(); ++g) {
              FlatValueSet seen;
              seen.Reserve(parts[p].size() / 4 + 16);
              for (size_t c : groups[g]) {
                for (const Row& row : parts[p]) {
                  const Value& v = row.value(row.source_column(c));
                  if (!v.is_null()) seen.Insert(v);
                }
              }
              per_group[g] = seen.Take();
              // Sorted so code order equals Value order (ordering
              // predicates compile to u32 range tests against
              // LowerBound/UpperBound).
              SortDistinct(&per_group[g]);
            }
            tc.records_in = parts[p].size();
            return per_group;
          });

  std::vector<std::shared_ptr<const ValuePool>> pools(groups.size());
  {
    // Driver-serial pool construction (merge of the sorted runs + index
    // build between the two parallel stages); published so profiled runs
    // attribute it.
    ScopedActivity pool_activity(
        Profiler::Instance().Intern("kernel:encode:pool", "driver"));
    for (size_t g = 0; g < groups.size(); ++g) {
      // Pairwise merges of neighbouring runs, log2(P) rounds; each merge
      // keeps its lower-partition side's representative.
      std::vector<std::vector<Value>> level;
      level.reserve(num_parts);
      for (auto& per_group : runs) level.push_back(std::move(per_group[g]));
      while (level.size() > 1) {
        std::vector<std::vector<Value>> next;
        next.reserve((level.size() + 1) / 2);
        for (size_t i = 0; i + 1 < level.size(); i += 2) {
          next.push_back(
              MergeRuns(std::move(level[i]), std::move(level[i + 1])));
        }
        if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
        level = std::move(next);
      }
      pools[g] = std::make_shared<ValuePool>(
          level.empty() ? std::vector<Value>{} : std::move(level.front()));
    }
  }

  // Stage 2: encode every requested column morsel-wise against its group's
  // pool (O(1) probes against the pool's flat index) into one code vector
  // per column, sized once: each morsel writes its own rows' codes at
  // their positions, in place. Morsel stages never speculate, and a
  // retried attempt rewrites only its own range.
  out.rows = data.Count();
  std::vector<uint32_t*> codes(flat_cols.size());
  for (size_t s = 0; s < flat_cols.size(); ++s) {
    EncodedColumn& col = out.columns[flat_cols[s]];
    col.pool = pools[flat_group[s]];
    col.codes.resize(out.rows);
    codes[s] = col.codes.data();
  }
  data.RunStageMorsels<int>(
      "kernel:encode:codes",
      [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        for (size_t s = 0; s < flat_cols.size(); ++s) {
          const ValuePool& pool = *pools[flat_group[s]];
          const size_t c = flat_cols[s];
          uint32_t* out_codes = codes[s] + data.Begin(p);
          for (size_t i = begin; i < end; ++i) {
            const Row& row = parts[p][i];
            out_codes[i] = pool.CodeOf(row.value(row.source_column(c)));
          }
        }
        tc.records_in = end - begin;
        tc.records_out = end - begin;
        return 0;  // the codes are in place: nothing to merge
      },
      [](size_t, std::vector<int>&&) { return 0; });
  return out;
}

ValuePool GrowPool(const ValuePool& base, const std::vector<Value>& fresh,
                   std::vector<uint32_t>* old_to_new) {
  // Distinct genuinely-new values, sorted.
  FlatValueSet seen;
  seen.Reserve(fresh.size());
  for (const Value& v : fresh) {
    if (v.is_null()) continue;
    if (base.CodeOf(v) == ValuePool::kAbsentCode) seen.Insert(v);
  }
  std::vector<Value> added = seen.Take();
  std::sort(added.begin(), added.end(), ValueLess);

  // Merge the two sorted runs; record where each old code lands.
  std::vector<Value> merged;
  merged.reserve(base.size() + added.size());
  old_to_new->assign(base.size(), 0);
  size_t a = 0;
  for (uint32_t c = 0; c < base.size(); ++c) {
    const Value& old = base.value(c);
    while (a < added.size() && ValueLess(added[a], old)) {
      merged.push_back(added[a++]);
    }
    (*old_to_new)[c] = static_cast<uint32_t>(merged.size());
    merged.push_back(old);
  }
  while (a < added.size()) merged.push_back(added[a++]);
  return ValuePool(std::move(merged));
}

}  // namespace bigdansing
