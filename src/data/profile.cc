#include "data/profile.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/json_writer.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "dataflow/dataset.h"

namespace bigdansing {

namespace {

/// Values render with their type (like the lineage ledger) so int 1 and
/// string "1" stay distinguishable in profile output; null renders as JSON
/// null.
std::string ValueJson(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(v.as_int());
    case ValueType::kDouble:
      return JsonDouble(v.as_double());
    case ValueType::kString:
      return "\"" + JsonEscape(v.as_string()) + "\"";
  }
  return "null";
}

/// A count map's key: the first occurrence of a value among the counted
/// rows, by address (no Value is copied), with its hash, so that routing,
/// lookup and rehashing hash each cell once.
struct CellKey {
  const Value* value;
  uint64_t hash;

  bool operator==(const CellKey& other) const {
    return hash == other.hash && *value == *other.value;
  }
};

struct CellKeyHash {
  size_t operator()(const CellKey& key) const noexcept { return key.hash; }
};

using CountMap = std::unordered_map<CellKey, uint64_t, CellKeyHash>;

/// The counts of one run of rows: per column, its nulls and one count map
/// per hash range. Equal values hash alike, so all occurrences of a value
/// meet in one range.
struct RunCounts {
  std::vector<uint64_t> nulls;              // [column]
  std::vector<std::vector<CountMap>> maps;  // [column][range]
};

RunCounts CountRows(std::span<const Row> rows, size_t num_cols,
                    size_t num_ranges) {
  RunCounts out;
  out.nulls.assign(num_cols, 0);
  out.maps.assign(num_cols, std::vector<CountMap>(num_ranges));
  for (const Row& row : rows) {
    for (size_t c = 0; c < num_cols; ++c) {
      const Value& v = row.value(row.source_column(c));
      if (v.is_null()) {
        ++out.nulls[c];
        continue;
      }
      const uint64_t hash = v.Hash();
      ++out.maps[c][StableHashUint64(hash) % num_ranges][CellKey{&v, hash}];
    }
  }
  return out;
}

struct Counted {
  const Value* value;
  uint64_t count;
};

/// Count-descending, then Value-ascending: the order of ColumnProfile::top.
bool Precedes(const Counted& a, const Counted& b) {
  if (a.count != b.count) return a.count > b.count;
  return *a.value < *b.value;
}

/// Distinct count, min, max and the kProfileTopK most frequent of the
/// distinct values of one column folded so far, held by address. Whatever
/// is added or merged is distinct from what is held, so no two values
/// compare equal.
struct ColumnFold {
  uint64_t distinct = 0;
  const Value* min = nullptr;
  const Value* max = nullptr;
  std::vector<Counted> top;  // Precedes order.

  void Add(const Counted& entry) {
    ++distinct;
    Bound(entry.value, entry.value);
    Keep(entry);
  }

  void Merge(const ColumnFold& other) {
    distinct += other.distinct;
    if (other.min != nullptr) Bound(other.min, other.max);
    for (const Counted& entry : other.top) Keep(entry);
  }

 private:
  void Bound(const Value* lo, const Value* hi) {
    if (min == nullptr || *lo < *min) min = lo;
    if (max == nullptr || *hi > *max) max = hi;
  }

  void Keep(const Counted& entry) {
    if (top.size() == kProfileTopK) {
      if (!Precedes(entry, top.back())) return;
      top.pop_back();
    }
    top.insert(std::upper_bound(top.begin(), top.end(), entry, Precedes),
               entry);
  }
};

/// Folds hash range `r` of every column over `runs`, which hold the
/// table's rows in order: the first run holding a value keys it by its
/// first occurrence in the table, which is the form the profile reports
/// for equal values such as 0 and -0.0, or 1 and 1.0.
std::vector<ColumnFold> FoldRange(const std::vector<RunCounts>& runs,
                                  size_t r, TaskContext& tc) {
  const size_t num_cols = runs.front().maps.size();
  std::vector<ColumnFold> out(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    const CountMap* counts = &runs.front().maps[c][r];
    CountMap merged;
    if (runs.size() > 1) {
      size_t entries = 0;
      for (const RunCounts& run : runs) entries += run.maps[c][r].size();
      merged.reserve(entries);
      for (const RunCounts& run : runs) {
        for (const auto& [key, n] : run.maps[c][r]) merged[key] += n;
      }
      counts = &merged;
      tc.records_in += entries;
    }
    for (const auto& [key, n] : *counts) out[c].Add({key.value, n});
    tc.records_out += counts->size();
  }
  return out;
}

}  // namespace

std::string ColumnProfile::ToJson() const {
  std::string out = "{\"name\":\"" + JsonEscape(name) + "\"";
  out += ",\"index\":" + std::to_string(index);
  out += ",\"rows\":" + std::to_string(rows);
  out += ",\"nulls\":" + std::to_string(nulls);
  out += ",\"null_rate\":" + JsonDouble(null_rate());
  out += ",\"distinct\":" + std::to_string(distinct);
  out += ",\"min\":" + ValueJson(min);
  out += ",\"max\":" + ValueJson(max);
  out += ",\"top\":[";
  for (size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"value\":" + ValueJson(top[i].value) +
           ",\"count\":" + std::to_string(top[i].count) + "}";
  }
  out += "]}";
  return out;
}

const ColumnProfile* TableProfile::Find(const std::string& name) const {
  for (const ColumnProfile& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string TableProfile::ToJson() const {
  std::string out = "{\"rows\":" + std::to_string(rows) + ",\"columns\":[";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ",";
    out += columns[i].ToJson();
  }
  out += "]}";
  return out;
}

TableProfile ProfileTable(ExecutionContext* ctx, const Table& table) {
  TableProfile out;
  const Schema& schema = table.schema();
  const size_t num_cols = schema.num_attributes();
  out.rows = table.num_rows();
  out.columns.resize(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    out.columns[c].name = schema.attribute(c);
    out.columns[c].index = c;
    out.columns[c].rows = out.rows;
  }
  if (num_cols == 0 || ctx == nullptr) return out;

  std::optional<ScopedSpan> span;
  if (TraceRecorder::Instance().enabled()) {
    span.emplace("profile", "phase");
    span->Annotate("rows", out.rows);
    span->Annotate("columns", static_cast<uint64_t>(num_cols));
  }

  // Count runs of rows into hash ranges, fold each range, combine the
  // folds: inline as one run and one range, or in two stages.
  std::vector<RunCounts> runs;
  std::vector<std::vector<ColumnFold>> ranges;  // [range][column]
  if (table.num_rows() < kProfileInlineRows) {
    TaskContext unused;
    runs.push_back(CountRows(table.rows(), num_cols, 1));
    ranges.push_back(FoldRange(runs, 0, unused));
  } else {
    const PartitionView<Row> data =
        PartitionView<Row>::Split(ctx, table.rows());
    const auto& parts = data.partitions();
    const size_t num_ranges = parts.size();
    runs = data.RunStageProducing<RunCounts>(
        "profile:count", [&](size_t p, TaskContext&) {
          return CountRows(parts[p], num_cols, num_ranges);
        });
    auto folded = StageExecutor(ctx).RunProducing<std::vector<ColumnFold>>(
        "profile:merge", num_ranges,
        [&](size_t r, TaskContext& tc) { return FoldRange(runs, r, tc); });
    if (!folded.ok()) throw StageError(folded.status());
    ranges = std::move(*folded);
  }

  for (size_t c = 0; c < num_cols; ++c) {
    ColumnProfile& prof = out.columns[c];
    for (const RunCounts& run : runs) prof.nulls += run.nulls[c];
    ColumnFold fold;
    for (const std::vector<ColumnFold>& range : ranges) fold.Merge(range[c]);
    prof.distinct = fold.distinct;
    if (fold.min != nullptr) {
      prof.min = *fold.min;
      prof.max = *fold.max;
    }
    for (const Counted& entry : fold.top) {
      prof.top.push_back({*entry.value, entry.count});
    }
  }
  return out;
}

}  // namespace bigdansing
