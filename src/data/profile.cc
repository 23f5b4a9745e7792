#include "data/profile.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/json_writer.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "data/dictionary.h"
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

/// Count-descending, value-ascending order; keeps the first kProfileTopK.
std::vector<TopValue> SelectTopK(std::vector<TopValue> all) {
  std::sort(all.begin(), all.end(), [](const TopValue& a, const TopValue& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.value < b.value;
  });
  if (all.size() > kProfileTopK) all.resize(kProfileTopK);
  return all;
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

  if (table.num_rows() < kProfileInlineRows) {
    // Small-table path: a driver-side loop with no stage dispatch — below
    // this size the dispatch overhead exceeds the profiling work (the same
    // economics as the morsel-size cutoff). Output is identical to the
    // encoded path.
    std::vector<std::unordered_map<Value, uint64_t>> counts(num_cols);
    for (const Row& row : table.rows()) {
      for (size_t c = 0; c < num_cols; ++c) {
        const Value& v = row.value(row.source_column(c));
        if (v.is_null()) {
          ++out.columns[c].nulls;
        } else {
          ++counts[c][v];
        }
      }
    }
    for (size_t c = 0; c < num_cols; ++c) {
      ColumnProfile& prof = out.columns[c];
      prof.distinct = counts[c].size();
      std::vector<TopValue> all;
      all.reserve(counts[c].size());
      for (const auto& [v, n] : counts[c]) {
        if (prof.min.is_null() || v < prof.min) prof.min = v;
        if (prof.max.is_null() || v > prof.max) prof.max = v;
        all.push_back({v, n});
      }
      prof.top = SelectTopK(std::move(all));
    }
    return out;
  }

  // Encoded path: the sorted pools give distinct/min/max for free (every
  // pooled value occurs in the data, and code order is Value order); only
  // null counts and the frequency histogram need a pass, and that pass
  // touches dense u32 codes, never a Value. Reads the table in place.
  const PartitionView<Row> data =
      PartitionView<Row>::Split(ctx, table.rows());
  const auto& parts = data.partitions();

  std::vector<std::vector<size_t>> groups(num_cols);
  for (size_t c = 0; c < num_cols; ++c) groups[c] = {c};
  EncodedColumnSet encoded = EncodeColumns(data, groups);

  struct ColumnCounts {
    std::vector<uint64_t> counts;
    uint64_t nulls = 0;
  };
  using Piece = std::vector<ColumnCounts>;
  std::vector<Piece> hist = data.RunStageMorsels<Piece>(
      "profile:histogram", [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        Piece piece(num_cols);
        for (size_t c = 0; c < num_cols; ++c) {
          const EncodedColumn& col = encoded.columns.at(c);
          piece[c].counts.assign(col.pool->size(), 0);
          const std::vector<uint32_t>& codes = col.codes[p];
          for (size_t i = begin; i < end; ++i) {
            const uint32_t code = codes[i];
            if (code >= col.pool->size()) {
              ++piece[c].nulls;
            } else {
              ++piece[c].counts[code];
            }
          }
        }
        tc.records_in = end - begin;
        return piece;
      },
      [&](size_t, std::vector<Piece>&& pieces) {
        Piece merged(num_cols);
        for (size_t c = 0; c < num_cols; ++c) {
          merged[c].counts.assign(encoded.columns.at(c).pool->size(), 0);
        }
        for (const Piece& piece : pieces) {
          for (size_t c = 0; c < num_cols; ++c) {
            merged[c].nulls += piece[c].nulls;
            for (size_t k = 0; k < piece[c].counts.size(); ++k) {
              merged[c].counts[k] += piece[c].counts[k];
            }
          }
        }
        return merged;
      });

  for (size_t c = 0; c < num_cols; ++c) {
    const ValuePool& pool = *encoded.columns.at(c).pool;
    ColumnProfile& prof = out.columns[c];
    std::vector<uint64_t> counts(pool.size(), 0);
    for (const Piece& part : hist) {
      prof.nulls += part[c].nulls;
      for (size_t k = 0; k < part[c].counts.size(); ++k) {
        counts[k] += part[c].counts[k];
      }
    }
    prof.distinct = pool.size();
    if (pool.size() > 0) {
      prof.min = pool.value(0);
      prof.max = pool.value(static_cast<uint32_t>(pool.size() - 1));
    }
    std::vector<TopValue> all;
    all.reserve(counts.size());
    for (uint32_t code = 0; code < counts.size(); ++code) {
      if (counts[code] > 0) all.push_back({pool.value(code), counts[code]});
    }
    prof.top = SelectTopK(std::move(all));
  }
  return out;
}

}  // namespace bigdansing
