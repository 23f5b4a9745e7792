#ifndef BIGDANSING_DATA_ROW_H_
#define BIGDANSING_DATA_ROW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/value.h"

namespace bigdansing {

/// Identifier of a data unit. Row ids are stable through Scope/Block/Iterate
/// so violations and fixes can point back into the original dataset.
using RowId = int64_t;

/// A data unit in the relational model (paper §2.1): a row id plus its
/// element values. Scoped rows may carry fewer values than the base schema;
/// `source_columns` then records which base column each element came from.
class Row {
 public:
  Row() : id_(-1) {}
  Row(RowId id, std::vector<Value> values)
      : id_(id), values_(std::move(values)) {}

  RowId id() const { return id_; }
  void set_id(RowId id) { id_ = id; }

  size_t size() const { return values_.size(); }
  const Value& value(size_t index) const { return values_[index]; }
  Value& value(size_t index) { return values_[index]; }
  const std::vector<Value>& values() const { return values_; }

  void set_value(size_t index, Value v) { values_[index] = std::move(v); }
  void AddValue(Value v) { values_.push_back(std::move(v)); }

  /// Original column index of element `index`; identity unless scoped.
  size_t source_column(size_t index) const {
    return source_columns_.empty() ? index : source_columns_[index];
  }
  void set_source_columns(std::vector<size_t> cols) {
    source_columns_ = std::move(cols);
  }
  const std::vector<size_t>& source_columns() const { return source_columns_; }

  bool operator==(const Row& other) const {
    return id_ == other.id_ && values_ == other.values_;
  }

  /// "#id[v0|v1|...]" for debugging.
  std::string ToString() const;

 private:
  RowId id_;
  std::vector<Value> values_;
  std::vector<size_t> source_columns_;
};

/// A pair of data units flowing from Iterate to Detect.
struct RowPair {
  Row left;
  Row right;
};

/// The positions of a (t1, t2) pair in a join's input; the inequality joins
/// (OCJoin, IEJoin) emit these so Detect reads both rows in place.
struct RowIndexPair {
  uint32_t left;
  uint32_t right;
};

}  // namespace bigdansing

#endif  // BIGDANSING_DATA_ROW_H_
