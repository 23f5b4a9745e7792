#ifndef BIGDANSING_DATA_VALUE_H_
#define BIGDANSING_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/hash.h"

namespace bigdansing {

/// Physical type of a Value.
enum class ValueType { kNull = 0, kInt = 1, kDouble = 2, kString = 3 };

/// Returns a stable name for `type` ("null", "int", "double", "string").
const char* ValueTypeName(ValueType type);

/// A dynamically typed cell value: null, 64-bit integer, double, or string.
/// Values form a total order (null < numerics < strings; int and double
/// compare numerically against each other; NaN sorts after every other
/// number and equals only NaN) so they can key sorted joins.
class Value {
 public:
  /// Null value.
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Accessors; behaviour is undefined unless the type matches.
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric view: int or double widened to double. Null/strings return 0.
  double AsNumber() const;

  /// Renders the value for CSV output / debugging. Null renders as "".
  std::string ToString() const;

  /// Parses `text` with type sniffing: integer-looking text becomes kInt,
  /// float-looking text kDouble, empty text kNull, anything else kString.
  static Value Parse(std::string_view text);

  /// Three-way comparison defining the total order described above.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Platform-stable hash; equal values (including int 1 == double 1.0,
  /// and ints beyond 2^53 that widen to one double) hash identically.
  uint64_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

}  // namespace bigdansing

namespace std {
template <>
struct hash<bigdansing::Value> {
  size_t operator()(const bigdansing::Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};
}  // namespace std

#endif  // BIGDANSING_DATA_VALUE_H_
