#include "data/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace bigdansing {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

double Value::AsNumber() const {
  if (is_int()) return static_cast<double>(as_int());
  if (is_double()) return as_double();
  return 0.0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(as_int());
    case ValueType::kDouble: {
      char buf[64];
      // %g keeps six significant digits, so this need not read back as
      // the same double; WriteCsvString writes doubles that do.
      std::snprintf(buf, sizeof(buf), "%g", as_double());
      return buf;
    }
    case ValueType::kString:
      return as_string();
  }
  return "";
}

Value Value::Parse(std::string_view text) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return Value::Null();
  if (LooksLikeInt(trimmed)) {
    int64_t v = 0;
    auto [ptr, ec] =
        std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), v);
    if (ec == std::errc() && ptr == trimmed.data() + trimmed.size()) {
      return Value(v);
    }
    // Overflow: fall through to string.
    return Value(std::string(text));
  }
  if (LooksLikeDouble(trimmed)) {
    return Value(std::strtod(std::string(trimmed).c_str(), nullptr));
  }
  return Value(std::string(text));
}

int Value::Compare(const Value& other) const {
  // Nulls first.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Cross-numeric comparison. NaN sorts after every other number and
  // equals only NaN (PostgreSQL's float rule), keeping the order total.
  if (is_numeric() && other.is_numeric()) {
    double a = AsNumber();
    double b = other.AsNumber();
    if (a < b) return -1;
    if (a > b) return 1;
    if (a == b) return 0;
    const bool a_nan = std::isnan(a);
    if (a_nan == std::isnan(b)) return 0;
    return a_nan ? 1 : -1;
  }
  // Numerics sort before strings.
  if (is_numeric() != other.is_numeric()) return is_numeric() ? -1 : 1;
  // Both strings.
  return as_string().compare(other.as_string());
}

namespace {

uint64_t HashDouble(double d) {
  // Every NaN is one value under Compare, whatever its sign or payload.
  if (std::isnan(d)) return 0x4E614E4E614EULL;  // "NaNNaN"
  // Integral doubles hash like ints so 1 == 1.0 implies equal hashes.
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    return StableHashUint64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return StableHashUint64(bits);
}

}  // namespace

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x4E554C4CULL;  // "NULL"
    case ValueType::kInt: {
      // Compare widens ints to doubles, which are exact only up to 2^53:
      // beyond it an int hashes as the double it compares as, so ints that
      // compare equal (2^53 and 2^53 + 1) hash alike.
      constexpr int64_t kExact = int64_t{1} << 53;
      const int64_t v = as_int();
      if (v < -kExact || v > kExact) {
        return HashDouble(static_cast<double>(v));
      }
      return StableHashUint64(static_cast<uint64_t>(v));
    }
    case ValueType::kDouble:
      return HashDouble(as_double());
    case ValueType::kString:
      return StableHashBytes(as_string());
  }
  return 0;
}

}  // namespace bigdansing
