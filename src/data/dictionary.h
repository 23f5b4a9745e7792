#ifndef BIGDANSING_DATA_DICTIONARY_H_
#define BIGDANSING_DATA_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/row.h"
#include "data/value.h"
#include "dataflow/dataset.h"

namespace bigdansing {

/// An interned pool of distinct non-null values: dense u32 codes with
/// per-code hashes precomputed, so block keys can be rebuilt from codes
/// without touching a Value. A pool holds its values in one of two orders:
///  - value order (the constructor, which EncodeColumns and GrowPool use):
///    code order equals Value order, so every ordering comparison over
///    encoded columns is a u32 compare and LowerBound/UpperBound place
///    range constants;
///  - arrival order (Intern): an absent value takes the next code and no
///    code ever moves, so codes decide equality only, and LowerBound and
///    UpperBound must not be asked.
///
/// Values that compare equal across physical types (int 1 == double 1.0)
/// intern to one code; which representative the pool keeps is
/// unspecified, which is safe because kernels only *decide* over codes —
/// violation cells are always materialized from the original rows.
class ValuePool {
 public:
  /// Code of a null cell. Larger than any valid code, so a single
  /// `code >= size()` test rejects both sentinels.
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;
  /// Code for a value absent from the pool (constants never seen in the
  /// data).
  static constexpr uint32_t kAbsentCode = 0xFFFFFFFEu;

  /// Takes ownership of `values`, which must be sorted by Value::Compare
  /// and deduplicated (EncodeColumns guarantees this).
  explicit ValuePool(std::vector<Value> values);

  size_t size() const { return values_.size(); }
  const Value& value(uint32_t code) const { return values_[code]; }
  /// Precomputed Value::Hash() of `value(code)`.
  uint64_t hash(uint32_t code) const { return hashes_[code]; }

  /// Code of `v`: kNullCode for null, kAbsentCode when no pooled value
  /// compares equal, else the dense code. O(1): served from a hash index.
  uint32_t CodeOf(const Value& v) const;

  /// Code of `v`, appending it as the next code when no pooled value
  /// compares equal (kNullCode for null). Earlier codes, hashes and values
  /// stay where they are; the hash index doubles when half full. A pool
  /// that gained a value this way is no longer in value order.
  uint32_t Intern(const Value& v);

  /// First code whose value is >= `v` (clamped to size()). Together with
  /// UpperBound this turns constant range predicates into code compares:
  ///   value <  c  ⟺  code < LowerBound(c)
  ///   value <= c  ⟺  code < UpperBound(c)
  /// Valid only while the pool is in value order.
  uint32_t LowerBound(const Value& v) const;
  /// First code whose value is > `v` (clamped to size()); same caveat.
  uint32_t UpperBound(const Value& v) const;

 private:
  /// Code of non-null `v` with hash `h`, or kAbsentCode with `*slot` set
  /// to the empty index slot where it would go.
  uint32_t Find(const Value& v, uint64_t h, uint64_t* slot) const;
  /// Rebuilds the hash index over `slots` slots (a power of two).
  void Reindex(uint64_t slots);

  std::vector<Value> values_;
  std::vector<uint64_t> hashes_;
  /// value -> code, for O(1) CodeOf (equality lookups dominate: every row
  /// of every encoded column makes one). Open-addressing over code+1 slots
  /// (0 = empty), at most half full — probing touches a flat array and
  /// compares precomputed hashes before ever touching a Value, with no
  /// per-node allocation.
  std::vector<uint32_t> index_;
  uint64_t index_mask_ = 0;
};

/// One dictionary-encoded column: a shared pool plus the dense code of
/// every record of the encoded view, indexed by its position.
struct EncodedColumn {
  std::shared_ptr<const ValuePool> pool;
  std::vector<uint32_t> codes;
};

/// The encoded columns of one scoped dataset, keyed by detect-schema column
/// index.
struct EncodedColumnSet {
  std::unordered_map<size_t, EncodedColumn> columns;
  uint64_t rows = 0;
};

/// Dictionary-encodes the given columns of `data` in two stages
/// ("kernel:encode:pool" collects and sorts each partition's distinct
/// values per group, which the driver merges into one pool per group;
/// "kernel:encode:codes" morsels write their rows' codes in place). Each
/// inner vector of `groups` is a set of detect-schema column indices that
/// share one pool (required whenever a kernel compares codes *across* two
/// columns); every requested column appears in exactly one group. Of
/// values that compare equal, a pool keeps the one seen first in the
/// lowest partition.
EncodedColumnSet EncodeColumns(const PartitionView<Row>& data,
                               const std::vector<std::vector<size_t>>& groups);

/// Growth in value order, for a long-lived pool whose codes a kernel
/// compares by order (a stream session's sorted pool groups): merges the
/// fresh values into `base`'s sorted values and returns the merged pool.
/// `old_to_new[c]` is the new code of old code `c` (old-code order is
/// preserved, codes only shift upward), so a holder of per-row code vectors
/// remaps them in O(rows) without touching a Value, and kernels bound to
/// `base` must re-Bind (constant positions shift with the same map).
/// `fresh` may contain nulls, duplicates and pooled values, all ignored.
/// Pools whose codes are compared for equality only grow by Intern instead:
/// no code moves, so nothing is remapped or rebound.
ValuePool GrowPool(const ValuePool& base, const std::vector<Value>& fresh,
                   std::vector<uint32_t>* old_to_new);

}  // namespace bigdansing

#endif  // BIGDANSING_DATA_DICTIONARY_H_
