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

/// An interned pool of distinct non-null values, sorted by Value's total
/// order. Code order equals Value order, so every ordering comparison over
/// encoded columns is a u32 compare, and per-code hashes are precomputed so
/// block keys can be rebuilt from codes without touching a Value.
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
  /// compares equal, else the dense code. O(1): served from a hash index
  /// built once at construction.
  uint32_t CodeOf(const Value& v) const;

  /// First code whose value is >= `v` (clamped to size()). Together with
  /// UpperBound this turns constant range predicates into code compares:
  ///   value <  c  ⟺  code < LowerBound(c)
  ///   value <= c  ⟺  code < UpperBound(c)
  uint32_t LowerBound(const Value& v) const;
  /// First code whose value is > `v` (clamped to size()).
  uint32_t UpperBound(const Value& v) const;

 private:
  std::vector<Value> values_;
  std::vector<uint64_t> hashes_;
  /// value -> code, for O(1) CodeOf (equality lookups dominate: every row
  /// of every encoded column makes one). Open-addressing over code+1 slots
  /// (0 = empty) — probing touches a flat array and compares precomputed
  /// hashes before ever touching a Value, with no per-node allocation.
  std::vector<uint32_t> index_;
  uint64_t index_mask_ = 0;
};

/// One dictionary-encoded column: a shared pool plus per-partition dense
/// code vectors aligned with the source dataset's partitions.
struct EncodedColumn {
  std::shared_ptr<const ValuePool> pool;
  std::vector<std::vector<uint32_t>> codes;
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
/// "kernel:encode:codes" encodes rows morsel-wise). Each inner vector of
/// `groups` is a set of detect-schema column indices that share one pool
/// (required whenever a kernel compares codes *across* two columns); every
/// requested column appears in exactly one group. Of values that compare
/// equal, a pool keeps the one seen first in the lowest partition.
EncodedColumnSet EncodeColumns(const PartitionView<Row>& data,
                               const std::vector<std::vector<size_t>>& groups);

/// Pool-growth policy for long-lived encodings (stream sessions): pools are
/// append-only in *value set* but not in *code assignment* — growing merges
/// the fresh values into the sorted order, producing a new pool whose codes
/// are a monotone remap of the old ones. `old_to_new[c]` is the new code of
/// old code `c` (old-code order is preserved, codes only shift upward), so a
/// holder of per-row code vectors re-encodes in O(rows) without touching a
/// Value, and bound kernels simply re-Bind against the new pool (constant
/// positions shift with the same map). `fresh` may contain nulls and
/// duplicates (both ignored); values already pooled are ignored. Returns the
/// old pool unchanged (and an identity map) when nothing new was added.
std::shared_ptr<const ValuePool> GrowPool(
    std::shared_ptr<const ValuePool> base, const std::vector<Value>& fresh,
    std::vector<uint32_t>* old_to_new);

}  // namespace bigdansing

#endif  // BIGDANSING_DATA_DICTIONARY_H_
