#ifndef BIGDANSING_COMMON_LINEAGE_H_
#define BIGDANSING_COMMON_LINEAGE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/row.h"
#include "data/value.h"

namespace bigdansing {

/// One ledger record. `applied` entries describe a cell update performed by
/// the cleanse driver; `!applied` entries mark a violation that survived a
/// fix-point iteration (none of its candidate fixes were applied, so it is
/// carried into the next detect pass unresolved).
struct LineageEntry {
  bool applied = true;
  RowId row_id = -1;
  size_t column = 0;
  std::string attribute;
  Value old_value;
  Value new_value;
  /// Label of the rule whose violation proposed the fix.
  std::string rule;
  /// Index of the violation within the repair pass's input (unique within
  /// one iteration; combine with `iteration` for a global key).
  uint64_t violation_id = 0;
  /// 1-based fix-point iteration of the Clean() loop.
  size_t iteration = 0;
  /// Repair algorithm that proposed the fix ("equivalence-class",
  /// "hypergraph", "distributed-equivalence-class").
  std::string strategy;
  /// Connected-component id (black-box scheme) or equivalence-class label
  /// (distributed scheme) the fix was repaired under.
  uint64_t component = 0;

  /// One strict-JSON object (no newline).
  std::string ToJson() const;
};

/// Per-rule (or per-iteration) rollup of the ledger.
struct LineageSummary {
  uint64_t applied_fixes = 0;
  uint64_t unresolved = 0;
};

/// Process-wide repair lineage ledger — the data-side counterpart of the
/// TraceRecorder: where spans answer "where did the time go", the ledger
/// answers "which cell was changed, by which rule, from which violation,
/// in which iteration". Disabled by default; every Record call is a single
/// relaxed atomic load while disabled, so the repair hot path pays nothing
/// when lineage is off. Thread-safe.
class LineageRecorder {
 public:
  static LineageRecorder& Instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Drops all recorded entries.
  void Clear();

  /// Appends an applied-fix record. No-op while disabled.
  void RecordFix(LineageEntry entry);

  /// Appends an unresolved-violation record. No-op while disabled.
  void RecordUnresolved(std::string rule, uint64_t violation_id,
                        size_t iteration);

  size_t EntryCount() const;
  std::vector<LineageEntry> Entries() const;

  /// Applied/unresolved totals keyed by rule label.
  std::map<std::string, LineageSummary> SummaryByRule() const;

  /// Applied/unresolved totals keyed by fix-point iteration.
  std::map<size_t, LineageSummary> SummaryByIteration() const;

  /// All entries, one strict-JSON object per line.
  std::string ToJsonl() const;

 private:
  LineageRecorder() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<LineageEntry> entries_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_COMMON_LINEAGE_H_
