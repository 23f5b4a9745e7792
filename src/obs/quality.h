#ifndef BIGDANSING_OBS_QUALITY_H_
#define BIGDANSING_OBS_QUALITY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/profile.h"

namespace bigdansing {

/// Violation/fix/unresolved counters for one (rule, column) cell of the
/// quality breakdown (or for one rule when rolled up across columns).
struct QualityCounts {
  uint64_t violations = 0;
  uint64_t fixes = 0;
  uint64_t unresolved = 0;
};

/// One point of a Clean() run's convergence curve (1-based iteration).
/// `frozen_cells` and `oscillating_cells` are cumulative: cells frozen so
/// far, and cells updated in more than one iteration so far.
struct QualityIterationPoint {
  size_t iteration = 0;
  uint64_t violations = 0;
  uint64_t cells_changed = 0;
  uint64_t unresolved = 0;
  uint64_t frozen_cells = 0;
  uint64_t oscillating_cells = 0;
};

/// Everything the cleanse driver learned about one iteration, keyed
/// rule -> column attribute -> count. A violation (and an unresolved
/// survivor) attributes to the column of its first candidate fix; a fix
/// attributes to the cell actually updated. These attributions are
/// deterministic, so the per-rule sums reconcile bit-exactly with the
/// lineage ledger and the CleanReport.
struct QualityIterationSample {
  size_t iteration = 0;
  std::map<std::string, std::map<std::string, uint64_t>> violations;
  std::map<std::string, std::map<std::string, uint64_t>> fixes;
  std::map<std::string, std::map<std::string, uint64_t>> unresolved;
  uint64_t frozen_cells = 0;
  uint64_t oscillating_cells = 0;
};

/// The quality record of one Clean() run: convergence curve, per-rule ×
/// per-column breakdown, and (optionally) the input table's column
/// profile.
struct QualityRunRecord {
  uint64_t run_id = 0;
  /// Stream-session namespace this run belongs to; empty for one-shot
  /// Clean() runs. Lets /quality consumers split batch history from each
  /// session's per-window history.
  std::string session;
  uint64_t rules = 0;
  uint64_t rows = 0;
  bool in_progress = true;
  bool converged = false;
  /// True when any cell was updated in more than one iteration (the
  /// oscillation the freeze mechanism exists to terminate).
  bool oscillation = false;
  bool has_profile = false;
  TableProfile profile;
  std::vector<QualityIterationPoint> curve;
  std::map<std::string, std::map<std::string, QualityCounts>> by_rule_column;

  uint64_t TotalViolations() const;
  uint64_t TotalFixes() const;
  uint64_t TotalUnresolved() const;
  /// Column counts of `rule` rolled up.
  QualityCounts RuleTotals(const std::string& rule) const;

  /// One strict-JSON object (no newline) — the exact line BD_QUALITY_JSONL
  /// exports, and the exact element the /quality snapshot embeds.
  std::string ToJson() const;
};

/// Drift report between two quality snapshots: per-column profile deltas
/// (null rate, distinct count, min/max movement, top-k membership) plus
/// the per-rule violation-mix shift. One strict-JSON object.
std::string QualityDriftJson(const QualityRunRecord& before,
                             const QualityRunRecord& after);

/// Process-wide data-quality recorder — the data-plane counterpart of the
/// TraceRecorder/LineageRecorder pair: where the ledger records individual
/// cell changes, this folds each Clean() run into per-rule × per-column
/// violation/fix/unresolved counts, a per-iteration convergence curve and
/// an input-table profile, retained as run history for drift diffing.
/// Disabled by default (every hook is one relaxed atomic load when off).
/// Thread-safe.
class QualityRecorder {
 public:
  static QualityRecorder& Instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Drops all run history.
  void Clear();

  /// Opens a run record; returns its id (0 while disabled). `session`
  /// namespaces the run ("" = one-shot Clean(); stream sessions pass their
  /// session name so per-window runs are attributable).
  uint64_t BeginRun(uint64_t rules, uint64_t rows, std::string session = "");

  /// Attaches the input table's profile to run `run_id`.
  void RecordProfile(uint64_t run_id, TableProfile profile);

  /// Folds one iteration's counts and curve point into run `run_id`.
  void RecordIteration(uint64_t run_id, const QualityIterationSample& sample);

  /// Closes run `run_id`. Safe to call for unknown/stale ids.
  void EndRun(uint64_t run_id, bool converged);

  /// Runs ever begun (not bounded by the retention cap).
  uint64_t RunsBegun() const;

  /// Retained run records, oldest first.
  std::vector<QualityRunRecord> Runs() const;

  /// Most recent run record (completed or in-progress); false when none.
  bool LatestRun(QualityRunRecord* out) const;

  /// The /quality endpoint body: enabled flag, run counts, the retained
  /// run records (each embedded via QualityRunRecord::ToJson(), so the
  /// final snapshot is byte-identical to the JSONL export's records), and
  /// the drift report between the last two completed runs (null until two
  /// runs completed).
  std::string SnapshotJson() const;

  /// The /profile endpoint body: the most recent run's table profile
  /// ({"has_profile":false} shell when none was recorded yet).
  std::string LatestProfileJson() const;

  /// Completed runs, one strict-JSON object per line (run order).
  std::string ToJsonl() const;

 private:
  QualityRecorder() = default;

  /// Oldest runs are dropped beyond this many so long-running loops (the
  /// obs demo, a future streaming service) keep bounded history. The
  /// latest records — the ones /quality, drift and the JSONL tail serve —
  /// are always retained.
  static constexpr size_t kMaxRetainedRuns = 512;

  QualityRunRecord* FindLocked(uint64_t run_id);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<QualityRunRecord> runs_;
  uint64_t next_run_id_ = 1;
  uint64_t runs_begun_ = 0;
};

/// True when any provenance consumer is live: the lineage ledger or the
/// quality recorder. Repair passes use this (instead of the lineage toggle
/// alone) to decide whether to attribute assignments to their violations,
/// so quality telemetry works with the ledger off.
bool ProvenanceTrackingEnabled();

}  // namespace bigdansing

#endif  // BIGDANSING_OBS_QUALITY_H_
