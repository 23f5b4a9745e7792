#ifndef BIGDANSING_CORE_STREAM_SESSION_H_
#define BIGDANSING_CORE_STREAM_SESSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/bigdansing.h"
#include "core/columnar_detect.h"
#include "core/fixpoint.h"
#include "core/physical_plan.h"
#include "data/dictionary.h"
#include "data/table.h"
#include "dataflow/context.h"
#include "obs/stream_stats.h"
#include "rules/detect_kernel.h"
#include "rules/rule.h"

namespace bigdansing {

/// Options for a streaming cleanse session (BigDansing::OpenStream).
struct StreamOptions {
  /// Planner/repair/freeze knobs shared with the one-shot path. The
  /// session's windowed fix-point uses clean.max_iterations as its
  /// per-window iteration cap, and clean.fault_policy scopes every
  /// window's stages.
  CleanOptions clean;

  /// Rows per micro-batch; Append() splits larger row vectors. Must be
  /// positive.
  size_t batch_rows = 4096;

  /// Bound on queued (not yet processed) micro-batches. Must be positive.
  size_t max_inflight_batches = 4;

  /// Backpressure contract when Append() would exceed the in-flight bound:
  /// true  -> Append() drains queued batches inline (the caller's thread
  ///          runs Poll()) until the queue fits — it blocks, never fails;
  /// false -> Append() rejects the whole call with ResourceExhausted
  ///          before enqueueing anything; the caller Poll()s and retries.
  bool block_on_backpressure = true;

  /// Observability namespace (the /streams record name, the /stages
  /// context label, the /quality run session). Empty -> "stream-<id>".
  std::string session_name;
};

/// Outcome of one processed window (one Poll(), or Flush()'s full-table
/// verification, whose `iterations` counts its rounds).
struct StreamWindowReport {
  uint64_t window_id = 0;
  size_t appended_rows = 0;
  /// Dirty blocks this window touched (across rules) and the candidate
  /// rows the incremental index fed into detection.
  size_t dirty_blocks = 0;
  size_t candidate_rows = 0;
  size_t violations = 0;
  size_t applied_fixes = 0;
  size_t iterations = 0;
  bool converged = false;
  double detect_seconds = 0.0;
  double repair_seconds = 0.0;
};

/// Outcome of Flush(): every window drained plus the verification window.
struct StreamFlushReport {
  std::vector<StreamWindowReport> windows;
  /// True when the full-table verification reached a fix point within
  /// clean.max_iterations rounds.
  bool converged = false;
  size_t total_violations = 0;
  size_t total_applied_fixes = 0;
};

/// A long-running streaming cleanse session over one table: rows arrive via
/// Append() in bounded micro-batches, leave via Retract(), and each Poll()
/// processes one window — encode the batch against the session's persistent
/// ValuePools, update the per-rule incremental violation index
/// (blocking-key -> member table positions), detect only inside the
/// blocks the window touched, and run repair as a windowed fix-point.
/// Blocked rules are detected by the engine's blocked stage, which
/// enumerates each dirty block in place over the session's code columns
/// and table rows; unblocked rules take the engine's changed-rows path, and
/// Flush()'s verification the engine's full-table pass. Created by
/// BigDansing::OpenStream.
///
/// Thread-compatible like RuleEngine: one caller thread at a time; the
/// session parallelizes internally and publishes snapshots to the /streams
/// endpoint, so observability scrapes are safe from any thread.
class StreamSession {
 public:
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  const std::string& name() const { return name_; }
  const Table& table() const { return *table_; }
  size_t pending_batches() const { return pending_.size(); }

  /// Enqueues rows as micro-batches. Rows with id -1 get fresh sequential
  /// ids; rows carrying ids must not collide with live or queued rows.
  /// Applies the backpressure contract (see StreamOptions).
  Status Append(std::vector<Row> rows);

  /// Convenience Append of plain value tuples (ids assigned).
  Status AppendValues(std::vector<std::vector<Value>> rows);

  /// Removes rows by id: queued rows never enter the table; live rows leave
  /// the table and the violation index immediately, and their former blocks
  /// are re-verified by the next processed window. Unknown ids are ignored
  /// (retracting twice is not an error), and an id repeated within one call
  /// retracts its row once and counts once. Costs O(rows after the first
  /// retracted position) besides the index updates: each moved row's entry
  /// in its block of every rule is rewritten in place.
  Status Retract(const std::vector<RowId>& row_ids);

  /// Processes one pending window (the oldest queued batch plus any
  /// retraction dirt). A no-op returning an empty report (iterations == 0)
  /// when nothing is pending.
  Result<StreamWindowReport> Poll();

  /// Drains every pending window, then runs one full-table verification
  /// window until convergence or clean.max_iterations rounds.
  Result<StreamFlushReport> Flush();

  /// Current observable counters (also pushed to the StreamDirectory).
  StreamSessionStats stats() const;

  /// Metrics of the session-owned ExecutionContext: every window's stages
  /// accumulate here (benches read SimulatedWallSeconds from it).
  const Metrics& metrics() const { return session_ctx_->metrics(); }

  /// Per-rule fingerprint of the incremental violation index: a stable
  /// hash over (block key -> sorted member row ids), independent of
  /// insertion order and of pool growth history — append-then-retract
  /// round-trips must reproduce a fresh build's fingerprint bit-exactly.
  std::vector<std::pair<std::string, uint64_t>> IndexFingerprints() const;

  /// Pushes the final snapshot and unregisters from /streams. Idempotent;
  /// the destructor calls it. Further mutations fail InvalidArgument.
  Status Close();

 private:
  friend class BigDansing;

  /// blocking-key -> member table positions, ascending: the candidate
  /// sets detection reads. A block is erased when its last member leaves.
  using Blocks = std::unordered_map<uint64_t, std::vector<uint32_t>>;
  /// A block handle. Map nodes never move, so a handle stays valid until
  /// its block is erased, and by then no position refers to it.
  using Block = Blocks::value_type;

  /// Per-rule incremental violation index state.
  struct RuleIndex {
    PhysicalRulePlan plan;
    /// True when the rule blocks (columns or UDF key); false -> the rule
    /// has no index and windows fall back to the engine's incremental
    /// (changed-rows) detection path.
    bool blocked = false;
    Blocks blocks;
    /// Block handle per table position (null: the row joins no block),
    /// aligned with table_->rows() like code_cols_; empty for unblocked
    /// rules.
    std::vector<Block*> block_of;
    /// The rule bound to code_cols_: its key's code columns (empty for UDF
    /// keys) and, with `tmpl`, its compiled GenFix, its kernel slots' code
    /// pointers (set each window) and its detect kernel. The kernel (null
    /// when the rule is not kernelizable or kernels are off) is bound
    /// against the session pools, rebound only when a sorted group it
    /// reads was remapped or a constant it bound as absent has since
    /// arrived (KernelStale). It prescreens dirty blocks and decides their
    /// pairs.
    std::shared_ptr<const KernelTemplate> tmpl;
    columnar::BoundKernel bound;
    /// KernelRemaps at the last bind.
    uint64_t bound_remaps = 0;
    /// Indices into tmpl->constants() of the constants absent from their
    /// pools at the last bind.
    std::vector<size_t> absent_constants;
    /// Code column (indexed slot) per kernel slot.
    std::vector<size_t> kernel_slots;
    /// Pending dirty keys for the next window.
    std::unordered_set<uint64_t> dirty;
  };

  StreamSession(ExecutionContext* parent, Table* table,
                std::vector<RulePtr> rules, StreamOptions options);

  /// Builds plans, pools, kernels and the index over the existing table
  /// rows (all marked dirty, so the first window cleans the backlog).
  Status Init();

  ExecutionContext* ctx() { return session_ctx_.get(); }

  /// Dictionary-encodes the indexed columns of the rows at `positions`
  /// into code_cols_. An equality group interns each cell once, appending
  /// values new to its pool. A sorted group looks each cell up, then merges
  /// the values new to it into its pool (GrowPool), remaps the group's
  /// code columns in one sweep and encodes those cells; other groups'
  /// columns are not touched.
  void EncodeRows(const std::vector<size_t>& positions);
  /// Key of the row at table position `pos` under rule index `ri`: the
  /// engine's keys, columnar::CodeBlockKey over its key_cols codes or
  /// columnar::ComputeBlockKey for a UDF key; false when the row joins no
  /// block.
  bool KeyOf(const RuleIndex& ri, size_t pos, uint64_t* key) const;

  /// Adds table position `pos` to rule index `ri`'s block `key` (created
  /// when absent), keeping the block ascending, and marks the block dirty.
  void JoinBlock(RuleIndex* ri, size_t pos, uint64_t key);
  /// Removes table position `pos` from its block of rule index `ri` (a
  /// no-op when it has none), marking the block dirty.
  void LeaveBlock(RuleIndex* ri, size_t pos);
  /// Extends code_cols_ and the block handles over rows appended to the
  /// table, encodes the rows at `positions` and (re)joins each to its
  /// current block of every rule index; the blocks a row leaves and joins
  /// become dirty.
  void IndexRows(const std::vector<size_t>& positions);

  /// True when a window has anything to do.
  bool HasWork() const;

  /// Remaps summed over the pool groups of rule `ri`'s kernel slots.
  uint64_t KernelRemaps(const RuleIndex& ri) const;
  /// True when `ri`'s bound kernel may decide wrongly: a sorted group it
  /// reads was remapped, or a constant it bound as absent has arrived.
  bool KernelStale(const RuleIndex& ri) const;
  /// Binds rule `ri`'s kernel when it has none or it is stale.
  void EnsureKernelBound(RuleIndex* ri);
  /// Kernel prescreen of one block (its member table positions): false
  /// only when the compiled kernel proves no ordered pair in the block can
  /// violate — exact, so skipping the block drops nothing. Each tuple
  /// points straight into code_cols_ through `ri.bound.slot_ptrs` (tuple
  /// row = table position); `tuples` is a buffer the caller reuses across
  /// blocks. A symmetric rule is decided by one AnyMatchUpper call; an
  /// asymmetric one by a pair loop that tries both orders and stops at the
  /// first match.
  bool BlockMayViolate(const RuleIndex& ri,
                       const std::vector<uint32_t>& members,
                       std::vector<CodeTuple>* tuples) const;

  /// Processes one window: moves the oldest batch (if any) into the table
  /// and runs the windowed detect/repair fix-point over the dirty blocks.
  /// A window that fails puts back the dirty keys its detection took and
  /// the rows it was seeded with or changed, so a later window redoes it;
  /// the landed batch stays landed.
  Result<StreamWindowReport> ProcessWindow();

  /// Flush()'s verification: one full-table fix-point window.
  Result<StreamWindowReport> VerifyWindow();

  /// Runs RunFixpoint over the session (row positions, freeze state; the
  /// rows a fix touched are re-encoded, re-keyed and re-dirtied), seeded
  /// with `changed`, and folds it into `rep` and the session stats.
  /// Returns the rows the last iteration changed. On failure the rows its
  /// applied iterations changed join pending_changed_.
  Result<std::unordered_set<RowId>> RunWindow(
      FixpointDetectFn detect, std::unordered_set<RowId> changed,
      StreamWindowReport* rep);

  /// Records one window's latency and publishes the stats.
  void EndWindow(double window_seconds);

  /// Detects rule `ri` inside its dirty blocks and clears its dirt: the
  /// prescreen-positive blocks, in ascending order of their first member
  /// position, run through the engine's blocked stage
  /// (columnar::IterateBlocks) as `stream:iterate|detect|genfix`, reading
  /// their member vectors in place — codes from code_cols_, matches written
  /// by the compiled GenFix at their table positions. That order is the
  /// order of the violations appended to `out`, and with it the repair's
  /// node ids. Adds the blocks' member count to `*candidates`.
  Status DetectDirtyBlocks(RuleIndex* ri, size_t* candidates,
                           ViolationBuffer* out);

  void PushStats(bool closing = false);

  ExecutionContext* parent_ctx_;
  Table* table_;
  std::vector<RulePtr> rules_;
  StreamOptions opts_;
  std::string name_;
  uint64_t directory_id_ = 0;
  bool closed_ = false;

  /// Session-owned execution context: its Metrics carry the session label,
  /// so /stages namespaces this session's stages away from other work.
  std::unique_ptr<ExecutionContext> session_ctx_;

  /// Row id -> position in table_->rows(); maintained across retraction
  /// (Table::FindRowById degrades to a linear scan once ids stop matching
  /// positions, so the session never uses it).
  std::unordered_map<RowId, size_t> row_pos_;
  RowId next_row_id_ = 0;

  /// Queued micro-batches (rows not yet in the table) and their ids.
  std::deque<std::vector<Row>> pending_;
  std::unordered_set<RowId> pending_ids_;

  /// One dictionary shared by the indexed slots of a pool group.
  struct PoolGroup {
    /// Equality groups append to it (ValuePool::Intern): a new value takes
    /// the next code and no code moves. Sorted groups keep it in value
    /// order.
    ValuePool pool{std::vector<Value>()};
    /// True when a bound kernel compares the group's codes by order
    /// (KernelTemplate::ordered_slots): LowerBound/UpperBound and code
    /// order must hold, so growth merges and remaps.
    bool sorted = false;
    /// Growths of a sorted group, each of which remapped its codes.
    uint64_t remaps = 0;
  };

  /// Indexed base columns (blocking + kernel slots; slot s indexes base
  /// column indexed_cols_[s]) and their shared-pool groups.
  std::vector<size_t> indexed_cols_;
  std::vector<size_t> col_group_;  // slot -> pool group
  std::vector<PoolGroup> groups_;
  /// One code column per indexed slot, aligned with table_->rows():
  /// code_cols_[s][pos] is the code of table row `pos` in slot s. Retract
  /// compacts them together with the rows; IndexRows extends them over
  /// appended rows.
  std::vector<std::vector<uint32_t>> code_cols_;

  std::vector<RuleIndex> indexes_;
  /// Block members summed over every rule index (stats().index_rows).
  size_t index_rows_ = 0;
  /// Rows appended/repaired since the last processed window (seeds the
  /// incremental fallback path for unindexed rules).
  std::unordered_set<RowId> pending_changed_;

  /// Freeze bookkeeping shared across all windows of the session (same
  /// oscillation-termination contract as Clean()).
  FreezeState freeze_;

  uint64_t window_seq_ = 0;
  StreamSessionStats stats_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_STREAM_SESSION_H_
