#include "core/stream_session.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/hash.h"
#include "common/metrics_registry.h"
#include "common/stopwatch.h"
#include "core/columnar_detect.h"
#include "core/detect_output.h"
#include "core/rule_engine.h"
#include "dataflow/stage_executor.h"
#include "repair/connected_components.h"

namespace bigdansing {

namespace {

/// Default session names ("stream-N") when StreamOptions carries none.
std::atomic<uint64_t>& NameCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

}  // namespace

StreamSession::StreamSession(ExecutionContext* parent, Table* table,
                             std::vector<RulePtr> rules, StreamOptions options)
    : parent_ctx_(parent),
      table_(table),
      rules_(std::move(rules)),
      opts_(std::move(options)) {}

StreamSession::~StreamSession() { (void)Close(); }

Status StreamSession::Init() {
  if (table_ == nullptr) {
    return Status::InvalidArgument("OpenStream: table must not be null");
  }
  if (rules_.empty()) {
    return Status::InvalidArgument("OpenStream: no rules given");
  }
  if (opts_.batch_rows == 0 || opts_.max_inflight_batches == 0) {
    return Status::InvalidArgument(
        "OpenStream: batch_rows and max_inflight_batches must be positive");
  }
  name_ = opts_.session_name.empty()
              ? "stream-" + std::to_string(NameCounter().fetch_add(1) + 1)
              : opts_.session_name;

  // The session's own context: same logical cluster as the parent, but its
  // Metrics carry the session label so /stages attributes this session's
  // stages (and SimulatedWallSeconds isolates its cost for the benches).
  session_ctx_ = std::make_unique<ExecutionContext>(parent_ctx_->num_workers());
  session_ctx_->set_morsel_rows(parent_ctx_->morsel_rows());
  session_ctx_->set_kernels_enabled(parent_ctx_->kernels_enabled());
  session_ctx_->set_fault_policy(parent_ctx_->fault_policy());
  session_ctx_->metrics().set_label(name_);

  // Physical plans once per session: they give each blocked rule's index
  // its blocking layout and detect schema, and the window stage its
  // Iterate strategy and scope (the engine, which serves unblocked rules
  // and Flush's verification, builds its own). Indexed slots are interned
  // in rule order: each rule's blocking key columns, then its kernel slot
  // columns.
  std::unordered_map<size_t, size_t> col_slot;  // base col -> slot
  auto slot_of = [&](size_t detect_col, const PhysicalRulePlan& plan) {
    const size_t base = plan.scope_columns.empty()
                            ? detect_col
                            : plan.scope_columns[detect_col];
    auto [it, fresh] = col_slot.emplace(base, indexed_cols_.size());
    if (fresh) indexed_cols_.push_back(base);
    return it->second;
  };
  indexes_.reserve(rules_.size());
  for (const auto& rule : rules_) {
    auto plan = BuildPhysicalPlan(rule, table_->schema(), opts_.clean.planner);
    if (!plan.ok()) return plan.status();
    RuleIndex ri;
    ri.plan = std::move(*plan);
    const bool has_key =
        ri.plan.block_key_fn || !ri.plan.blocking_columns.empty();
    // Arity-1 rules never pair within blocks, and kSingle plans ignore
    // blocking — both take the engine's changed-rows path instead.
    ri.blocked = has_key && rule->arity() == 2 &&
                 ri.plan.strategy != IterateStrategy::kSingle;
    if (ri.blocked && !ri.plan.block_key_fn) {
      for (size_t c : ri.plan.blocking_columns) {
        ri.key_slots.push_back(slot_of(c, ri.plan));
      }
    }
    if (ri.blocked && !ri.plan.block_key_fn &&
        session_ctx_->kernels_enabled()) {
      ri.tmpl = KernelRegistry::Instance().Compile(*rule, ri.plan.detect_schema);
      if (ri.tmpl) {
        for (size_t c : ri.tmpl->columns()) {
          ri.kernel_slots.push_back(slot_of(c, ri.plan));
        }
        ri.writer = ri.tmpl->BindWriter(rule->name(), ri.plan.scope_columns);
      }
    }
    indexes_.push_back(std::move(ri));
  }

  // Pool-sharing groups (connected components over slots): kernels
  // comparing codes across two columns need those columns in one pool.
  std::vector<std::pair<uint64_t, uint64_t>> shared_slots;
  for (const auto& ri : indexes_) {
    if (!ri.tmpl) continue;
    for (const auto& group : ri.tmpl->shared_groups()) {
      for (size_t i = 1; i < group.size(); ++i) {
        shared_slots.emplace_back(slot_of(group[0], ri.plan),
                                  slot_of(group[i], ri.plan));
      }
    }
  }
  // A component's label is its smallest slot, so the ascending sweep meets
  // each component's label slot before its other members.
  const ComponentLabels component =
      UnionFindConnectedComponents(indexed_cols_.size(), shared_slots);
  col_group_.resize(indexed_cols_.size());
  code_cols_.resize(indexed_cols_.size());
  for (size_t s = 0; s < indexed_cols_.size(); ++s) {
    if (component[s] == s) {
      col_group_[s] = groups_.size();
      groups_.emplace_back();
    } else {
      col_group_[s] = col_group_[component[s]];
    }
  }
  // A group stays in value order only when some kernel compares its codes
  // by order; every other group's codes are compared for equality only.
  for (const auto& ri : indexes_) {
    if (!ri.tmpl) continue;
    for (uint16_t slot : ri.tmpl->ordered_slots()) {
      groups_[col_group_[ri.kernel_slots[slot]]].sorted = true;
    }
  }

  // Index the existing rows and mark their blocks dirty, so the first
  // processed window cleans the backlog (OpenStream + Flush ≈ Clean).
  std::vector<size_t> existing(table_->num_rows());
  for (size_t pos = 0; pos < table_->num_rows(); ++pos) {
    const Row& row = table_->row(pos);
    if (!row_pos_.emplace(row.id(), pos).second) {
      return Status::InvalidArgument(
          "OpenStream: duplicate row id " + std::to_string(row.id()));
    }
    next_row_id_ = std::max(next_row_id_, row.id() + 1);
    existing[pos] = pos;
    pending_changed_.insert(row.id());
  }
  IndexRows(existing);

  directory_id_ = StreamDirectory::Instance().Register(name_);
  stats_.id = directory_id_;
  stats_.name = name_;
  stats_.rules = rules_.size();
  PushStats();
  return Status::OK();
}

void StreamSession::EncodeRows(const std::vector<size_t>& positions) {
  std::vector<size_t> sizes(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    sizes[g] = groups_[g].pool.size();
  }
  // Cells of sorted groups whose value the pool lacks: (slot, position),
  // encoded once their group has grown.
  std::vector<std::pair<size_t, size_t>> unplaced;
  std::vector<std::vector<Value>> fresh(groups_.size());
  for (size_t pos : positions) {
    const Row& row = table_->row(pos);
    for (size_t s = 0; s < indexed_cols_.size(); ++s) {
      const Value& v = row.value(indexed_cols_[s]);
      PoolGroup& group = groups_[col_group_[s]];
      if (!group.sorted) {
        code_cols_[s][pos] = group.pool.Intern(v);
        continue;
      }
      const uint32_t code = group.pool.CodeOf(v);
      code_cols_[s][pos] = code;
      if (code == ValuePool::kAbsentCode) {
        fresh[col_group_[s]].push_back(v);
        unplaced.emplace_back(s, pos);
      }
    }
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (fresh[g].empty()) continue;
    std::vector<uint32_t> old_to_new;
    groups_[g].pool = GrowPool(groups_[g].pool, fresh[g], &old_to_new);
    ++groups_[g].remaps;
    // Monotone remap of this group's code columns (null and unplaced
    // codes stay).
    for (size_t s = 0; s < code_cols_.size(); ++s) {
      if (col_group_[s] != g) continue;
      for (uint32_t& c : code_cols_[s]) {
        if (c < old_to_new.size()) c = old_to_new[c];
      }
    }
  }
  for (const auto& [s, pos] : unplaced) {
    code_cols_[s][pos] = groups_[col_group_[s]].pool.CodeOf(
        table_->row(pos).value(indexed_cols_[s]));
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].pool.size() > sizes[g]) ++stats_.pool_growths;
  }
}

bool StreamSession::KeyOf(const RuleIndex& ri, size_t pos,
                          uint64_t* key) const {
  if (ri.plan.block_key_fn) {
    // UDF keys see the scoped row, exactly as the engine's blocking stage.
    Row storage;
    const Value v = ri.plan.block_key_fn(
        ri.plan.detect_schema,
        columnar::DetectRow(table_->row(pos), ri.plan.scope_columns,
                            &storage));
    if (v.is_null()) return false;
    *key = v.Hash();
    return true;
  }
  // Pool-hash path: hash(code) is the precomputed Value::Hash, so the key
  // is the engine's ComputeBlockKey rebuilt from dictionary codes.
  uint64_t h = 0x42D;
  for (size_t slot : ri.key_slots) {
    const uint32_t code = code_cols_[slot][pos];
    if (code == ValuePool::kNullCode) return false;
    h = StableHashUint64(h ^ groups_[col_group_[slot]].pool.hash(code));
  }
  *key = h;
  return true;
}

void StreamSession::JoinBlock(RuleIndex* ri, size_t pos, uint64_t key) {
  Block& block = *ri->blocks.try_emplace(key).first;
  std::vector<uint32_t>& members = block.second;
  const auto p = static_cast<uint32_t>(pos);
  members.insert(std::lower_bound(members.begin(), members.end(), p), p);
  ri->block_of[pos] = &block;
  ri->dirty.insert(key);
  ++index_rows_;
}

void StreamSession::LeaveBlock(RuleIndex* ri, size_t pos) {
  Block* block = ri->block_of[pos];
  if (block == nullptr) return;
  const uint64_t key = block->first;
  std::vector<uint32_t>& members = block->second;
  members.erase(std::lower_bound(members.begin(), members.end(),
                                 static_cast<uint32_t>(pos)));
  ri->block_of[pos] = nullptr;
  ri->dirty.insert(key);
  --index_rows_;
  if (members.empty()) ri->blocks.erase(key);
}

void StreamSession::IndexRows(const std::vector<size_t>& positions) {
  for (auto& col : code_cols_) {
    col.resize(table_->num_rows(), ValuePool::kNullCode);
  }
  for (auto& ri : indexes_) {
    if (ri.blocked) ri.block_of.resize(table_->num_rows(), nullptr);
  }
  EncodeRows(positions);
  for (size_t pos : positions) {
    for (auto& ri : indexes_) {
      if (!ri.blocked) continue;
      LeaveBlock(&ri, pos);
      uint64_t key = 0;
      if (KeyOf(ri, pos, &key)) JoinBlock(&ri, pos, key);
    }
  }
}

Status StreamSession::Append(std::vector<Row> rows) {
  if (closed_) return Status::InvalidArgument("stream session is closed");
  const size_t width = table_->schema().num_attributes();
  std::unordered_set<RowId> batch_ids;
  for (auto& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument(
          "Append: row width " + std::to_string(row.size()) +
          " does not match schema width " + std::to_string(width));
    }
    if (row.id() < 0) row.set_id(next_row_id_++);
    if (row_pos_.count(row.id()) > 0 || pending_ids_.count(row.id()) > 0 ||
        !batch_ids.insert(row.id()).second) {
      return Status::InvalidArgument("Append: duplicate row id " +
                                     std::to_string(row.id()));
    }
    next_row_id_ = std::max(next_row_id_, row.id() + 1);
  }

  const size_t new_batches =
      (rows.size() + opts_.batch_rows - 1) / opts_.batch_rows;
  if (!opts_.block_on_backpressure &&
      pending_.size() + new_batches > opts_.max_inflight_batches) {
    ++stats_.backpressure_rejections;
    MetricsRegistry::Instance()
        .GetCounter("stream.backpressure_rejections")
        .Add(1);
    PushStats();
    return Status::ResourceExhausted(
        "stream session " + name_ + ": in-flight window full (" +
        std::to_string(pending_.size()) + " batches queued, bound " +
        std::to_string(opts_.max_inflight_batches) + "); Poll() and retry");
  }

  for (size_t begin = 0; begin < rows.size(); begin += opts_.batch_rows) {
    const size_t end = std::min(begin + opts_.batch_rows, rows.size());
    std::vector<Row> batch(std::make_move_iterator(rows.begin() + begin),
                           std::make_move_iterator(rows.begin() + end));
    for (const auto& row : batch) pending_ids_.insert(row.id());
    stats_.appended_rows += batch.size();
    pending_.push_back(std::move(batch));
    ++stats_.batches_enqueued;
  }

  // Blocking backpressure: the appender's thread drains windows until the
  // queue fits the bound again.
  while (pending_.size() > opts_.max_inflight_batches) {
    ++stats_.backpressure_waits;
    MetricsRegistry::Instance().GetCounter("stream.backpressure_waits").Add(1);
    auto drained = ProcessWindow();
    if (!drained.ok()) return drained.status();
  }
  PushStats();
  return Status::OK();
}

Status StreamSession::AppendValues(std::vector<std::vector<Value>> rows) {
  std::vector<Row> out;
  out.reserve(rows.size());
  for (auto& values : rows) out.emplace_back(-1, std::move(values));
  return Append(std::move(out));
}

Status StreamSession::Retract(const std::vector<RowId>& row_ids) {
  if (closed_) return Status::InvalidArgument("stream session is closed");
  std::vector<size_t> positions;
  for (RowId id : row_ids) {
    if (pending_ids_.erase(id) > 0) {
      // Still queued: the row never reaches the table.
      for (auto& batch : pending_) {
        for (auto it = batch.begin(); it != batch.end(); ++it) {
          if (it->id() == id) {
            batch.erase(it);
            break;
          }
        }
      }
      ++stats_.retracted_rows;
      continue;
    }
    // Unknown, already retracted, or repeated within this call.
    auto pos = row_pos_.find(id);
    if (pos == row_pos_.end()) continue;
    for (auto& ri : indexes_) {
      if (ri.blocked) LeaveBlock(&ri, pos->second);
    }
    // A later row may reuse the id: it must start with no update counts
    // and no frozen cells (the oscillating count stays cumulative).
    for (size_t c = 0; c < table_->schema().num_attributes(); ++c) {
      freeze_.update_counts.erase(CellRef{id, c});
      freeze_.frozen.erase(CellRef{id, c});
    }
    pending_changed_.erase(id);
    positions.push_back(pos->second);
    row_pos_.erase(pos);
    ++stats_.retracted_rows;
  }
  if (!positions.empty()) {
    // One stable compaction pass from the first retracted position: the
    // survivors behind it slide down over the gaps together with their
    // codes and block handles, and only they get a new position. The move
    // keeps table order, so rewriting a survivor's entry in its block in
    // place keeps every block ascending.
    std::sort(positions.begin(), positions.end());
    auto& rows = table_->mutable_rows();
    auto gap = positions.begin();
    size_t write = *gap;
    for (size_t read = write; read < rows.size(); ++read) {
      if (gap != positions.end() && *gap == read) {
        ++gap;
        continue;
      }
      rows[write] = std::move(rows[read]);
      for (auto& col : code_cols_) col[write] = col[read];
      for (auto& ri : indexes_) {
        if (!ri.blocked) continue;
        Block* block = ri.block_of[read];
        ri.block_of[write] = block;
        if (block == nullptr) continue;
        std::vector<uint32_t>& members = block->second;
        *std::lower_bound(members.begin(), members.end(),
                          static_cast<uint32_t>(read)) =
            static_cast<uint32_t>(write);
      }
      row_pos_[rows[write].id()] = write;
      ++write;
    }
    rows.erase(rows.begin() + write, rows.end());
    for (auto& col : code_cols_) col.resize(write);
    for (auto& ri : indexes_) {
      if (ri.blocked) ri.block_of.resize(write);
    }
  }
  PushStats();
  return Status::OK();
}

bool StreamSession::HasWork() const {
  if (!pending_.empty() || !pending_changed_.empty()) return true;
  for (const auto& ri : indexes_) {
    if (!ri.dirty.empty()) return true;
  }
  return false;
}

uint64_t StreamSession::KernelRemaps(const RuleIndex& ri) const {
  uint64_t remaps = 0;
  for (size_t slot : ri.kernel_slots) {
    remaps += groups_[col_group_[slot]].remaps;
  }
  return remaps;
}

bool StreamSession::KernelStale(const RuleIndex& ri) const {
  if (KernelRemaps(ri) != ri.bound_remaps) return true;
  for (size_t i : ri.absent_constants) {
    const KernelTemplate::Constant& c = ri.tmpl->constants()[i];
    const ValuePool& pool = groups_[col_group_[ri.kernel_slots[c.slot]]].pool;
    if (pool.CodeOf(c.value) != ValuePool::kAbsentCode) return true;
  }
  return false;
}

void StreamSession::EnsureKernelBound(RuleIndex* ri) {
  if (!ri->tmpl) return;
  if (ri->kernel && !KernelStale(*ri)) return;
  std::vector<const ValuePool*> pools;
  pools.reserve(ri->kernel_slots.size());
  for (size_t slot : ri->kernel_slots) {
    pools.push_back(&groups_[col_group_[slot]].pool);
  }
  const bool rebind = ri->kernel != nullptr;
  ri->kernel = ri->tmpl->Bind(pools);
  ri->bound_remaps = KernelRemaps(*ri);
  ri->absent_constants.clear();
  const auto& constants = ri->tmpl->constants();
  for (size_t i = 0; i < constants.size(); ++i) {
    if (pools[constants[i].slot]->CodeOf(constants[i].value) ==
        ValuePool::kAbsentCode) {
      ri->absent_constants.push_back(i);
    }
  }
  if (rebind) {
    ++stats_.kernel_rebinds;
    MetricsRegistry::Instance().GetCounter("stream.kernel_rebinds").Add(1);
  }
}

bool StreamSession::BlockMayViolate(const RuleIndex& ri,
                                    const std::vector<const uint32_t*>& cols,
                                    const std::vector<uint32_t>& members,
                                    std::vector<CodeTuple>* tuples) const {
  if (!ri.kernel) return true;
  tuples->clear();
  for (uint32_t pos : members) tuples->push_back({cols.data(), pos});
  const CodeTuple* t = tuples->data();
  const size_t n = tuples->size();
  if (ri.plan.rule->IsSymmetric()) return ri.kernel->AnyMatchUpper(t, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (ri.kernel->Matches(t[i], t[j]) || ri.kernel->Matches(t[j], t[i])) {
        return true;
      }
    }
  }
  return false;
}

Status StreamSession::DetectDirtyBlocks(RuleIndex* ri, size_t* candidates,
                                        ViolationBuffer* out) {
  EnsureKernelBound(ri);
  // The kernel reads the kernel slots' codes in place (tuple row = table
  // position).
  std::vector<const uint32_t*> kernel_cols;
  kernel_cols.reserve(ri->kernel_slots.size());
  for (size_t slot : ri->kernel_slots) {
    kernel_cols.push_back(code_cols_[slot].data());
  }
  std::vector<CodeTuple> tuples;
  std::vector<const std::vector<uint32_t>*> blocks;
  for (uint64_t key : ri->dirty) {
    auto block = ri->blocks.find(key);
    if (block == ri->blocks.end() || block->second.size() < 2) continue;
    const std::vector<uint32_t>& members = block->second;
    if (!BlockMayViolate(*ri, kernel_cols, members, &tuples)) continue;
    *candidates += members.size();
    blocks.push_back(&members);
  }
  ri->dirty.clear();
  if (blocks.empty()) return Status::OK();
  // Blocks are disjoint and their members ascending, so ordering them by
  // first member makes the violation order follow table order.
  std::sort(blocks.begin(), blocks.end(),
            [](const std::vector<uint32_t>* a, const std::vector<uint32_t>* b) {
              return a->front() < b->front();
            });

  // Spread like the engine's blocked stage: whole blocks are the morsel
  // units of default_partitions() tasks (here contiguous runs of the
  // ordered blocks), and the tasks' outputs merge in task order.
  const PhysicalRulePlan& plan = ri->plan;
  const DetectKernel* kernel = ri->kernel.get();
  const ViolationWriter* writer = ri->writer.get();
  const size_t num_tasks =
      std::min(blocks.size(), session_ctx_->default_partitions());
  auto first_block = [&](size_t t) { return t * blocks.size() / num_tasks; };
  auto tasks = StageExecutor(ctx()).RunMorsels<detect::TaskOutput>(
      "stream:iterate|detect|genfix", num_tasks,
      [&](size_t t) { return first_block(t + 1) - first_block(t); },
      [&](size_t t, size_t begin, size_t end, TaskContext& tc) {
        detect::TaskOutput out;
        detect::BlockScratch scratch;
        for (size_t b = first_block(t) + begin; b < first_block(t) + end;
             ++b) {
          const std::vector<uint32_t>& members = *blocks[b];
          detect::IterateBlock(
              plan, members.size(),
              [&](size_t i, Row* storage) -> const Row& {
                return columnar::DetectRow(table_->row(members[i]),
                                           plan.scope_columns, storage);
              },
              &scratch, &out, kernel, writer, [&](size_t i) {
                return detect::KernelUnit{
                    CodeTuple{kernel_cols.data(), members[i]},
                    {&table_->row(members[i]), members[i]}};
              });
        }
        ctx()->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = end - begin;
        tc.records_out = out.violations.size();
        return out;
      },
      [](size_t, std::vector<detect::TaskOutput>&& pieces) {
        return detect::MergeTaskPieces(std::move(pieces));
      });
  if (!tasks.ok()) return tasks.status();
  DetectionResult counts;
  detect::MergeOutputs(&*tasks, out, &counts);
  return Status::OK();
}

Result<std::unordered_set<RowId>> StreamSession::RunWindow(
    FixpointDetectFn detect, std::unordered_set<RowId> changed,
    StreamWindowReport* rep) {
  std::optional<ScopedFaultPolicy> scoped_policy;
  if (opts_.clean.fault_policy.has_value()) {
    scoped_policy.emplace(ctx(), *opts_.clean.fault_policy);
  }
  FixpointSpec spec;
  spec.detect = std::move(detect);
  spec.find_row = [this](RowId id) -> Row* {
    auto pos = row_pos_.find(id);
    return pos == row_pos_.end() ? nullptr : &table_->mutable_row(pos->second);
  };
  // Repaired rows are re-indexed (their values may be new to the pools),
  // which re-dirties their blocks for the next iteration.
  std::unordered_set<RowId> repaired;
  spec.after_apply = [&](const std::unordered_set<RowId>& changed_rows) {
    std::vector<size_t> positions;
    positions.reserve(changed_rows.size());
    for (RowId id : changed_rows) {
      auto pos = row_pos_.find(id);
      if (pos != row_pos_.end()) positions.push_back(pos->second);
    }
    IndexRows(positions);
    repaired.insert(changed_rows.begin(), changed_rows.end());
  };
  spec.quality_session = name_;
  auto run = RunFixpoint(ctx(), opts_.clean, *table_, rules_.size(), spec,
                         &freeze_, std::move(changed));
  if (!run.ok()) {
    // Fixes already applied stay applied; the unblocked rules' next window
    // must still see the rows they changed (IndexRows re-dirtied their
    // blocks for the blocked rules).
    pending_changed_.insert(repaired.begin(), repaired.end());
    return run.status();
  }

  rep->iterations = run->iterations.size();
  rep->converged = run->converged;
  for (const auto& it : run->iterations) {
    rep->violations += it.violations;
    rep->applied_fixes += it.applied_fixes;
    rep->detect_seconds += it.detect_seconds;
    rep->repair_seconds += it.repair_seconds;
  }
  for (const auto& [rule, s] : run->by_rule) {
    stats_.unresolved_violations += s.unresolved;
  }
  stats_.violations_found += rep->violations;
  stats_.fixes_applied += rep->applied_fixes;
  stats_.total_detect_seconds += rep->detect_seconds;
  stats_.total_repair_seconds += rep->repair_seconds;
  if (rep->converged) ++stats_.windows_converged;
  return std::move(run->changed);
}

void StreamSession::EndWindow(double window_seconds) {
  stats_.last_window_seconds = window_seconds;
  stats_.max_window_seconds = std::max(stats_.max_window_seconds,
                                       window_seconds);
  PushStats();
}

Result<StreamWindowReport> StreamSession::ProcessWindow() {
  StreamWindowReport rep;
  rep.window_id = ++window_seq_;
  Stopwatch window_timer;

  // Land the oldest micro-batch: append, encode against the session pools,
  // join the violation index (marking the joined blocks dirty).
  if (!pending_.empty()) {
    std::vector<Row> batch = std::move(pending_.front());
    pending_.pop_front();
    ++stats_.batches_processed;
    rep.appended_rows = batch.size();
    std::vector<size_t> fresh;
    fresh.reserve(batch.size());
    for (auto& row : batch) {
      pending_ids_.erase(row.id());
      pending_changed_.insert(row.id());
      fresh.push_back(table_->num_rows());
      row_pos_[row.id()] = fresh.back();
      table_->AppendRowWithId(std::move(row));
    }
    IndexRows(fresh);
  }

  // Detect over only what this window touched: the dirty blocks of blocked
  // rules through the session's own stage, the engine's incremental
  // changed-rows path for the rest. Every dirty key taken is kept until the
  // window succeeds.
  std::vector<std::vector<uint64_t>> taken(indexes_.size());
  RuleEngine engine(ctx(), opts_.clean.planner);
  auto detect = [&](const std::unordered_set<RowId>& changed)
      -> Result<ViolationBuffer> {
    ViolationBuffer found(table_);
    for (size_t r = 0; r < rules_.size(); ++r) {
      RuleIndex& ri = indexes_[r];
      if (ri.blocked) {
        if (ri.dirty.empty()) continue;
        rep.dirty_blocks += ri.dirty.size();
        taken[r].insert(taken[r].end(), ri.dirty.begin(), ri.dirty.end());
        BIGDANSING_RETURN_NOT_OK(
            DetectDirtyBlocks(&ri, &rep.candidate_rows, &found));
        continue;
      }
      if (changed.empty()) continue;
      DetectRequest req;
      req.table = table_;
      req.rules = {rules_[r]};
      req.changed_rows = &changed;
      auto res = engine.DetectBuffered(req);
      if (!res.ok()) return res.status();
      found.Append(std::move(res->violations));
    }
    return found;
  };
  auto residual = RunWindow(detect, pending_changed_, &rep);
  if (!residual.ok()) {
    // pending_changed_ still holds the seed rows (RunWindow added the rows
    // it changed); the taken keys go back to their rules.
    for (size_t r = 0; r < indexes_.size(); ++r) {
      indexes_[r].dirty.insert(taken[r].begin(), taken[r].end());
    }
    return residual.status();
  }
  // Iteration cap: carry the residual rows into the next window so the
  // fix-point resumes instead of silently dropping them (the after-apply
  // hook already re-dirtied their blocks).
  pending_changed_.clear();
  if (!rep.converged) pending_changed_ = std::move(*residual);

  MetricsRegistry::Instance().GetCounter("stream.windows_processed").Add(1);
  EndWindow(window_timer.ElapsedSeconds());
  return rep;
}

Result<StreamWindowReport> StreamSession::Poll() {
  if (closed_) return Status::InvalidArgument("stream session is closed");
  if (!HasWork()) {
    StreamWindowReport rep;
    rep.converged = true;
    return rep;
  }
  return ProcessWindow();
}

Result<StreamWindowReport> StreamSession::VerifyWindow() {
  StreamWindowReport rep;
  rep.window_id = ++window_seq_;
  Stopwatch window_timer;
  // Full-table detection, the same pass Clean() runs, so a drained session
  // certifies convergence against every rule at once.
  RuleEngine engine(ctx(), opts_.clean.planner);
  DetectRequest req;
  req.table = table_;
  req.rules = rules_;
  auto detect = [&](const std::unordered_set<RowId>&)
      -> Result<ViolationBuffer> {
    rep.candidate_rows += table_->num_rows();
    auto detected = engine.DetectBuffered(req);
    if (!detected.ok()) return detected.status();
    return std::move(detected->violations);
  };
  auto residual = RunWindow(detect, {}, &rep);
  if (!residual.ok()) return residual.status();
  if (rep.converged) {
    // The whole table verified clean: no dirt can be pending.
    for (auto& ri : indexes_) ri.dirty.clear();
    pending_changed_.clear();
  }
  EndWindow(window_timer.ElapsedSeconds());
  return rep;
}

Result<StreamFlushReport> StreamSession::Flush() {
  if (closed_) return Status::InvalidArgument("stream session is closed");
  StreamFlushReport out;
  // Freeze bookkeeping bounds this drain exactly as it bounds Clean():
  // every non-converged window applies at least one real change, and
  // oscillating cells freeze after freeze_after_updates rounds.
  while (HasWork()) {
    auto rep = ProcessWindow();
    if (!rep.ok()) return rep.status();
    out.windows.push_back(std::move(*rep));
  }
  auto verify = VerifyWindow();
  if (!verify.ok()) return verify.status();
  out.converged = verify->converged;
  out.windows.push_back(std::move(*verify));
  for (const auto& w : out.windows) {
    out.total_violations += w.violations;
    out.total_applied_fixes += w.applied_fixes;
  }
  return out;
}

StreamSessionStats StreamSession::stats() const {
  StreamSessionStats s = stats_;
  s.rows = table_ != nullptr ? table_->num_rows() : 0;
  s.pending_batches = pending_.size();
  s.open = !closed_;
  size_t blocks = 0;
  for (const auto& ri : indexes_) blocks += ri.blocks.size();
  s.index_blocks = blocks;
  s.index_rows = index_rows_;
  size_t pool_values = 0;
  for (const auto& group : groups_) pool_values += group.pool.size();
  s.pool_values = pool_values;
  return s;
}

std::vector<std::pair<std::string, uint64_t>>
StreamSession::IndexFingerprints() const {
  // Stable over (sorted block key -> sorted member ids): identical content
  // must fingerprint identically whatever the append/retract history was.
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(indexes_.size());
  for (const auto& ri : indexes_) {
    std::vector<uint64_t> keys;
    keys.reserve(ri.blocks.size());
    for (const auto& [key, members] : ri.blocks) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    uint64_t h = 0x5EED;
    for (uint64_t key : keys) {
      h = StableHashUint64(h ^ key);
      std::vector<RowId> ids;
      for (uint32_t pos : ri.blocks.at(key)) {
        ids.push_back(table_->row(pos).id());
      }
      std::sort(ids.begin(), ids.end());
      for (RowId id : ids) {
        h = StableHashUint64(h ^ static_cast<uint64_t>(id));
      }
    }
    out.emplace_back(ri.plan.rule->name(), h);
  }
  return out;
}

void StreamSession::PushStats(bool closing) {
  StreamSessionStats s = stats();
  if (closing) s.open = false;
  StreamDirectory::Instance().Update(s);
}

Status StreamSession::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  PushStats(/*closing=*/true);
  StreamDirectory::Instance().Close(directory_id_);
  return Status::OK();
}

}  // namespace bigdansing
