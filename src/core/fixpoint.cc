#include "core/fixpoint.h"

#include <algorithm>
#include <optional>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "data/profile.h"
#include "obs/quality.h"
#include "repair/strategy.h"

namespace bigdansing {

namespace {

std::string ColumnName(const Schema& schema, size_t column) {
  return column < schema.num_attributes() ? schema.attribute(column)
                                          : std::string();
}

/// Column of violation v's first fix's left cell (pooled violations have
/// at least one fix).
size_t FirstFixColumn(const ViolationBuffer& violations, size_t v) {
  return violations.cells(v)[violations.fixes(v).front().left].column;
}

/// Applies one repair pass through `find_row`, skipping frozen cells and
/// writes that change nothing; returns the cells actually changed. While
/// `by_rule` is set (the ledger or the quality recorder is on), it also
/// attributes: a lineage entry per changed cell (when `lineage_on`), fixes
/// per rule and column, and every pooled violation no applied fix resolved
/// as unresolved. A violation attributes to the column of its first
/// candidate fix, so the per-rule sums reconcile exactly with the ledger.
size_t ApplyPass(const RepairPassResult& pass, const ViolationBuffer& pooled,
                 const std::function<Row*(RowId)>& find_row,
                 const FreezeState& freeze, const Schema& schema,
                 size_t iteration, bool lineage_on,
                 QualityIterationSample* sample,
                 std::map<std::string, LineageSummary>* by_rule) {
  LineageRecorder& lineage = LineageRecorder::Instance();
  std::unordered_set<uint64_t> resolved;
  size_t changed = 0;
  for (size_t i = 0; i < pass.applied.size(); ++i) {
    const CellAssignment& a = pass.applied[i];
    if (freeze.frozen.count(a.cell) > 0) continue;
    Row* row = find_row(a.cell.row_id);
    if (row == nullptr || a.cell.column >= row->size()) continue;
    if (row->value(a.cell.column) == a.value) continue;
    if (by_rule != nullptr) {
      // Provenance is shorter than the assignments when lineage was
      // toggled mid-run; those fixes attribute to no rule.
      const FixProvenance* p =
          i < pass.provenance.size() ? &pass.provenance[i] : nullptr;
      const std::string rule = p != nullptr ? p->rule : std::string();
      if (p != nullptr) resolved.insert(p->violation_id);
      ++(*by_rule)[rule].applied_fixes;
      if (sample != nullptr) {
        ++sample->fixes[rule][ColumnName(schema, a.cell.column)];
      }
      if (lineage_on) {
        LineageEntry entry;
        entry.row_id = a.cell.row_id;
        entry.column = a.cell.column;
        entry.attribute = ColumnName(schema, a.cell.column);
        entry.old_value = row->value(a.cell.column);
        entry.new_value = a.value;
        entry.iteration = iteration;
        if (p != nullptr) {
          entry.rule = p->rule;
          entry.violation_id = p->violation_id;
          entry.strategy = p->strategy;
          entry.component = p->component;
        }
        lineage.RecordFix(std::move(entry));
      }
    }
    row->set_value(a.cell.column, a.value);
    ++changed;
  }
  if (by_rule == nullptr) return changed;
  // Every pooled violation with no applied fix this iteration survives into
  // the next detect pass (or the end of the run) unresolved.
  for (uint64_t vid = 0; vid < pooled.size(); ++vid) {
    if (resolved.count(vid) > 0) continue;
    const std::string& rule = pooled.rule_name(vid);
    if (lineage_on) lineage.RecordUnresolved(rule, vid, iteration);
    ++(*by_rule)[rule].unresolved;
    if (sample != nullptr) {
      ++sample->unresolved[rule]
                          [ColumnName(schema, FirstFixColumn(pooled, vid))];
    }
  }
  return changed;
}

/// Closes the quality run on every exit path, so a scrape never sees a run
/// stuck in_progress after its call returned.
struct QualityRunCloser {
  uint64_t run_id = 0;
  const bool* converged = nullptr;
  ~QualityRunCloser() {
    if (run_id != 0) QualityRecorder::Instance().EndRun(run_id, *converged);
  }
};

}  // namespace

Result<FixpointResult> RunFixpoint(ExecutionContext* ctx,
                                   const CleanOptions& options,
                                   const Table& table, size_t num_rules,
                                   const FixpointSpec& spec,
                                   FreezeState* freeze,
                                   std::unordered_set<RowId> changed) {
  FixpointResult result;
  const RepairStrategy& strategy = RepairStrategyFor(options.repair_mode);
  TraceRecorder& trace = TraceRecorder::Instance();
  const Schema& schema = table.schema();
  QualityRecorder& quality = QualityRecorder::Instance();
  const bool quality_on = quality.enabled();
  const QualityRunCloser run{
      quality_on ? quality.BeginRun(num_rules, table.num_rows(),
                                    spec.quality_session)
                 : 0,
      &result.converged};
  // Defensive boundary: detection and repair already map StageError to
  // Status, but a stage failure escaping any other path must still surface
  // as a Status here, never as a crash.
  try {
    if (quality_on && spec.profile_input) {
      quality.RecordProfile(run.run_id, ProfileTable(ctx, table));
    }
    for (size_t iter = 1; iter <= options.max_iterations; ++iter) {
      IterationReport it;
      QualityIterationSample sample;
      sample.iteration = iter;

      Stopwatch detect_timer;
      std::optional<ScopedSpan> span;
      if (trace.enabled()) {
        span.emplace("detect:iter" + std::to_string(iter), "phase");
      }
      auto detected = spec.detect(changed);
      if (!detected.ok()) return detected.status();
      it.detect_seconds = detect_timer.ElapsedSeconds();
      span.reset();

      // Pool all rules' violations in place; drop violations whose fixes
      // only touch frozen cells ("violations with no possible fixes"
      // terminate the loop, §2.1).
      ViolationBuffer& pooled = *detected;
      std::vector<char> keep(pooled.size());
      size_t kept = 0;
      for (size_t v = 0; v < pooled.size(); ++v) {
        const std::span<const BufferCell> cells = pooled.cells(v);
        const std::span<const BufferFix> fixes = pooled.fixes(v);
        keep[v] = std::any_of(fixes.begin(), fixes.end(),
                              [&](const BufferFix& f) {
                                return freeze->frozen.empty() ||
                                       freeze->frozen.count(
                                           cells[f.left].ref()) == 0;
                              });
        kept += keep[v];
      }
      if (kept < pooled.size()) pooled.Retain(keep);
      if (quality_on) {
        for (size_t v = 0; v < pooled.size(); ++v) {
          ++sample.violations[pooled.rule_name(v)]
                             [ColumnName(schema, FirstFixColumn(pooled, v))];
        }
      }
      it.violations = pooled.size();

      bool done = pooled.empty();
      if (!done) {
        Stopwatch repair_timer;
        if (trace.enabled()) {
          span.emplace("repair:iter" + std::to_string(iter), "phase");
          span->Annotate("violations", static_cast<uint64_t>(pooled.size()));
        }
        const bool lineage_on = LineageRecorder::Instance().enabled();
        auto pass = strategy.Repair(ctx, pooled, options.repair);
        if (!pass.ok()) return pass.status();
        it.applied_fixes = ApplyPass(
            *pass, pooled, spec.find_row, *freeze, schema, iter, lineage_on,
            quality_on ? &sample : nullptr,
            lineage_on || quality_on ? &result.by_rule : nullptr);
        it.repair_seconds = repair_timer.ElapsedSeconds();
        if (span) {
          span->Annotate("applied_fixes",
                         static_cast<uint64_t>(it.applied_fixes));
          span.reset();
        }
        // Nothing applicable: the remaining violations have no possible
        // fixes, so another iteration would find them again.
        done = it.applied_fixes == 0;
        if (!done) {
          changed.clear();
          for (const auto& a : pass->applied) {
            changed.insert(a.cell.row_id);
            size_t& count = freeze->update_counts[a.cell];
            if (++count == 2) ++freeze->oscillating;
            if (count >= options.freeze_after_updates) {
              freeze->frozen.insert(a.cell);
            }
          }
          if (spec.after_apply) spec.after_apply(changed);
        }
      }
      result.iterations.push_back(it);
      if (quality_on) {
        // Sampled after the freeze bookkeeping so the curve point reflects
        // the state the next iteration starts from.
        sample.frozen_cells = freeze->frozen.size();
        sample.oscillating_cells = freeze->oscillating;
        quality.RecordIteration(run.run_id, sample);
      }
      if (done) {
        result.converged = true;
        break;
      }
    }
  } catch (const StageError& e) {
    return e.status();
  }
  result.changed = std::move(changed);
  return result;
}

}  // namespace bigdansing
