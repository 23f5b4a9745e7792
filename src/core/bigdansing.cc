#include "core/bigdansing.h"

#include <cstdio>
#include <optional>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/fixpoint.h"
#include "core/stream_session.h"

namespace bigdansing {

std::string CleanReport::ToString() const {
  std::string out = "CleanReport: iterations=" +
                    std::to_string(iterations.size()) +
                    (converged ? " (converged)" : " (iteration cap)");
  for (size_t i = 0; i < iterations.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\n  iter %zu: violations=%zu fixes=%zu detect=%.3fs "
                  "repair=%.3fs",
                  i + 1, iterations[i].violations, iterations[i].applied_fixes,
                  iterations[i].detect_seconds, iterations[i].repair_seconds);
    out += buf;
  }
  return out;
}

size_t ApplyAssignments(
    Table* table, const std::vector<CellAssignment>& assignments,
    const std::unordered_set<CellRef, CellRefHash>* frozen) {
  size_t changed = 0;
  for (const auto& a : assignments) {
    if (frozen != nullptr && frozen->count(a.cell) > 0) continue;
    Row* row = table->FindMutableRowById(a.cell.row_id);
    if (row == nullptr || a.cell.column >= row->size()) continue;
    if (row->value(a.cell.column) != a.value) {
      row->set_value(a.cell.column, a.value);
      ++changed;
    }
  }
  return changed;
}

BigDansing::BigDansing(ExecutionContext* ctx, CleanOptions options)
    : ctx_(ctx), options_(std::move(options)) {}

Result<std::unique_ptr<StreamSession>> BigDansing::OpenStream(
    Table* table, const std::vector<RulePtr>& rules,
    StreamOptions options) const {
  // Not make_unique: the constructor is private to the BigDansing friend.
  std::unique_ptr<StreamSession> session(
      new StreamSession(ctx_, table, rules, std::move(options)));
  Status status = session->Init();
  if (!status.ok()) return status;
  return session;
}

Result<std::unique_ptr<StreamSession>> BigDansing::OpenStream(
    Table* table, const std::vector<RulePtr>& rules) const {
  StreamOptions options;
  options.clean = options_;
  return OpenStream(table, rules, std::move(options));
}

Result<CleanReport> BigDansing::Clean(Table* table,
                                      const std::vector<RulePtr>& rules) const {
  // Per-run fault policy: scoped so nested detect/repair stages all see it
  // and the context is restored when Clean returns.
  std::optional<ScopedFaultPolicy> scoped_policy;
  if (options_.fault_policy.has_value()) {
    scoped_policy.emplace(ctx_, *options_.fault_policy);
  }

  // The whole fix-point run is one job span; each iteration contributes a
  // detect and a repair phase span underneath it.
  std::optional<ScopedSpan> job_span;
  if (TraceRecorder::Instance().enabled()) {
    job_span.emplace("clean", "job");
    job_span->Annotate("rules", static_cast<uint64_t>(rules.size()));
    job_span->Annotate("max_iterations",
                       static_cast<uint64_t>(options_.max_iterations));
  }

  RuleEngine engine(ctx_, options_.planner);
  DetectRequest request;
  request.table = table;
  request.rules = rules;
  FixpointSpec spec;
  spec.detect = [&](const std::unordered_set<RowId>&)
      -> Result<ViolationBuffer> {
    auto detected = engine.DetectBuffered(request);
    if (!detected.ok()) return detected.status();
    return std::move(detected->violations);
  };
  spec.find_row = [table](RowId id) { return table->FindMutableRowById(id); };
  spec.profile_input = true;
  FreezeState freeze;
  auto run = RunFixpoint(ctx_, options_, *table, rules.size(), spec, &freeze);
  if (!run.ok()) return run.status();

  CleanReport report;
  report.iterations = std::move(run->iterations);
  report.converged = run->converged;
  size_t total_fixes = 0;
  size_t total_violations = 0;
  for (const auto& i : report.iterations) {
    report.total_detect_seconds += i.detect_seconds;
    report.total_repair_seconds += i.repair_seconds;
    total_fixes += i.applied_fixes;
    total_violations += i.violations;
  }
  size_t total_unresolved = 0;
  for (const auto& [rule, s] : run->by_rule) total_unresolved += s.unresolved;

  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("clean.iterations")
      .Add(static_cast<uint64_t>(report.iterations.size()));
  registry.GetCounter("clean.fixes_applied")
      .Add(static_cast<uint64_t>(total_fixes));
  registry.GetCounter("clean.violations_pooled")
      .Add(static_cast<uint64_t>(total_violations));
  registry.GetCounter("clean.unresolved_violations")
      .Add(static_cast<uint64_t>(total_unresolved));

  if (job_span) {
    job_span->Annotate("iterations",
                       static_cast<uint64_t>(report.iterations.size()));
    job_span->Annotate("converged",
                       std::string(report.converged ? "true" : "false"));
    // Fold the ledger rollup of this run into the EXPLAIN tree: one pair of
    // annotations per rule with at least one applied fix or survivor.
    for (const auto& [rule, s] : run->by_rule) {
      job_span->Annotate("lineage." + rule + ".fixes", s.applied_fixes);
      job_span->Annotate("lineage." + rule + ".unresolved", s.unresolved);
    }
  }
  return report;
}

}  // namespace bigdansing
