#include "obs/quality.h"

#include <set>
#include <string>

#include "common/json_writer.h"
#include "common/lineage.h"
#include "common/metrics_registry.h"
#include "common/string_util.h"

namespace bigdansing {

namespace {

/// Values render with their type (same scheme as the lineage ledger and the
/// column profiler); null renders as JSON null.
std::string ValueJson(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(v.as_int());
    case ValueType::kDouble:
      return JsonDouble(v.as_double());
    case ValueType::kString:
      return "\"" + JsonEscape(v.as_string()) + "\"";
  }
  return "null";
}

uint64_t SumNested(
    const std::map<std::string, std::map<std::string, uint64_t>>& m) {
  uint64_t total = 0;
  for (const auto& [rule, cols] : m) {
    for (const auto& [col, n] : cols) total += n;
  }
  return total;
}

void FoldNested(
    std::map<std::string, std::map<std::string, QualityCounts>>* into,
    const std::map<std::string, std::map<std::string, uint64_t>>& from,
    uint64_t QualityCounts::*field) {
  for (const auto& [rule, cols] : from) {
    for (const auto& [col, n] : cols) {
      (*into)[rule][col].*field += n;
    }
  }
}

}  // namespace

uint64_t QualityRunRecord::TotalViolations() const {
  uint64_t total = 0;
  for (const auto& [rule, cols] : by_rule_column) {
    for (const auto& [col, c] : cols) total += c.violations;
  }
  return total;
}

uint64_t QualityRunRecord::TotalFixes() const {
  uint64_t total = 0;
  for (const auto& [rule, cols] : by_rule_column) {
    for (const auto& [col, c] : cols) total += c.fixes;
  }
  return total;
}

uint64_t QualityRunRecord::TotalUnresolved() const {
  uint64_t total = 0;
  for (const auto& [rule, cols] : by_rule_column) {
    for (const auto& [col, c] : cols) total += c.unresolved;
  }
  return total;
}

QualityCounts QualityRunRecord::RuleTotals(const std::string& rule) const {
  QualityCounts out;
  auto it = by_rule_column.find(rule);
  if (it == by_rule_column.end()) return out;
  for (const auto& [col, c] : it->second) {
    out.violations += c.violations;
    out.fixes += c.fixes;
    out.unresolved += c.unresolved;
  }
  return out;
}

std::string QualityRunRecord::ToJson() const {
  std::string out = "{\"run_id\":" + std::to_string(run_id);
  out += ",\"session\":\"" + JsonEscape(session) + "\"";
  out += ",\"rules\":" + std::to_string(rules);
  out += ",\"rows\":" + std::to_string(rows);
  out += std::string(",\"in_progress\":") + (in_progress ? "true" : "false");
  out += std::string(",\"converged\":") + (converged ? "true" : "false");
  out += std::string(",\"oscillation\":") + (oscillation ? "true" : "false");
  out += ",\"iterations\":" + std::to_string(curve.size());
  out += ",\"violations\":" + std::to_string(TotalViolations());
  out += ",\"fixes\":" + std::to_string(TotalFixes());
  out += ",\"unresolved\":" + std::to_string(TotalUnresolved());
  out += ",\"curve\":[";
  for (size_t i = 0; i < curve.size(); ++i) {
    const QualityIterationPoint& p = curve[i];
    if (i > 0) out += ",";
    out += "{\"iteration\":" + std::to_string(p.iteration);
    out += ",\"violations\":" + std::to_string(p.violations);
    out += ",\"cells_changed\":" + std::to_string(p.cells_changed);
    out += ",\"unresolved\":" + std::to_string(p.unresolved);
    out += ",\"frozen_cells\":" + std::to_string(p.frozen_cells);
    out += ",\"oscillating_cells\":" + std::to_string(p.oscillating_cells);
    out += "}";
  }
  out += "],\"rules_breakdown\":[";
  bool first_rule = true;
  for (const auto& [rule, cols] : by_rule_column) {
    if (!first_rule) out += ",";
    first_rule = false;
    const QualityCounts totals = RuleTotals(rule);
    out += "{\"rule\":\"" + JsonEscape(rule) + "\"";
    out += ",\"violations\":" + std::to_string(totals.violations);
    out += ",\"fixes\":" + std::to_string(totals.fixes);
    out += ",\"unresolved\":" + std::to_string(totals.unresolved);
    out += ",\"columns\":[";
    bool first_col = true;
    for (const auto& [col, c] : cols) {
      if (!first_col) out += ",";
      first_col = false;
      out += "{\"column\":\"" + JsonEscape(col) + "\"";
      out += ",\"violations\":" + std::to_string(c.violations);
      out += ",\"fixes\":" + std::to_string(c.fixes);
      out += ",\"unresolved\":" + std::to_string(c.unresolved);
      out += "}";
    }
    out += "]}";
  }
  out += "],\"profile\":";
  out += has_profile ? profile.ToJson() : std::string("null");
  out += "}";
  return out;
}

std::string QualityDriftJson(const QualityRunRecord& before,
                             const QualityRunRecord& after) {
  const uint64_t vb = before.TotalViolations();
  const uint64_t va = after.TotalViolations();
  std::string out = "{\"before_run\":" + std::to_string(before.run_id);
  out += ",\"after_run\":" + std::to_string(after.run_id);
  auto delta_block = [](const char* key, uint64_t b, uint64_t a) {
    return std::string(",\"") + key + "\":{\"before\":" + std::to_string(b) +
           ",\"after\":" + std::to_string(a) + ",\"delta\":" +
           std::to_string(static_cast<int64_t>(a) - static_cast<int64_t>(b)) +
           "}";
  };
  out += delta_block("violations", vb, va);
  out += delta_block("fixes", before.TotalFixes(), after.TotalFixes());
  out += delta_block("unresolved", before.TotalUnresolved(),
                     after.TotalUnresolved());

  // Violation-mix shift: each rule's share of the run's violations, so a
  // rule that doubled while the table tripled still reads as improved.
  std::set<std::string> rules;
  for (const auto& [rule, cols] : before.by_rule_column) rules.insert(rule);
  for (const auto& [rule, cols] : after.by_rule_column) rules.insert(rule);
  out += ",\"rules\":[";
  bool first = true;
  for (const std::string& rule : rules) {
    const uint64_t b = before.RuleTotals(rule).violations;
    const uint64_t a = after.RuleTotals(rule).violations;
    const double share_b =
        vb == 0 ? 0.0 : static_cast<double>(b) / static_cast<double>(vb);
    const double share_a =
        va == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(va);
    if (!first) out += ",";
    first = false;
    out += "{\"rule\":\"" + JsonEscape(rule) + "\"";
    out += ",\"before\":" + std::to_string(b);
    out += ",\"after\":" + std::to_string(a);
    out += ",\"share_before\":" + JsonDouble(share_b);
    out += ",\"share_after\":" + JsonDouble(share_a);
    out += ",\"share_delta\":" + JsonDouble(share_a - share_b);
    out += "}";
  }
  out += "]";

  // Column-stat drift for columns profiled in both runs (matched by name).
  out += ",\"columns\":[";
  first = true;
  if (before.has_profile && after.has_profile) {
    for (const ColumnProfile& b : before.profile.columns) {
      const ColumnProfile* a = after.profile.Find(b.name);
      if (a == nullptr) continue;
      if (!first) out += ",";
      first = false;
      out += "{\"column\":\"" + JsonEscape(b.name) + "\"";
      out += ",\"null_rate_before\":" + JsonDouble(b.null_rate());
      out += ",\"null_rate_after\":" + JsonDouble(a->null_rate());
      out += ",\"null_rate_delta\":" + JsonDouble(a->null_rate() - b.null_rate());
      out += ",\"distinct_before\":" + std::to_string(b.distinct);
      out += ",\"distinct_after\":" + std::to_string(a->distinct);
      out += std::string(",\"min_changed\":") +
             (b.min == a->min ? "false" : "true");
      out += std::string(",\"max_changed\":") +
             (b.max == a->max ? "false" : "true");
      // Top-k membership churn: values that entered or left the frequent
      // set between the snapshots.
      auto in_top = [](const ColumnProfile& prof, const Value& v) {
        for (const TopValue& t : prof.top) {
          if (t.value == v) return true;
        }
        return false;
      };
      out += ",\"top_entered\":[";
      bool first_v = true;
      for (const TopValue& t : a->top) {
        if (in_top(b, t.value)) continue;
        if (!first_v) out += ",";
        first_v = false;
        out += ValueJson(t.value);
      }
      out += "],\"top_left\":[";
      first_v = true;
      for (const TopValue& t : b.top) {
        if (in_top(*a, t.value)) continue;
        if (!first_v) out += ",";
        first_v = false;
        out += ValueJson(t.value);
      }
      out += "]}";
    }
  }
  out += "]}";
  return out;
}

QualityRecorder& QualityRecorder::Instance() {
  static QualityRecorder* instance = new QualityRecorder();
  return *instance;
}

void QualityRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  runs_.clear();
  runs_begun_ = 0;
}

QualityRunRecord* QualityRecorder::FindLocked(uint64_t run_id) {
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if (it->run_id == run_id) return &*it;
  }
  return nullptr;
}

uint64_t QualityRecorder::BeginRun(uint64_t rules, uint64_t rows,
                                   std::string session) {
  if (!enabled()) return 0;
  MetricsRegistry::Instance().GetCounter("quality.runs").Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  QualityRunRecord rec;
  rec.run_id = next_run_id_++;
  rec.session = std::move(session);
  rec.rules = rules;
  rec.rows = rows;
  ++runs_begun_;
  if (runs_.size() >= kMaxRetainedRuns) runs_.erase(runs_.begin());
  runs_.push_back(std::move(rec));
  return runs_.back().run_id;
}

void QualityRecorder::RecordProfile(uint64_t run_id, TableProfile profile) {
  if (!enabled() || run_id == 0) return;
  MetricsRegistry::Instance().GetCounter("quality.profiles").Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  QualityRunRecord* rec = FindLocked(run_id);
  if (rec == nullptr) return;
  rec->profile = std::move(profile);
  rec->has_profile = true;
}

void QualityRecorder::RecordIteration(uint64_t run_id,
                                      const QualityIterationSample& sample) {
  if (!enabled() || run_id == 0) return;
  const uint64_t violations = SumNested(sample.violations);
  const uint64_t fixes = SumNested(sample.fixes);
  const uint64_t unresolved = SumNested(sample.unresolved);
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("quality.violations").Add(violations);
  registry.GetCounter("quality.fixes").Add(fixes);
  registry.GetCounter("quality.unresolved").Add(unresolved);
  std::lock_guard<std::mutex> lock(mu_);
  QualityRunRecord* rec = FindLocked(run_id);
  if (rec == nullptr) return;
  QualityIterationPoint point;
  point.iteration = sample.iteration;
  point.violations = violations;
  point.cells_changed = fixes;
  point.unresolved = unresolved;
  point.frozen_cells = sample.frozen_cells;
  point.oscillating_cells = sample.oscillating_cells;
  rec->curve.push_back(point);
  FoldNested(&rec->by_rule_column, sample.violations,
             &QualityCounts::violations);
  FoldNested(&rec->by_rule_column, sample.fixes, &QualityCounts::fixes);
  FoldNested(&rec->by_rule_column, sample.unresolved,
             &QualityCounts::unresolved);
  if (sample.oscillating_cells > 0) rec->oscillation = true;
}

void QualityRecorder::EndRun(uint64_t run_id, bool converged) {
  if (run_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  QualityRunRecord* rec = FindLocked(run_id);
  if (rec == nullptr) return;
  rec->in_progress = false;
  rec->converged = converged;
}

uint64_t QualityRecorder::RunsBegun() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_begun_;
}

std::vector<QualityRunRecord> QualityRecorder::Runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

bool QualityRecorder::LatestRun(QualityRunRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (runs_.empty()) return false;
  *out = runs_.back();
  return true;
}

std::string QualityRecorder::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out =
      std::string("{\"enabled\":") + (enabled() ? "true" : "false");
  out += ",\"runs_begun\":" + std::to_string(runs_begun_);
  out += ",\"runs_retained\":" + std::to_string(runs_.size());
  out += ",\"runs\":[";
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (i > 0) out += ",";
    out += runs_[i].ToJson();
  }
  out += "],\"drift\":";
  // Drift diffs the two most recent *completed* runs, so a scrape during a
  // Clean() never compares against a half-folded record.
  const QualityRunRecord* after = nullptr;
  const QualityRunRecord* before = nullptr;
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if (it->in_progress) continue;
    if (after == nullptr) {
      after = &*it;
    } else {
      before = &*it;
      break;
    }
  }
  out += (before != nullptr && after != nullptr)
             ? QualityDriftJson(*before, *after)
             : std::string("null");
  out += "}";
  return out;
}

std::string QualityRecorder::LatestProfileJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if (!it->has_profile) continue;
    std::string out = "{\"has_profile\":true";
    out += ",\"run_id\":" + std::to_string(it->run_id);
    out += ",\"profile\":" + it->profile.ToJson();
    out += "}";
    return out;
  }
  return "{\"has_profile\":false,\"run_id\":0,\"profile\":null}";
}

std::string QualityRecorder::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const QualityRunRecord& rec : runs_) {
    if (rec.in_progress) continue;
    out += rec.ToJson();
    out += "\n";
  }
  return out;
}

bool ProvenanceTrackingEnabled() {
  return LineageRecorder::Instance().enabled() ||
         QualityRecorder::Instance().enabled();
}

}  // namespace bigdansing
