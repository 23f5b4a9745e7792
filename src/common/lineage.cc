#include "common/lineage.h"

#include "common/json_writer.h"

namespace bigdansing {

namespace {

/// Values render with their type so int 1 and string "1" stay
/// distinguishable in the ledger ("" for null matches Value::ToString).
void AddValue(JsonObjectBuilder* obj, std::string_view key, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      obj->AddRaw(key, "null");
      return;
    case ValueType::kInt:
      obj->Add(key, static_cast<int64_t>(v.as_int()));
      return;
    case ValueType::kDouble:
      obj->Add(key, v.as_double());
      return;
    case ValueType::kString:
      obj->Add(key, v.as_string());
      return;
  }
}

}  // namespace

std::string LineageEntry::ToJson() const {
  JsonObjectBuilder obj;
  obj.Add("kind", applied ? "fix" : "unresolved");
  obj.Add("rule", rule);
  obj.Add("violation_id", violation_id);
  obj.Add("iteration", static_cast<uint64_t>(iteration));
  if (applied) {
    obj.Add("row_id", static_cast<int64_t>(row_id));
    obj.Add("column", static_cast<uint64_t>(column));
    obj.Add("attribute", attribute);
    AddValue(&obj, "old_value", old_value);
    AddValue(&obj, "new_value", new_value);
    obj.Add("strategy", strategy);
    obj.Add("component", component);
  }
  return obj.Build();
}

LineageRecorder& LineageRecorder::Instance() {
  static LineageRecorder* instance = new LineageRecorder();
  return *instance;
}

void LineageRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

void LineageRecorder::RecordFix(LineageEntry entry) {
  if (!enabled()) return;
  entry.applied = true;
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
}

void LineageRecorder::RecordUnresolved(std::string rule, uint64_t violation_id,
                                       size_t iteration) {
  if (!enabled()) return;
  LineageEntry entry;
  entry.applied = false;
  entry.rule = std::move(rule);
  entry.violation_id = violation_id;
  entry.iteration = iteration;
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
}

size_t LineageRecorder::EntryCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<LineageEntry> LineageRecorder::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

std::map<std::string, LineageSummary> LineageRecorder::SummaryByRule() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LineageSummary> out;
  for (const auto& e : entries_) {
    LineageSummary& s = out[e.rule];
    if (e.applied) {
      ++s.applied_fixes;
    } else {
      ++s.unresolved;
    }
  }
  return out;
}

std::map<size_t, LineageSummary> LineageRecorder::SummaryByIteration() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<size_t, LineageSummary> out;
  for (const auto& e : entries_) {
    LineageSummary& s = out[e.iteration];
    if (e.applied) {
      ++s.applied_fixes;
    } else {
      ++s.unresolved;
    }
  }
  return out;
}

std::string LineageRecorder::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& e : entries_) {
    out += e.ToJson();
    out += "\n";
  }
  return out;
}

}  // namespace bigdansing
