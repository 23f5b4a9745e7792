#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <unordered_map>

#include "common/string_util.h"

namespace bigdansing {

namespace {

/// Per-thread stack of open ScopedSpans (ids). One process-wide recorder,
/// so one stack per thread suffices.
thread_local std::vector<uint64_t> t_scope_stack;

double SteadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// Microseconds with sub-microsecond precision for Chrome "ts"/"dur".
std::string FormatUs(double us) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_seconds_(SteadyNowSeconds()) {}

TraceRecorder& TraceRecorder::Instance() {
  static TraceRecorder* recorder = new TraceRecorder();  // Leaked: safe at exit.
  return *recorder;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  base_id_ = next_id_;
  epoch_seconds_ = SteadyNowSeconds();
}

double TraceRecorder::NowUs() const {
  return (SteadyNowSeconds() - epoch_seconds_) * 1e6;
}

TraceSpan* TraceRecorder::FindLocked(uint64_t id) {
  if (id <= base_id_ || id > next_id_) return nullptr;
  return &spans_[id - base_id_ - 1];
}

uint64_t TraceRecorder::Begin(const std::string& name,
                              const std::string& category, uint64_t parent,
                              int64_t lane) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span;
  span.id = ++next_id_;
  span.parent = parent;
  span.name = name;
  span.category = category;
  span.start_us = NowUs();
  span.lane = lane;
  spans_.push_back(std::move(span));
  return next_id_;
}

void TraceRecorder::End(uint64_t id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan* span = FindLocked(id);
  if (span == nullptr || !span->open) return;
  span->duration_us = NowUs() - span->start_us;
  span->open = false;
}

void TraceRecorder::Annotate(uint64_t id, const std::string& key,
                             std::string value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan* span = FindLocked(id);
  if (span == nullptr) return;
  span->args.emplace_back(key, std::move(value));
}

void TraceRecorder::Annotate(uint64_t id, const std::string& key,
                             uint64_t value) {
  Annotate(id, key, std::to_string(value));
}

void TraceRecorder::Annotate(uint64_t id, const std::string& key,
                             double value) {
  Annotate(id, key, FormatDouble(value));
}

uint64_t TraceRecorder::CurrentSpan() const {
  return t_scope_stack.empty() ? 0 : t_scope_stack.back();
}

void TraceRecorder::PushScope(uint64_t id) { t_scope_stack.push_back(id); }

void TraceRecorder::PopScope() {
  if (!t_scope_stack.empty()) t_scope_stack.pop_back();
}

std::vector<TraceSpan> TraceRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t TraceRecorder::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string TraceRecorder::ToChromeTraceJson() const {
  std::vector<TraceSpan> spans = Spans();
  const double now_us = NowUs();

  // Lane -> Chrome tid. Driver spans (lane -1) share tid 0; worker lane L
  // maps to tid L+1, so tasks lay out per logical-worker lane.
  std::map<int64_t, int64_t> tids;
  tids[-1] = 0;
  for (const TraceSpan& s : spans) {
    if (s.lane >= 0) tids[s.lane] = s.lane + 1;
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += event;
  };
  for (const auto& [lane, tid] : tids) {
    std::string name = lane < 0 ? "driver" : "worker-" + std::to_string(lane);
    append("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + name + "\"}}");
  }
  for (const TraceSpan& s : spans) {
    const double dur = s.open ? now_us - s.start_us : s.duration_us;
    std::string event = "{\"name\":\"" + JsonEscape(s.name) + "\"";
    event += ",\"cat\":\"" + JsonEscape(s.category) + "\"";
    event += ",\"ph\":\"X\"";
    event += ",\"ts\":" + FormatUs(s.start_us);
    event += ",\"dur\":" + FormatUs(dur < 0.0 ? 0.0 : dur);
    event += ",\"pid\":1";
    event += ",\"tid\":" + std::to_string(tids[s.lane < 0 ? -1 : s.lane]);
    event += ",\"args\":{\"span_id\":\"" + std::to_string(s.id) + "\"";
    event += ",\"parent\":\"" + std::to_string(s.parent) + "\"";
    if (s.open) event += ",\"open\":\"true\"";
    for (const auto& [key, value] : s.args) {
      event += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
    }
    event += "}}";
    append(event);
  }
  out += "]}";
  return out;
}

std::string TraceRecorder::ExplainTree() const {
  std::vector<TraceSpan> spans = Spans();
  const double now_us = NowUs();

  // Index by id; resolve each span's effective parent: the nearest
  // ancestor that is neither a task nor a morsel (spans opened inside a
  // task or morsel body re-attach to the work unit's stage-or-above
  // ancestor). Tasks and morsels themselves are folded into their stage
  // line — EXPLAIN summarizes per stage, the Chrome trace keeps the units.
  auto is_work_unit = [](const TraceSpan& s) {
    return s.category == "task" || s.category == "morsel";
  };
  std::unordered_map<uint64_t, const TraceSpan*> by_id;
  for (const TraceSpan& s : spans) by_id[s.id] = &s;
  auto effective_parent = [&](const TraceSpan& s) -> uint64_t {
    uint64_t p = s.parent;
    while (p != 0) {
      auto it = by_id.find(p);
      if (it == by_id.end()) return 0;  // Parent cleared: promote to root.
      if (!is_work_unit(*it->second)) return p;
      p = it->second->parent;
    }
    return 0;
  };

  std::unordered_map<uint64_t, std::vector<const TraceSpan*>> children;
  std::vector<const TraceSpan*> roots;
  for (const TraceSpan& s : spans) {
    if (is_work_unit(s)) continue;
    uint64_t parent = effective_parent(s);
    if (parent == 0) {
      roots.push_back(&s);
    } else {
      children[parent].push_back(&s);
    }
  }
  // Begin order == id order already, but make the invariant explicit.
  auto by_start = [](const TraceSpan* a, const TraceSpan* b) {
    return a->id < b->id;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children) std::sort(kids.begin(), kids.end(), by_start);

  std::string out = "EXPLAIN (runtime)\n";
  std::function<void(const TraceSpan&, const std::string&, bool)> render =
      [&](const TraceSpan& s, const std::string& prefix, bool last) {
        const double dur_us = s.open ? now_us - s.start_us : s.duration_us;
        out += prefix + (last ? "└─ " : "├─ ");
        out += "[" + s.category + "] " + s.name;
        out += "  wall=" + FormatDouble(dur_us / 1e6) + "s";
        if (s.open) out += " (open)";
        for (const auto& [key, value] : s.args) {
          out += " " + key + "=" + value;
        }
        out += "\n";
        const std::string child_prefix = prefix + (last ? "   " : "│  ");
        auto it = children.find(s.id);
        if (it == children.end()) return;
        for (size_t i = 0; i < it->second.size(); ++i) {
          render(*it->second[i], child_prefix, i + 1 == it->second.size());
        }
      };
  for (size_t i = 0; i < roots.size(); ++i) {
    render(*roots[i], "", i + 1 == roots.size());
  }
  return out;
}

ScopedSpan::ScopedSpan(const std::string& name, const std::string& category)
    : recorder_(&TraceRecorder::Instance()) {
  id_ = recorder_->Begin(name, category, recorder_->CurrentSpan());
  if (id_ != 0) recorder_->PushScope(id_);
}

ScopedSpan::ScopedSpan(const std::string& name, const std::string& category,
                       uint64_t parent, int64_t lane)
    : recorder_(&TraceRecorder::Instance()) {
  id_ = recorder_->Begin(name, category, parent, lane);
  if (id_ != 0) recorder_->PushScope(id_);
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  recorder_->PopScope();
  recorder_->End(id_);
}

void ScopedSpan::Annotate(const std::string& key, std::string value) {
  if (id_ != 0) recorder_->Annotate(id_, key, std::move(value));
}

void ScopedSpan::Annotate(const std::string& key, uint64_t value) {
  if (id_ != 0) recorder_->Annotate(id_, key, value);
}

void ScopedSpan::Annotate(const std::string& key, double value) {
  if (id_ != 0) recorder_->Annotate(id_, key, value);
}

}  // namespace bigdansing
