#include "tracer.h"

#include <chrono>
#include <cstdio>

#include "common/string_util.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Open(std::string name, std::string layer) {
  Span span;
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = open_.empty() ? jobs_++ : spans_[open_.back()].job;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_s = NowSeconds();
  span.end_s = span.start_s;
  span.child_cursor_s = span.start_s;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::Close(int span) {
  spans_[span].end_s = NowSeconds();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int Tracer::AddChild(int parent, std::string name, std::string layer,
                     double seconds) {
  Span span;
  span.parent = parent;
  span.job = spans_[parent].job;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_s = spans_[parent].child_cursor_s;
  span.end_s = span.start_s + seconds;
  span.child_cursor_s = span.start_s;
  spans_[parent].child_cursor_s = span.end_s;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::AddStages(const std::vector<bigdansing::StageReport>& stages,
                       int detect_parent, int repair_parent) {
  for (const auto& stage : stages) {
    const std::string cls = StageClass(stage.name);
    AddChild(cls == "repair_stage" ? repair_parent : detect_parent,
             stage.name, "dataflow." + cls + "_s", stage.wall_seconds);
  }
}

std::map<std::string, double> Tracer::SelfTimeByLayer(int job) const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.job == job && span.parent >= 0) {
      child_seconds[span.parent] += span.seconds();
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].job != job) continue;
    by_layer[spans_[i].layer] += spans_[i].seconds() - child_seconds[i];
  }
  return by_layer;
}

double Tracer::Total(int job, const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.job == job && span.name == name) total += span.seconds();
  }
  return total;
}

double Tracer::JobWall(int job) const {
  for (const Span& span : spans_) {
    if (span.job == job && span.parent < 0) return span.seconds();
  }
  return 0.0;
}

std::string Tracer::ToJson() const {
  std::string out = "{\"spans\":[";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"job\":%d,\"parent\":%d,\"start_s\":%.9f,"
                  "\"end_s\":%.9f,",
                  i, s.job, s.parent, s.start_s, s.end_s);
    out += buf;
    out += "\"name\":\"" + bigdansing::JsonEscape(s.name) + "\",\"layer\":\"" +
           bigdansing::JsonEscape(s.layer) + "\"}";
  }
  out += "]}\n";
  return out;
}

std::string StageClass(const std::string& name) {
  auto has = [&name](const char* part) {
    return name.find(part) != std::string::npos;
  };
  if (name.rfind("kernel:encode", 0) == 0) return "encode";
  if (name.rfind("groupByKey", 0) == 0) return "shuffle";
  if (name.rfind("repair:", 0) == 0) return "repair_stage";
  if (has("iterate") || name == "ocjoin:join" || has("ocjoin-pairs")) {
    return "enumerate";
  }
  if (has("sort")) return "sort";
  if (has("block")) return "block";
  return "other_stage";
}

}  // namespace perfbench
