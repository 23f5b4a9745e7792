#include "common/fault.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/string_util.h"

namespace bigdansing {

namespace {

// Strict numeric field parsers: the whole value must be consumed, so
// "zebra" or "0.5x" are rejected instead of silently parsing as 0.
bool ParseDoubleField(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseUintField(const std::string& value, uint64_t* out) {
  if (value.empty() || value[0] == '-') return false;
  char* end = nullptr;
  const uint64_t v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

void SleepForMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

FaultPolicy FaultPolicy::FromEnv() {
  FaultPolicy policy;
  const char* env = std::getenv("BD_SPECULATION");
  if (env != nullptr && *env != '\0' && std::string(env) != "0") {
    policy.speculation = true;
    const double k = std::atof(env);
    if (k > 1.0) policy.speculation_multiplier = k;
  }
  return policy;
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* instance = [] {
    auto* injector = new FaultInjector();
    std::lock_guard<std::mutex> lock(injector->mutex_);
    injector->LoadFromEnvLocked();
    return injector;
  }();
  return *instance;
}

void FaultInjector::LoadFromEnvLocked() {
  if (env_loaded_) return;
  env_loaded_ = true;
  const char* seed_env = std::getenv("BD_FAULT_SEED");
  if (seed_env != nullptr && *seed_env != '\0') {
    seed_ = std::strtoull(seed_env, nullptr, 10);
  }
  const char* spec_env = std::getenv("BD_FAULT_SPEC");
  if (spec_env == nullptr || *spec_env == '\0') return;
  std::vector<Spec> specs;
  Status st = ParseSpec(spec_env, &specs);
  if (!st.ok()) {
    BD_LOG(Warning) << "ignoring malformed BD_FAULT_SPEC: " << st.ToString();
    return;
  }
  specs_ = std::move(specs);
  enabled_.store(!specs_.empty(), std::memory_order_release);
  if (!specs_.empty()) {
    BD_LOG(Info) << "fault injection armed: " << specs_.size()
                 << " spec(s), seed=" << seed_;
  }
}

Status FaultInjector::Configure(const std::string& spec, uint64_t seed) {
  std::vector<Spec> specs;
  if (!spec.empty()) {
    BIGDANSING_RETURN_NOT_OK(ParseSpec(spec, &specs));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  env_loaded_ = true;  // an explicit Configure overrides the env schedule
  seed_ = seed;
  specs_ = std::move(specs);
  injected_total_.store(0, std::memory_order_relaxed);
  enabled_.store(!specs_.empty(), std::memory_order_release);
  return Status::OK();
}

void FaultInjector::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  env_loaded_ = true;
  specs_.clear();
  injected_total_.store(0, std::memory_order_relaxed);
  enabled_.store(false, std::memory_order_release);
}

std::vector<std::string> FaultInjector::SeenSites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {seen_sites_.begin(), seen_sites_.end()};
}

void FaultInjector::ClearSeenSites() {
  std::lock_guard<std::mutex> lock(mutex_);
  seen_sites_.clear();
}

Status FaultInjector::ParseSpec(const std::string& text,
                                std::vector<Spec>* out) {
  for (const std::string& clause : Split(text, ';')) {
    if (clause.empty()) continue;
    Spec spec;
    bool has_site = false;
    for (const std::string& field : Split(clause, ',')) {
      if (field.empty()) continue;
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("fault spec field '" + field +
                                       "' is not key=value");
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "stage" || key == "site") {
        spec.site = value;
        if (!spec.site.empty() && spec.site.back() == '*') {
          spec.wildcard = true;
          spec.site.pop_back();
        }
        has_site = true;
      } else if (key == "task") {
        uint64_t task = 0;
        if (!ParseUintField(value, &task)) {
          return Status::InvalidArgument("fault spec task '" + value +
                                         "' is not an unsigned integer");
        }
        spec.any_task = false;
        spec.task = static_cast<size_t>(task);
      } else if (key == "run") {
        if (!ParseUintField(value, &spec.run) || spec.run == 0) {
          return Status::InvalidArgument("fault spec run '" + value +
                                         "' is not a positive integer");
        }
      } else if (key == "kind") {
        if (value == "throw") {
          spec.kind = Kind::kThrow;
        } else if (value == "delay") {
          spec.kind = Kind::kDelay;
        } else {
          return Status::InvalidArgument("fault spec kind '" + value +
                                         "' (want throw|delay)");
        }
      } else if (key == "prob") {
        if (!ParseDoubleField(value, &spec.probability) ||
            spec.probability < 0.0 || spec.probability > 1.0) {
          return Status::InvalidArgument("fault spec prob '" + value +
                                         "' is not a number in [0,1]");
        }
      } else if (key == "times") {
        if (!ParseUintField(value, &spec.max_hits)) {
          return Status::InvalidArgument("fault spec times '" + value +
                                         "' is not an unsigned integer");
        }
      } else if (key == "ms") {
        if (!ParseDoubleField(value, &spec.delay_ms) || spec.delay_ms < 0.0) {
          return Status::InvalidArgument("fault spec ms '" + value +
                                         "' is not a non-negative number");
        }
      } else {
        return Status::InvalidArgument("unknown fault spec key '" + key + "'");
      }
    }
    if (!has_site) {
      return Status::InvalidArgument("fault spec clause '" + clause +
                                     "' has no stage= field");
    }
    spec.hits = std::make_shared<std::atomic<uint64_t>>(0);
    spec.runs = std::make_shared<std::atomic<uint64_t>>(0);
    out->push_back(std::move(spec));
  }
  return Status::OK();
}

double FaultInjector::Draw(uint64_t seed, const std::string& site, size_t task,
                           size_t attempt) {
  uint64_t h = StableHashUint64(seed ^ StableHashBytes(site));
  h = StableHashUint64(h ^ (static_cast<uint64_t>(task) * 0x9E3779B97F4A7C15ULL));
  h = StableHashUint64(h ^ (static_cast<uint64_t>(attempt) + 1));
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

namespace {

bool SiteMatches(const std::string& filter, bool wildcard,
                 const std::string& site) {
  return wildcard ? site.compare(0, filter.size(), filter) == 0
                  : site == filter;
}

}  // namespace

void FaultInjector::OnStageStart(const std::string& site) {
  if (!enabled_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Spec& spec : specs_) {
    if (SiteMatches(spec.site, spec.wildcard, site)) {
      spec.runs->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void FaultInjector::OnSite(const std::string& site, size_t task,
                           size_t attempt) {
  if (!enabled()) return;
  Kind fire_kind = Kind::kThrow;
  double fire_ms = 0.0;
  bool fire = false;
  uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tracking_.load(std::memory_order_relaxed)) seen_sites_.insert(site);
    seed = seed_;
    for (const Spec& spec : specs_) {
      if (!SiteMatches(spec.site, spec.wildcard, site)) continue;
      if (!spec.any_task && task != spec.task) continue;
      if (spec.run != 0 &&
          spec.runs->load(std::memory_order_relaxed) != spec.run) {
        continue;
      }
      if (spec.hits->load(std::memory_order_relaxed) >= spec.max_hits) continue;
      if (spec.probability < 1.0 &&
          Draw(seed, site, task, attempt) >= spec.probability) {
        continue;
      }
      spec.hits->fetch_add(1, std::memory_order_relaxed);
      fire = true;
      fire_kind = spec.kind;
      fire_ms = spec.delay_ms;
      break;
    }
  }
  if (!fire) return;
  injected_total_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Instance().GetCounter("fault.injected_total").Add();
  MetricsRegistry::Instance().GetCounter("fault.injected." + site).Add();
  if (fire_kind == Kind::kDelay) {
    SleepForMs(fire_ms);
    return;
  }
  throw TaskFailure(site, "injected fault at site '" + site + "' task " +
                              std::to_string(task) + " attempt " +
                              std::to_string(attempt));
}

}  // namespace bigdansing
