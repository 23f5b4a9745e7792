#include "obs/bootstrap.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/lineage.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "obs/http_server.h"
#include "obs/profiler.h"
#include "obs/quality.h"

namespace bigdansing {

namespace {

/// Sampler rate when BD_PROFILE_HZ is unset: an off-beat prime, so the
/// sampler does not alias with millisecond-periodic work.
constexpr double kDefaultProfileHz = 97.0;

/// Env var set to a non-empty value, else null.
const char* EnvValue(const char* name) {
  const char* value = std::getenv(name);
  return (value != nullptr && *value != '\0') ? value : nullptr;
}

bool ExplainRequested() {
  const char* explain = EnvValue("BD_EXPLAIN");
  return explain != nullptr && std::string(explain) != "0";
}

/// BD_OBS_PORT parsed whole as a port number; nullopt when unset, and
/// nullopt with a warning when malformed or out of range.
std::optional<uint16_t> EnvPort() {
  const char* env = EnvValue("BD_OBS_PORT");
  if (env == nullptr) return std::nullopt;
  char* end = nullptr;
  const long port = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || port < 0 || port > 65535) {
    BD_LOG(Warning) << "BD_OBS_PORT ignored (not a port): " << env;
    return std::nullopt;
  }
  return static_cast<uint16_t>(port);
}

/// BD_PROFILE_HZ parsed whole as a positive rate; nullopt when unset, and
/// nullopt with a warning when malformed or not positive.
std::optional<double> EnvProfileHz() {
  const char* env = EnvValue("BD_PROFILE_HZ");
  if (env == nullptr) return std::nullopt;
  char* end = nullptr;
  const double hz = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(hz > 0.0)) {
    BD_LOG(Warning) << "BD_PROFILE_HZ ignored (not a positive rate): " << env;
    return std::nullopt;
  }
  return hz;
}

}  // namespace

bool WriteOutput(const std::string& path, const std::string& text) {
  bool ok;
  if (path == "-" || path == "stdout") {
    const size_t written = std::fwrite(text.data(), 1, text.size(), stdout);
    ok = std::fflush(stdout) == 0 && written == text.size();
  } else if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const size_t written = std::fwrite(text.data(), 1, text.size(), f);
    // fclose flushes the stdio buffer: a small text on a full device only
    // fails here.
    ok = std::fclose(f) == 0 && written == text.size();
  } else {
    ok = false;
  }
  if (!ok) BD_LOG(Warning) << "failed to write " << path;
  return ok;
}

void InitObservabilityFromEnv() {
  InitLoggingFromEnv();
  if (EnvValue("BD_TRACE_JSON") != nullptr || ExplainRequested()) {
    TraceRecorder::Instance().set_enabled(true);
  }
  if (EnvValue("BD_LINEAGE_JSONL") != nullptr) {
    LineageRecorder::Instance().set_enabled(true);
  }
  if (EnvValue("BD_QUALITY_JSONL") != nullptr) {
    QualityRecorder::Instance().set_enabled(true);
  }

  const std::optional<double> hz = EnvProfileHz();
  bool want_sampler =
      hz.has_value() || EnvValue("BD_PROFILE_FOLDED") != nullptr;
  if (const std::optional<uint16_t> port = EnvPort()) {
    if (ObsServer::Instance().Start(*port)) {
      // A live endpoint without spans or samples answers /explain and
      // /profilez with empty shells, and /quality and /profile only have
      // content while the QualityRecorder observes the runs: light all
      // three planes up alongside it.
      TraceRecorder::Instance().set_enabled(true);
      QualityRecorder::Instance().set_enabled(true);
      want_sampler = true;
    }
  }
  if (want_sampler && !Profiler::Instance().running()) {
    Profiler::Instance().Start(hz.value_or(kDefaultProfileHz));
  }
}

bool FlushObservability() {
  bool ok = true;
  if (const char* path = EnvValue("BD_LINEAGE_JSONL")) {
    const LineageRecorder& lineage = LineageRecorder::Instance();
    if (lineage.enabled()) ok &= WriteOutput(path, lineage.ToJsonl());
  }
  if (const char* path = EnvValue("BD_QUALITY_JSONL")) {
    ok &= WriteOutput(path, QualityRecorder::Instance().ToJsonl());
  }
  if (const char* path = EnvValue("BD_METRICS_JSON")) {
    ok &= WriteOutput(path, MetricsRegistry::Instance().ToJson() + "\n");
  }
  if (const char* path = EnvValue("BD_METRICS_PROM")) {
    ok &= WriteOutput(path, MetricsRegistry::Instance().ToPrometheusText());
  }
  if (const char* path = EnvValue("BD_PROFILE_FOLDED")) {
    ok &= WriteOutput(path, Profiler::Instance().FoldedStacks());
  }
  const TraceRecorder& trace = TraceRecorder::Instance();
  if (trace.enabled() && trace.SpanCount() > 0) {
    if (const char* path = EnvValue("BD_TRACE_JSON")) {
      ok &= WriteOutput(path, trace.ToChromeTraceJson());
    }
    if (ExplainRequested()) ok &= WriteOutput("-", trace.ExplainTree());
  }
  return ok;
}

bool ShutdownObservability() {
  const bool ok = FlushObservability();
  Profiler::Instance().Stop();
  ObsServer::Instance().Stop();
  return ok;
}

}  // namespace bigdansing
