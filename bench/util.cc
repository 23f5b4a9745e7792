#include "bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <set>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/string_util.h"
#include "obs/bootstrap.h"

namespace bigdansing {
namespace bench {

namespace {

/// Static-initializer bootstrap: every bench links util.cc, so the
/// observability env vars take effect without touching each main(). The
/// destructor flushes every export at normal exit (after main returns) and
/// stops the sampler and the server.
struct ObservabilityBootstrap {
  ObservabilityBootstrap() { InitObservabilityFromEnv(); }
  ~ObservabilityBootstrap() { ShutdownObservability(); }
};
ObservabilityBootstrap g_observability_bootstrap;

}  // namespace

double EnvScale() {
  const char* env = std::getenv("BD_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

size_t ScaledRows(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * EnvScale());
}

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void ResultTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void ResultTable::Print() const {
  std::printf("\n== %s ==\n", title_.c_str());
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

void MaybeEmitStageJson(const std::string& label, const std::string& json) {
  const char* env = std::getenv("BD_STAGE_JSON");
  if (env == nullptr || *env == '\0') return;
  std::string line =
      "{\"label\":\"" + JsonEscape(label) + "\",\"metrics\":" + json + "}\n";
  const std::string target(env);
  if (target == "-" || target == "stdout") {
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fflush(stdout);
    return;
  }
  std::FILE* f = std::fopen(target.c_str(), "a");
  if (f == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
}

BenchRecord::BenchRecord(std::string bench, std::string label)
    : bench_(std::move(bench)), label_(std::move(label)) {}

void BenchRecord::AddConfig(std::string_view key, const std::string& value) {
  config_.Add(key, value);
}
void BenchRecord::AddConfig(std::string_view key, const char* value) {
  config_.Add(key, value);
}
void BenchRecord::AddConfig(std::string_view key, uint64_t value) {
  config_.Add(key, value);
}
void BenchRecord::AddConfig(std::string_view key, double value) {
  config_.Add(key, value);
}
void BenchRecord::AddConfig(std::string_view key, bool value) {
  config_.Add(key, value);
}

void BenchRecord::AddMetric(std::string_view key, uint64_t value) {
  metrics_.Add(key, value);
}
void BenchRecord::AddMetric(std::string_view key, double value) {
  metrics_.Add(key, value);
}
void BenchRecord::AddMetric(std::string_view key, const std::string& value) {
  metrics_.Add(key, value);
}

void BenchRecord::AddQuality(uint64_t violations, uint64_t fixes,
                             uint64_t unresolved, uint64_t iterations) {
  metrics_.Add("violations", violations);
  metrics_.Add("fixes", fixes);
  metrics_.Add("unresolved", unresolved);
  metrics_.Add("iterations", iterations);
}

void BenchRecord::CaptureMetrics(const Metrics& metrics) {
  metrics_.Add("simulated_wall_seconds", metrics.SimulatedWallSeconds());
  metrics_.Add("shuffled_records", metrics.shuffled_records());
  metrics_.Add("stages", metrics.stages());
  metrics_.Add("tasks", metrics.tasks());
  metrics_.Add("pairs_enumerated", metrics.pairs_enumerated());
  metrics_.Add("records_read", metrics.records_read());
}

bool BenchRecord::Emit() {
  JsonObjectBuilder record;
  record.Add("bench", bench_);
  record.Add("label", label_);
  record.AddRaw("config", config_.Build());
  record.AddRaw("metrics", metrics_.Build());
  record.AddRaw("registry", MetricsRegistry::Instance().ToJson());
  const std::string line = record.Build() + "\n";

  const char* dir = std::getenv("BD_BENCH_JSON_DIR");
  std::string target;
  if (dir != nullptr && *dir != '\0') {
    const std::string d(dir);
    if (d == "-" || d == "stdout") {
      std::fwrite(line.data(), 1, line.size(), stdout);
      std::fflush(stdout);
      return true;
    }
    target = d + "/";
  }
  target += "BENCH_" + bench_ + ".json";

  // First write to a file in this process truncates it, so a re-run never
  // mixes records with a previous invocation's.
  static std::mutex mu;
  static std::set<std::string>* truncated = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  const bool fresh = truncated->insert(target).second;
  std::FILE* f = std::fopen(target.c_str(), fresh ? "w" : "a");
  if (f == nullptr) {
    BD_LOG(Warning) << "failed to open bench record file " << target;
    return false;
  }
  const size_t written = std::fwrite(line.data(), 1, line.size(), f);
  return std::fclose(f) == 0 && written == line.size();
}

std::string Secs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

std::string WithCommas(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int lead = static_cast<int>(digits.size() % 3);
  for (int i = 0; i < static_cast<int>(digits.size()); ++i) {
    if (i != 0 && (i - lead) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace bench
}  // namespace bigdansing
