#ifndef BIGDANSING_BENCH_BENCH_UTIL_H_
#define BIGDANSING_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "dataflow/metrics.h"

namespace bigdansing {
namespace bench {

/// Times one invocation of `fn` in seconds (wall clock).
inline double TimeSeconds(const std::function<void()>& fn) {
  Stopwatch sw;
  fn();
  return sw.ElapsedSeconds();
}

/// Dataset scale multiplier from the BD_SCALE environment variable
/// (default 1.0). Benches multiply their default row counts by this, so
/// `BD_SCALE=10 ./bench_fig9a_taxa_fd` runs a 10x larger sweep.
double EnvScale();

/// Row-count helper applying EnvScale().
size_t ScaledRows(size_t base);

/// A column-aligned results table matching the figure's series, e.g.
///
///   == Fig 9(a): TaxA phi1, single node, detection time (s) ==
///   rows     BigDansing  SparkSQL  PostgreSQL  NADEEF  Shark
///   10000    0.12        0.15      0.08        4.31    9.20
///
/// Cells are free-form strings so "capped" / "n/a" entries are possible.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  /// Adds one row; missing cells render empty.
  void AddRow(std::vector<std::string> cells);

  /// Renders to stdout.
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Emits the context's metrics (totals + per-stage StageReport breakdown)
/// as one JSON object labelled `label`, honouring the BD_STAGE_JSON
/// environment variable: unset -> no-op, "-" or "stdout" -> print to
/// stdout, any other value -> append one line to that file path. Benches
/// call this after each measured configuration, passing
/// `ctx.metrics().ToJson()` as `json`.
void MaybeEmitStageJson(const std::string& label, const std::string& json);

/// One standardized bench result: every bench emits one BenchRecord per
/// measured configuration, so all 20 binaries produce machine-readable
/// output with identical field names (the regression checker and the CI
/// baseline both key on them — do not invent per-bench variants).
///
/// The record renders as ONE line of strict JSON:
///
///   {"bench":"fig9a_taxa_fd","label":"rows=10000",
///    "config":{...},"metrics":{...},"registry":{...}}
///
/// `config` holds the knobs of the run (row counts, workers, mode flags);
/// `metrics` the measured outcomes. CaptureMetrics() fills the standardized
/// dataflow fields (simulated_wall_seconds, shuffled_records, stages,
/// tasks, pairs_enumerated); wall_seconds / violations / fixes are added by
/// the bench via AddMetric with exactly those names. `registry` is the
/// process-wide MetricsRegistry snapshot taken at Emit() time.
///
/// Emit() appends the line to BENCH_<bench>.json in the directory named by
/// BD_BENCH_JSON_DIR (default: current directory; "-" or "stdout" sends
/// lines to stdout instead). The first Emit() for a given file in a process
/// truncates it, so re-runs do not accumulate stale records.
class BenchRecord {
 public:
  /// `bench` is the binary's stable short name ("fig9a_taxa_fd");
  /// `label` distinguishes configurations within it ("rows=10000").
  BenchRecord(std::string bench, std::string label);

  void AddConfig(std::string_view key, const std::string& value);
  void AddConfig(std::string_view key, const char* value);
  void AddConfig(std::string_view key, uint64_t value);
  void AddConfig(std::string_view key, double value);
  void AddConfig(std::string_view key, bool value);

  void AddMetric(std::string_view key, uint64_t value);
  void AddMetric(std::string_view key, double value);
  void AddMetric(std::string_view key, const std::string& value);

  /// Standardized dataflow counters from one run's Metrics:
  /// simulated_wall_seconds, shuffled_records, stages, tasks,
  /// pairs_enumerated, records_read.
  void CaptureMetrics(const Metrics& metrics);

  /// Standardized data-quality outcome of one Clean() run: the metric keys
  /// "violations", "fixes", "unresolved" and "iterations". Benches that
  /// measure repair quality use this instead of ad-hoc AddMetric calls so
  /// every record spells the fields identically (the JSON builder does not
  /// deduplicate keys — never AddMetric the same names separately).
  void AddQuality(uint64_t violations, uint64_t fixes, uint64_t unresolved,
                  uint64_t iterations);

  /// Writes the record as one line; returns false on I/O failure.
  bool Emit();

 private:
  std::string bench_;
  std::string label_;
  JsonObjectBuilder config_;
  JsonObjectBuilder metrics_;
};

/// "%.3f" seconds formatting.
std::string Secs(double seconds);

/// Integer with thousands groups ("1,234,567").
std::string WithCommas(uint64_t value);

}  // namespace bench
}  // namespace bigdansing

#endif  // BIGDANSING_BENCH_BENCH_UTIL_H_
