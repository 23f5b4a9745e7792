// Ablation: columnar detect kernels vs the interpreted rule engine.
//
// The same detections run two ways over the same data:
//
//  - interpreted: BD_KERNELS=0 semantics — Block hashes Value objects row
//    by row and Detect re-evaluates each candidate pair through
//    Rule::Detect's virtual dispatch and Value comparisons.
//  - kernel: the default path — blocking/predicate columns are
//    dictionary-encoded once (dense u32 codes, pool-precomputed hashes),
//    a compiled DetectKernel filters candidate pairs with branch-light
//    integer loops, and the compiled GenFix writes violations for matches
//    only.
//
// Both run the same stages in the same enumeration order, so output must
// be bit-identical; the bench checks that (exiting 1, after printing and
// emitting every record, when any workload differs) and reports the
// simulated-wall ratio per workload, plus a microbench of the
// dictionary-encode cost in ns/row — the price paid before the kernel can
// run at all.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/rule_engine.h"
#include "data/dictionary.h"
#include "datagen/datagen.h"
#include "obs/profiler.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

using bench::ScaledRows;
using bench::Secs;
using bench::TimeSeconds;

/// Publishes the bench's own driver-side phases (datagen, fingerprint
/// verification) to the sampling profiler, so a profiled run attributes
/// those samples instead of reporting workers as idle.
template <typename Fn>
auto DriverPhase(const char* stage, Fn&& fn) {
  ScopedActivity activity(Profiler::Instance().Intern(stage, "driver"));
  return fn();
}

/// Order-sensitive fingerprint of a detection result: violation stream,
/// cells and fixes in emission order. Equal strings ⇒ bit-identical runs.
std::string Fingerprint(const DetectionResult& result) {
  std::string out;
  auto cell = [&](const Cell& c) {
    out += std::to_string(c.ref.row_id) + "." + std::to_string(c.ref.column) +
           "=" + c.value.ToString() + ";";
  };
  for (const auto& vf : result.violations) {
    out += vf.violation.rule_name + ":";
    for (const auto& c : vf.violation.cells) cell(c);
    for (const auto& fix : vf.fixes) {
      cell(fix.left);
      out += FixOpName(fix.op);
      if (fix.right.is_cell) {
        cell(fix.right.cell);
      } else {
        out += fix.right.constant.ToString();
      }
    }
    out += "\n";
  }
  return out;
}

struct ModeRun {
  double wall = 0;
  double sim_wall = 0;
  uint64_t violations = 0;
  uint64_t detect_calls = 0;
  std::string fingerprint;
};

ModeRun RunMode(ExecutionContext& ctx, const Table& table, const RulePtr& rule,
                bool kernels) {
  ctx.set_kernels_enabled(kernels);
  RuleEngine engine(&ctx);
  ModeRun run;
  run.wall = TimeSeconds([&] {
    auto result = engine.Detect(table, rule);
    if (!result.ok()) {
      std::fprintf(stderr, "detect failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    run.violations = result->violations.size();
    run.detect_calls = result->detect_calls;
    run.fingerprint =
        DriverPhase("bench:verify", [&] { return Fingerprint(*result); });
  });
  run.sim_wall = ctx.metrics().SimulatedWallSeconds();
  return run;
}

/// Runs one workload both ways, prints and emits its record; returns
/// whether the two runs were bit-identical.
bool RunWorkload(const char* key, const char* rule_text, const Table& table,
                 size_t workers) {
  auto rule = *ParseRule(rule_text);
  ExecutionContext interp_ctx(workers);
  ExecutionContext kernel_ctx(workers);
  ModeRun interp = RunMode(interp_ctx, table, rule, /*kernels=*/false);
  ModeRun kernel = RunMode(kernel_ctx, table, rule, /*kernels=*/true);

  const bool identical = interp.fingerprint == kernel.fingerprint &&
                         interp.detect_calls == kernel.detect_calls;
  const double speedup =
      kernel.sim_wall > 0 ? interp.sim_wall / kernel.sim_wall : 0.0;

  std::printf("%-3s %s\n", key, rule_text);
  std::printf("  interpreted: sim wall %s s (real %s s), %llu violations\n",
              Secs(interp.sim_wall).c_str(), Secs(interp.wall).c_str(),
              static_cast<unsigned long long>(interp.violations));
  std::printf("  kernel:      sim wall %s s (real %s s), %llu violations\n",
              Secs(kernel.sim_wall).c_str(), Secs(kernel.wall).c_str(),
              static_cast<unsigned long long>(kernel.violations));
  std::printf("  sim-wall speedup: %.2fx   bit-identical: %s\n\n", speedup,
              identical ? "yes" : "NO (BUG)");

  bench::BenchRecord record("ablation_kernels",
                            std::string(key) + "_rows=" +
                                std::to_string(table.rows().size()));
  record.AddConfig("workload", key);
  record.AddConfig("rule", rule_text);
  record.AddConfig("rows", static_cast<uint64_t>(table.rows().size()));
  record.AddConfig("workers", static_cast<uint64_t>(workers));
  record.AddMetric("wall_seconds", kernel.wall);
  record.AddMetric("interpreted_wall_seconds", interp.wall);
  record.AddMetric("interpreted_sim_wall_seconds", interp.sim_wall);
  record.AddMetric("kernel_sim_wall_seconds", kernel.sim_wall);
  record.AddMetric("sim_wall_speedup", speedup);
  record.AddMetric("violations", interp.violations);
  record.AddMetric("detect_calls", interp.detect_calls);
  record.AddMetric("identical", identical ? "yes" : "no");
  // simulated_wall_seconds (the checker's keyed metric) is the kernel run's.
  record.CaptureMetrics(kernel_ctx.metrics());
  record.Emit();
  return identical;
}

void RunEncodeMicrobench(const Table& table, size_t workers) {
  ExecutionContext ctx(workers);
  Dataset<Row> rows = Dataset<Row>::FromVector(&ctx, table.rows());
  // zipcode(1), city(2), state(3): the key columns of the FD workloads.
  const std::vector<std::vector<size_t>> groups = {{1}, {2}, {3}};
  EncodedColumnSet encoded;
  double wall = TimeSeconds([&] { encoded = EncodeColumns(rows, groups); });
  const double ns_per_row =
      encoded.rows > 0 ? wall * 1e9 / static_cast<double>(encoded.rows) : 0.0;
  uint64_t pool_values = 0;
  for (const auto& [col, column] : encoded.columns) {
    (void)col;
    pool_values += column.pool->size();
  }
  std::printf("encode microbench: %s rows x %zu cols in %s s  (%.0f ns/row, "
              "%llu distinct pooled values)\n\n",
              bench::WithCommas(encoded.rows).c_str(), groups.size(),
              Secs(wall).c_str(), ns_per_row,
              static_cast<unsigned long long>(pool_values));

  bench::BenchRecord record("ablation_kernels",
                            "encode_rows=" + std::to_string(encoded.rows));
  record.AddConfig("workload", "encode");
  record.AddConfig("rows", encoded.rows);
  record.AddConfig("columns", static_cast<uint64_t>(groups.size()));
  record.AddConfig("workers", static_cast<uint64_t>(workers));
  record.AddMetric("wall_seconds", wall);
  record.AddMetric("encode_ns_per_row", ns_per_row);
  record.AddMetric("pool_values", pool_values);
  record.CaptureMetrics(ctx.metrics());
  record.Emit();
}

/// Returns false when any workload's two runs differed.
bool Run() {
  const size_t kWorkers = 8;
  const size_t fd_rows = ScaledRows(200000);
  const size_t dc_rows = ScaledRows(40000);

  std::printf("\n== Ablation: columnar detect kernels vs interpreted engine "
              "(%zu workers) ==\n",
              kWorkers);

  // Fig 9(a)-scale FD workload: TaxA, phi1 (zipcode -> city). Error rate
  // 2% keeps the workload detection-bound — at 10% both paths spend most
  // of their time materializing ~100k identical violations, which measures
  // the shared Detect/GenFix cost instead of the ablated decision loops.
  auto fd_data = DriverPhase("bench:datagen", [&] {
    return GenerateTaxA(fd_rows, 0.02, /*seed=*/fd_rows);
  });
  bool identical =
      RunWorkload("fd", "phi1: FD: zipcode -> city", fd_data.dirty, kWorkers);

  // Blocked DC workload: equality blocking on zipcode, inequality on state.
  auto dc_data = DriverPhase("bench:datagen", [&] {
    return GenerateTaxA(dc_rows, 0.02, /*seed=*/dc_rows);
  });
  identical &= RunWorkload(
      "dc", "phiD: DC: t1.zipcode = t2.zipcode & t1.state != t2.state",
      dc_data.dirty, kWorkers);

  RunEncodeMicrobench(fd_data.dirty, kWorkers);

  std::printf(
      "Expected shape: the kernel path's simulated wall time is lower on "
      "both workloads (code-equality loops replace per-pair virtual Detect "
      "calls and compiled GenFix replaces violation objects) with "
      "bit-identical output; encode cost stays tens of ns/row — amortized "
      "across every rule sharing the scope.\n");
  return identical;
}

}  // namespace
}  // namespace bigdansing

int main() {
  if (bigdansing::Run()) return 0;
  std::fprintf(stderr,
               "kernel and interpreted detection differ: fingerprints or "
               "detect_calls (see \"bit-identical: NO\" above)\n");
  return 1;
}
