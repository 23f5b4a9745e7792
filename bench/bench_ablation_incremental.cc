// Ablation (extension beyond the paper): incremental re-detection.
// After a repair pass changed k rows, the next detection pass only needs
// the violations touching those rows (a DetectRequest with changed_rows).
// The saving scales with the cost of Detect: this bench uses a similarity
// DC (Levenshtein on name within zipcode blocks), where skipping untouched
// blocks skips real work.
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

using bench::ResultTable;
using bench::ScaledRows;
using bench::Secs;
using bench::TimeSeconds;

constexpr const char* kRule =
    "sim: DC: t1.zipcode = t2.zipcode & t1.name ~0.6 t2.name & "
    "t1.city != t2.city";

void RunOperation() {
  const size_t rows = ScaledRows(200000);
  auto data = GenerateTaxA(rows, 0.1, /*seed=*/71);
  ExecutionContext ctx(16);
  RuleEngine engine(&ctx);

  double full = TimeSeconds([&] { engine.Detect(data.dirty, *ParseRule(kRule)); });

  ResultTable table(
      "Ablation: incremental re-detection after k changed rows "
      "(similarity DC on TaxA, " + bench::WithCommas(rows) + " rows)",
      {"changed rows", "full detect (s)", "incremental (s)", "speedup"});
  Random rng(5);
  for (double fraction : {0.001, 0.01, 0.05, 0.20}) {
    std::unordered_set<RowId> changed;
    size_t want = std::max<size_t>(1, static_cast<size_t>(rows * fraction));
    while (changed.size() < want) {
      changed.insert(static_cast<RowId>(rng.NextBounded(rows)));
    }
    DetectRequest inc_request;
    inc_request.table = &data.dirty;
    inc_request.rules = {*ParseRule(kRule)};
    inc_request.changed_rows = &changed;
    double incremental = TimeSeconds([&] { engine.Detect(inc_request); });
    bench::BenchRecord record(
        "ablation_incremental",
        "changed=" + std::to_string(changed.size()));
    record.AddConfig("rule", kRule);
    record.AddConfig("rows", static_cast<uint64_t>(rows));
    record.AddConfig("workers", static_cast<uint64_t>(16));
    record.AddConfig("changed_rows", static_cast<uint64_t>(changed.size()));
    record.AddMetric("wall_seconds", incremental);
    record.AddMetric("full_detect_seconds", full);
    record.CaptureMetrics(ctx.metrics());
    record.Emit();
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  incremental > 0 ? full / incremental : 0.0);
    table.AddRow({bench::WithCommas(changed.size()), Secs(full),
                  Secs(incremental), speedup});
  }
  table.Print();
}

}  // namespace
}  // namespace bigdansing

int main() {
  bigdansing::RunOperation();
  return 0;
}
