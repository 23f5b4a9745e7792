// Ablation: operator fusion in the deferred dataflow layer.
//
// A Map -> Filter -> Map chain over string-bearing records is executed two
// ways on identical input:
//
//  - eager:  every transformation is forced (materialized) before the next
//    one is applied — three stages and two intermediate partition vectors.
//    This is what the engine did before pipelines became deferred.
//  - fused:  the chain stays deferred and collapses into one per-partition
//    pass when the action forces it — one stage, no intermediates.
//
// Both produce bit-identical partitions; the bench verifies that (exiting
// non-zero when they differ), prints wall time and the recorded stage
// count for each mode, and always dumps the per-stage JSON breakdown so
// the fused stage's combined label ("...|scale|filter|render") is visible.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dataflow/dataset.h"

namespace bigdansing {
namespace {

using bench::ScaledRows;
using bench::Secs;
using bench::TimeSeconds;

/// A record heavy enough that materializing intermediates costs real
/// memory traffic (string payload + a few scalars), like the engine's
/// per-tuple Row values.
struct Record {
  uint64_t id = 0;
  double score = 0.0;
  std::string payload;

  bool operator==(const Record& other) const {
    return id == other.id && score == other.score && payload == other.payload;
  }
};

std::vector<Record> MakeInput(size_t n) {
  std::vector<Record> input;
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.id = i;
    r.score = static_cast<double>(i % 997);
    r.payload = "record-" + std::to_string(i * 2654435761u % 100000);
    input.push_back(std::move(r));
  }
  return input;
}

Record Scale(const Record& r) {
  Record out = r;
  out.score = r.score * 1.5 + 1.0;
  return out;
}

bool Keep(const Record& r) { return (r.id & 3) != 0; }

std::string Render(const Record& r) {
  return r.payload + ":" + std::to_string(static_cast<uint64_t>(r.score));
}

int Run() {
  const size_t rows = ScaledRows(1000000);
  const size_t kPartitions = 16;
  const auto input = MakeInput(rows);

  // --- Eager: force after every step, as the pre-refactor engine did. ---
  ExecutionContext eager_ctx(kPartitions);
  std::vector<std::string> eager_result;
  double eager_wall = TimeSeconds([&] {
    auto ds = Dataset<Record>::FromVector(&eager_ctx, input, kPartitions);
    auto scaled = ds.Map(Scale, "scale");
    scaled.Count();  // Materialization barrier after step 1.
    auto kept = scaled.Filter(Keep, "filter");
    kept.Count();  // Barrier after step 2.
    auto rendered = kept.Map(Render, "render");
    rendered.Count();  // Barrier after step 3.
    eager_result = rendered.Collect();
  });
  const uint64_t eager_stages = eager_ctx.metrics().stages();

  // --- Fused: the same chain, deferred end to end. ---
  ExecutionContext fused_ctx(kPartitions);
  std::vector<std::string> fused_result;
  double fused_wall = TimeSeconds([&] {
    auto rendered = Dataset<Record>::FromVector(&fused_ctx, input, kPartitions)
                        .Map(Scale, "scale")
                        .Filter(Keep, "filter")
                        .Map(Render, "render");
    fused_result = rendered.Collect();
  });
  const uint64_t fused_stages = fused_ctx.metrics().stages();

  const bool identical = eager_result == fused_result;

  std::printf("\n== Ablation: operator fusion (Map -> Filter -> Map, %s "
              "records, %zu partitions) ==\n",
              bench::WithCommas(rows).c_str(), kPartitions);
  std::printf("eager (force per step): %s s, %llu stages\n", Secs(eager_wall).c_str(),
              static_cast<unsigned long long>(eager_stages));
  std::printf("fused (single pass):    %s s, %llu stages\n", Secs(fused_wall).c_str(),
              static_cast<unsigned long long>(fused_stages));
  std::printf("speedup: %.2fx   results identical: %s\n",
              fused_wall > 0 ? eager_wall / fused_wall : 0.0,
              identical ? "yes" : "NO (BUG)");
  std::printf("\nfused per-stage breakdown:\n%s\n",
              fused_ctx.metrics().StageReportsJson().c_str());
  std::printf("\neager per-stage breakdown:\n%s\n",
              eager_ctx.metrics().StageReportsJson().c_str());
  bench::MaybeEmitStageJson("ablation_fusion:fused",
                            fused_ctx.metrics().ToJson());
  bench::BenchRecord record("ablation_fusion", "rows=" + std::to_string(rows));
  record.AddConfig("rows", static_cast<uint64_t>(rows));
  record.AddConfig("partitions", static_cast<uint64_t>(kPartitions));
  record.AddMetric("wall_seconds", fused_wall);
  record.AddMetric("eager_seconds", eager_wall);
  record.AddMetric("fused_stages", fused_stages);
  record.AddMetric("eager_stages", eager_stages);
  record.CaptureMetrics(fused_ctx.metrics());
  record.Emit();
  std::printf(
      "\nExpected shape: the fused chain records 1 stage where the eager "
      "chain records 3, skips two intermediate materializations, and is "
      "measurably faster.\n");
  if (!identical) {
    std::fprintf(stderr, "FAIL: fused and eager outputs differ\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bigdansing

int main() { return bigdansing::Run(); }
