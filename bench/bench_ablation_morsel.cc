// Ablation: morsel-driven scheduling vs partition-granularity tasks on a
// skewed workload.
//
// The input is deliberately skewed: one partition holds ~100x the rows of
// every other partition. The same per-row pipeline runs two ways:
//
//  - partition: a morsel size of at least the heavy partition, so every
//    partition is one morsel — the heavy partition is one indivisible
//    unit pinned to one worker slot and the stage's simulated cluster
//    wall time degenerates to that slot's busy time (Amdahl on the
//    straggler).
//  - morsel: the fused pass is cut into small row-range morsels that
//    spread over all worker slots, so the heavy partition's rows land
//    evenly and the simulated wall time approaches total_busy / workers.
//
// Both paths must produce bit-identical output (morsels commit in
// deterministic row order); the bench exits non-zero when they differ and
// reports the simulated-wall speedup, the ablation's figure of merit. The
// record carries config.min_speedup = 1.5, which check_regression.py
// enforces against metrics.speedup.
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

/// Deterministic per-row work: a short avalanche loop, heavy enough that
/// scheduling (not allocation) dominates the stage's busy time.
uint64_t BurnHash(uint64_t x) {
  uint64_t h = x * 0x9E3779B97F4A7C15ULL + 1;
  for (int i = 0; i < 256; ++i) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
  }
  return h;
}

/// One heavy partition of `heavy` rows plus `small_parts` partitions of
/// `heavy / 100` rows each.
std::vector<std::vector<uint64_t>> MakeSkewedInput(size_t heavy,
                                                   size_t small_parts) {
  std::vector<std::vector<uint64_t>> parts(1 + small_parts);
  uint64_t next = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    const size_t n = p == 0 ? heavy : std::max<size_t>(1, heavy / 100);
    parts[p].reserve(n);
    for (size_t i = 0; i < n; ++i) parts[p].push_back(next++);
  }
  return parts;
}

/// Minimum simulated-wall speedup of the morsel path (DESIGN.md §10).
constexpr double kMinSpeedup = 1.5;

int Run() {
  const size_t kWorkers = 8;
  const size_t heavy_rows = ScaledRows(131072);
  const size_t kSmallParts = 15;
  const auto input = MakeSkewedInput(heavy_rows, kSmallParts);
  size_t total_rows = 0;
  for (const auto& p : input) total_rows += p.size();

  auto pipeline = [](ExecutionContext* ctx,
                     const std::vector<std::vector<uint64_t>>& parts) {
    return Dataset<uint64_t>(ctx, parts)
        .Map([](const uint64_t& x) { return BurnHash(x); }, "burn")
        .Filter([](const uint64_t& x) { return (x & 7) != 0; }, "thin")
        .Collect();
  };

  // --- Partition granularity: one morsel per partition. ---
  ExecutionContext part_ctx(kWorkers);
  part_ctx.set_morsel_rows(heavy_rows);
  std::vector<uint64_t> part_result;
  double part_wall = TimeSeconds([&] { part_result = pipeline(&part_ctx, input); });
  const double part_sim = part_ctx.metrics().SimulatedWallSeconds();

  // --- Morsel granularity: same pipeline. The morsel size is pinned (not
  // the L2-sized default) so the heavy partition still splits into many
  // units at the small BD_SCALE values CI uses. ---
  ExecutionContext morsel_ctx(kWorkers);
  morsel_ctx.set_morsel_rows(512);
  std::vector<uint64_t> morsel_result;
  double morsel_wall =
      TimeSeconds([&] { morsel_result = pipeline(&morsel_ctx, input); });
  const double morsel_sim = morsel_ctx.metrics().SimulatedWallSeconds();

  const bool identical = part_result == morsel_result;
  const double speedup = morsel_sim > 0 ? part_sim / morsel_sim : 0.0;

  std::printf("\n== Ablation: morsel scheduling (skewed input, %s rows, "
              "1 heavy + %zu small partitions, %zu workers) ==\n",
              bench::WithCommas(total_rows).c_str(), kSmallParts, kWorkers);
  std::printf("partition tasks: sim wall %s s  (real %s s)\n",
              Secs(part_sim).c_str(), Secs(part_wall).c_str());
  std::printf("morsel tasks:    sim wall %s s  (real %s s), %llu morsels\n",
              Secs(morsel_sim).c_str(), Secs(morsel_wall).c_str(),
              static_cast<unsigned long long>(morsel_ctx.metrics().morsels()));
  std::printf("simulated-wall speedup: %.2fx   results identical: %s\n",
              speedup, identical ? "yes" : "NO (BUG)");

  bench::BenchRecord record("ablation_morsel",
                            "rows=" + std::to_string(total_rows));
  record.AddConfig("rows", static_cast<uint64_t>(total_rows));
  record.AddConfig("heavy_rows", static_cast<uint64_t>(heavy_rows));
  record.AddConfig("small_partitions", static_cast<uint64_t>(kSmallParts));
  record.AddConfig("workers", static_cast<uint64_t>(kWorkers));
  record.AddConfig("morsel_rows",
                   static_cast<uint64_t>(morsel_ctx.morsel_rows()));
  record.AddConfig("min_speedup", kMinSpeedup);
  record.AddMetric("wall_seconds", morsel_wall);
  record.AddMetric("partition_wall_seconds", part_wall);
  record.AddMetric("partition_sim_wall_seconds", part_sim);
  record.AddMetric("morsels", morsel_ctx.metrics().morsels());
  record.AddMetric("speedup", speedup);
  record.AddMetric("identical", identical ? "yes" : "no");
  record.CaptureMetrics(morsel_ctx.metrics());
  record.Emit();

  std::printf(
      "\nExpected shape: the heavy partition pins one worker slot at "
      "partition granularity, so the morsel path's simulated wall time "
      "should be several times lower (>= %.1fx) with identical output.\n",
      kMinSpeedup);
  if (!identical) {
    std::fprintf(stderr, "FAIL: morsel and partition outputs differ\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bigdansing

int main() { return bigdansing::Run(); }
