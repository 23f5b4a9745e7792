// Streaming ingest (extension beyond the paper): per-batch latency of a
// CleanStream session against the cost of re-detecting the whole table
// after every micro-batch. The stream session keeps a persistent
// blocking-key -> candidate-rows index, so each window only re-detects the
// blocks its batch touched; the naive alternative pays a full detection
// pass per batch. The figure of merit is the simulated-wall ratio between
// one full re-detect at the final table size and the average streamed
// window — the regression gate (check_regression.py) requires it to stay
// above the min_speedup recorded in the config. The simulated ratio counts
// only stage CPU, so it cannot see the driver-side index work each window
// does; the same ratio in real wall time (wall_speedup) is gated too, above
// the config's min_wall_speedup.
#include <cstdio>

#include "bench_util.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "core/stream_session.h"
#include "datagen/datagen.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

using bench::ResultTable;
using bench::ScaledRows;
using bench::Secs;
using bench::TimeSeconds;

int Run() {
  const size_t rows = ScaledRows(200000);
  // 1% of the final size per micro-batch: the paper-scale configuration
  // the acceptance gate is calibrated on.
  const size_t batch_rows = std::max<size_t>(1, rows / 100);
  auto data = GenerateTaxA(rows, 0.1, /*seed=*/81);
  std::vector<RulePtr> rules = {*ParseRule("phi1: FD: zipcode -> city"),
                                *ParseRule("phi6: FD: zipcode -> state")};

  // Streamed ingestion: one session, one Poll per micro-batch.
  Table streamed(data.dirty.schema());
  ExecutionContext ctx(16);
  BigDansing system(&ctx);
  StreamOptions options;
  options.batch_rows = batch_rows;
  options.max_inflight_batches = rows;  // Queue everything; drain manually.
  options.session_name = "bench-stream-ingest";
  auto session = system.OpenStream(&streamed, rules, options);
  if (!session.ok()) {
    std::fprintf(stderr, "OpenStream failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::vector<Row> all(data.dirty.rows().begin(), data.dirty.rows().end());
  if (!(*session)->Append(std::move(all)).ok()) return 1;

  size_t windows = 0;
  double ingest_wall = 0.0;
  double max_batch_wall = 0.0;
  while ((*session)->pending_batches() > 0) {
    double batch_wall = TimeSeconds([&] {
      auto report = (*session)->Poll();
      if (!report.ok()) {
        std::fprintf(stderr, "Poll failed: %s\n",
                     report.status().ToString().c_str());
        std::exit(1);
      }
    });
    ingest_wall += batch_wall;
    max_batch_wall = std::max(max_batch_wall, batch_wall);
    ++windows;
  }
  // Snapshot the streamed windows' simulated wall before Flush: the flush
  // verification passes are full-table by design and would dilute the
  // per-batch figure.
  const double stream_sim = (*session)->metrics().SimulatedWallSeconds();
  const double per_batch_sim = windows > 0 ? stream_sim / windows : 0.0;
  double flush_wall = TimeSeconds([&] {
    auto flushed = (*session)->Flush();
    if (!flushed.ok()) std::exit(1);
  });
  auto stats = (*session)->stats();

  // The naive alternative's unit cost: one full detection pass over the
  // fully-ingested table (what every batch would pay without the index).
  ExecutionContext full_ctx(16);
  RuleEngine engine(&full_ctx);
  DetectRequest full_request;
  full_request.table = &streamed;
  full_request.rules = rules;
  double full_wall = TimeSeconds([&] {
    auto result = engine.Detect(full_request);
    if (!result.ok()) std::exit(1);
  });
  const double full_sim = full_ctx.metrics().SimulatedWallSeconds();
  const double speedup = per_batch_sim > 0 ? full_sim / per_batch_sim : 0.0;
  const double per_batch_wall = windows > 0 ? ingest_wall / windows : 0.0;
  const double wall_speedup =
      per_batch_wall > 0 ? full_wall / per_batch_wall : 0.0;

  bench::BenchRecord record("stream_ingest", "rows=" + std::to_string(rows) +
                                                 ",batch=1pct");
  record.AddConfig("rows", static_cast<uint64_t>(rows));
  record.AddConfig("batch_rows", static_cast<uint64_t>(batch_rows));
  record.AddConfig("batches", static_cast<uint64_t>(windows));
  record.AddConfig("workers", static_cast<uint64_t>(16));
  record.AddConfig("rules", static_cast<uint64_t>(rules.size()));
  // The 5x acceptance gate is calibrated at paper scale (>= 20K rows);
  // below that, fixed per-window stage overheads dominate the simulated
  // wall and the ratio is meaningless, so the record gates advisory-only.
  // The real-wall floor sits below half the lowest wall_speedup of twelve
  // runs at 200K rows on a 4-vCPU VM (EXPERIMENTS.md).
  const bool gated = rows >= 20000;
  constexpr double kMinSpeedup = 5.0;
  constexpr double kMinWallSpeedup = 2.0;
  record.AddConfig("min_speedup", gated ? kMinSpeedup : 0.0);
  record.AddConfig("min_wall_speedup", gated ? kMinWallSpeedup : 0.0);
  record.AddMetric("wall_seconds", ingest_wall);
  record.AddMetric("per_batch_wall_seconds", per_batch_wall);
  record.AddMetric("max_batch_wall_seconds", max_batch_wall);
  record.AddMetric("flush_wall_seconds", flush_wall);
  record.AddMetric("per_batch_simulated_seconds", per_batch_sim);
  record.AddMetric("full_redetect_wall_seconds", full_wall);
  record.AddMetric("full_redetect_simulated_seconds", full_sim);
  record.AddMetric("speedup", speedup);
  record.AddMetric("wall_speedup", wall_speedup);
  record.AddMetric("violations", stats.violations_found);
  record.AddMetric("fixes", stats.fixes_applied);
  record.CaptureMetrics((*session)->metrics());
  record.Emit();

  // One record for the full re-detect too, so the baseline tracks its
  // absolute simulated wall alongside the streamed path's.
  bench::BenchRecord full_record("stream_ingest",
                                 "full_redetect,rows=" + std::to_string(rows));
  full_record.AddConfig("rows", static_cast<uint64_t>(rows));
  full_record.AddConfig("workers", static_cast<uint64_t>(16));
  full_record.AddMetric("wall_seconds", full_wall);
  full_record.CaptureMetrics(full_ctx.metrics());
  full_record.Emit();

  ResultTable table("Streaming ingest: per-batch incremental window vs full "
                    "re-detect (TaxA phi1+phi6, " +
                        bench::WithCommas(rows) + " rows, " +
                        bench::WithCommas(batch_rows) + "-row batches)",
                    {"metric", "seconds"});
  char buf[32];
  table.AddRow({"ingest wall (all batches)", Secs(ingest_wall)});
  table.AddRow({"avg batch wall", Secs(per_batch_wall)});
  table.AddRow({"max batch wall", Secs(max_batch_wall)});
  table.AddRow({"full re-detect wall", Secs(full_wall)});
  std::snprintf(buf, sizeof(buf), "%.1fx", wall_speedup);
  table.AddRow({"speedup (wall)", buf});
  table.AddRow({"avg batch simulated", Secs(per_batch_sim)});
  table.AddRow({"full re-detect simulated", Secs(full_sim)});
  std::snprintf(buf, sizeof(buf), "%.1fx", speedup);
  table.AddRow({"speedup (simulated)", buf});
  table.Print();
  std::printf("windows=%zu violations=%llu fixes=%llu\n", windows,
              static_cast<unsigned long long>(stats.violations_found),
              static_cast<unsigned long long>(stats.fixes_applied));

  if (!gated) {
    std::printf("note: %zu rows is below the 20K-row gate calibration; "
                "speedup gates not enforced\n", rows);
    return 0;
  }
  int status = 0;
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: per-batch incremental detect only %.2fx cheaper than "
                 "full re-detect in simulated wall (gate: %.1fx)\n",
                 speedup, kMinSpeedup);
    status = 1;
  }
  if (wall_speedup < kMinWallSpeedup) {
    std::fprintf(stderr,
                 "FAIL: per-batch window only %.2fx faster than full "
                 "re-detect in real wall (gate: %.1fx)\n",
                 wall_speedup, kMinWallSpeedup);
    status = 1;
  }
  return status;
}

}  // namespace
}  // namespace bigdansing

int main() { return bigdansing::Run(); }
