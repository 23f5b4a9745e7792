// Live-observability demo: runs detect/repair cycles in a loop for a
// requested number of seconds while serving the observability endpoints,
// so an operator (or the CI obs-smoke step) can curl the process mid-run:
//
//   BD_OBS_PORT=8080 ./build/examples/obs_demo 10 &
//   curl localhost:8080/healthz
//   curl localhost:8080/metrics     # Prometheus text exposition
//   curl localhost:8080/stages      # live StageReports (in-flight stages)
//   curl localhost:8080/explain     # runtime EXPLAIN from open spans
//   curl localhost:8080/profilez    # folded stacks (flamegraph input)
//   curl localhost:8080/quality     # per-run quality telemetry + drift
//   curl localhost:8080/profile     # latest input-table column profile
//
// Each cycle cleans a freshly drifted instance of the table (the dirty
// rate and the dirty-city alphabet shift per cycle), so /quality serves a
// run history with real drift between snapshots. Every observability
// variable of InitObservabilityFromEnv (obs/bootstrap.h) applies, e.g.
// BD_PROFILE_HZ / BD_PROFILE_FOLDED (sampling profiler) and
// BD_QUALITY_JSONL (the quality run history, exported at exit).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/bigdansing.h"
#include "data/csv.h"
#include "obs/bootstrap.h"
#include "obs/http_server.h"
#include "obs/quality.h"
#include "rules/parser.h"

using namespace bigdansing;

namespace {

// A dirty synthetic tax table: `rows` records across `rows / 50 + 1`
// zipcodes, a `phase`-dependent share of which disagree with their
// zipcode's majority city. The drift per phase: the dirty rate cycles
// through ~10% / ~14% / ~25%, and the wrong-city alphabet rotates, so
// repeated quality snapshots differ in null-free but measurable ways
// (violation counts, top-k membership, distinct counts).
std::string MakeDirtyCsv(size_t rows, size_t phase) {
  std::string csv = "name,zipcode,city,state,salary,rate\n";
  const size_t zipcodes = rows / 50 + 1;
  const size_t dirty_stride = 10 - 3 * (phase % 3);  // 10, 7, 4
  for (size_t i = 0; i < rows; ++i) {
    const size_t zip = i % zipcodes;
    // Stride over each zipcode group's occurrence index (i / zipcodes),
    // not the row index: a row-index stride that divides the zipcode
    // count would dirty whole groups uniformly — consistent groups, zero
    // violations. Per-group striding guarantees mixed groups (~50 rows
    // per zipcode vs strides <= 10) at every phase.
    const bool dirty = (i / zipcodes) % dirty_stride == 3;
    const std::string wrong_city =
        "X" + std::to_string(phase % 5) + "_" + std::to_string(i % 7);
    csv += "p" + std::to_string(i) + "," + std::to_string(10000 + zip) + "," +
           (dirty ? wrong_city : "C" + std::to_string(zip)) + ",ST," +
           std::to_string(20000 + (i % 997) * 13) + "," +
           std::to_string(5 + i % 40) + "\n";
  }
  return csv;
}

}  // namespace

int main(int argc, char** argv) {
  const double run_seconds = argc > 1 ? std::atof(argv[1]) : 10.0;
  const size_t rows = argc > 2 ? static_cast<size_t>(std::atol(argv[2])) : 20000;

  InitObservabilityFromEnv();
  // The demo's point is the quality plane: keep the recorder on even
  // without a server or BD_QUALITY_JSONL.
  QualityRecorder::Instance().set_enabled(true);

  auto fd = ParseRule("phiF: FD: zipcode -> city");
  if (!fd.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  ExecutionContext ctx(4);
  BigDansing system(&ctx, CleanOptions{});

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(run_seconds);
  size_t cycles = 0;
  uint64_t violations = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    // Each cycle cleans the next phase of the drifting table.
    auto table = ReadCsvString(MakeDirtyCsv(rows, cycles), CsvOptions{});
    if (!table.ok()) {
      std::fprintf(stderr, "csv parse failed\n");
      return 1;
    }
    Table working = *table;
    auto report = system.Clean(&working, {*fd});
    if (!report.ok()) {
      std::fprintf(stderr, "clean failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    violations = report->iterations.empty()
                     ? 0
                     : report->iterations.front().violations;
    ++cycles;
  }

  std::printf("obs_demo: %zu cycles, %llu violations last cycle, "
              "%llu quality runs, port %u\n",
              cycles, static_cast<unsigned long long>(violations),
              static_cast<unsigned long long>(
                  QualityRecorder::Instance().RunsBegun()),
              ObsServer::Instance().port());
  return ShutdownObservability() ? 0 : 1;
}
