// Streaming-cleanse demo: opens a CleanStream session and ingests a
// drifting dirty table in micro-batches for a requested number of
// seconds, serving the observability endpoints so an operator (or the CI
// stream-smoke step) can watch the session mid-run:
//
//   BD_OBS_PORT=8080 ./build/examples/stream_demo 10 &
//   curl localhost:8080/streams     # live stream-session counters
//   curl localhost:8080/quality     # per-window quality telemetry
//
// Each Append carries a slice of rows whose dirty-city alphabet drifts
// with the batch number; every few batches a slice of earlier rows is
// retracted, so /streams shows appends, retractions, backpressure and
// index growth on a genuinely moving table. Every observability variable
// of InitObservabilityFromEnv (obs/bootstrap.h) applies.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/bigdansing.h"
#include "core/stream_session.h"
#include "data/csv.h"
#include "obs/bootstrap.h"
#include "obs/http_server.h"
#include "obs/quality.h"
#include "rules/parser.h"

using namespace bigdansing;

namespace {

// One micro-batch of the drifting tax table: `rows` records over
// ~rows/10+1 zipcodes, every 4th row per zipcode group disagreeing with
// its group's majority city. The wrong-city alphabet rotates with
// `phase`, so consecutive windows repair genuinely different values.
std::vector<Row> MakeBatch(size_t rows, size_t phase) {
  std::string csv = "name,zipcode,city,state,salary,rate\n";
  const size_t zipcodes = rows / 10 + 1;
  for (size_t i = 0; i < rows; ++i) {
    const size_t zip = i % zipcodes;
    const bool dirty = (i / zipcodes) % 4 == 3;
    const std::string wrong_city =
        "X" + std::to_string(phase % 5) + "_" + std::to_string(i % 7);
    csv += "p" + std::to_string(phase) + "_" + std::to_string(i) + "," +
           std::to_string(10000 + zip) + "," +
           (dirty ? wrong_city : "C" + std::to_string(zip)) + ",ST," +
           std::to_string(20000 + (i % 997) * 13) + "," +
           std::to_string(5 + i % 40) + "\n";
  }
  auto table = ReadCsvString(csv, CsvOptions{});
  std::vector<Row> batch;
  if (!table.ok()) return batch;
  for (const Row& row : table->rows()) {
    batch.emplace_back(-1, row.values());  // Session assigns fresh ids.
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  const double run_seconds = argc > 1 ? std::atof(argv[1]) : 10.0;
  const size_t batch_rows = argc > 2
                                ? static_cast<size_t>(std::atol(argv[2]))
                                : 2000;

  InitObservabilityFromEnv();
  // Keep the quality recorder on so /quality serves per-window runs.
  QualityRecorder::Instance().set_enabled(true);

  auto schema_probe = ReadCsvString(
      "name,zipcode,city,state,salary,rate\n", CsvOptions{});
  auto fd = ParseRule("phiF: FD: zipcode -> city");
  auto fd_state = ParseRule("phiS: FD: zipcode -> state");
  if (!schema_probe.ok() || !fd.ok() || !fd_state.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  ExecutionContext ctx(4);
  BigDansing system(&ctx, CleanOptions{});
  Table table(schema_probe->schema());
  StreamOptions options;
  options.session_name = "stream-demo";
  auto session = system.OpenStream(&table, {*fd, *fd_state}, options);
  if (!session.ok()) {
    std::fprintf(stderr, "OpenStream failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(run_seconds);
  size_t batches = 0;
  size_t retractions = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    RowId before = static_cast<RowId>(table.num_rows());
    if (!(*session)->Append(MakeBatch(batch_rows, batches)).ok()) {
      std::fprintf(stderr, "Append failed\n");
      return 1;
    }
    auto window = (*session)->Poll();
    if (!window.ok()) {
      std::fprintf(stderr, "Poll failed: %s\n",
                   window.status().ToString().c_str());
      return 1;
    }
    ++batches;
    // Every third batch, retract a slice of the rows the previous batch
    // landed, so the index shrinks as well as grows.
    if (batches % 3 == 0 && before > 100) {
      std::vector<RowId> victims;
      for (RowId id = before - 100; id < before; ++id) victims.push_back(id);
      if (!(*session)->Retract(victims).ok()) {
        std::fprintf(stderr, "Retract failed\n");
        return 1;
      }
      ++retractions;
    }
  }
  auto flushed = (*session)->Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "Flush failed: %s\n",
                 flushed.status().ToString().c_str());
    return 1;
  }
  auto stats = (*session)->stats();
  if (!(*session)->Close().ok()) return 1;

  std::printf("stream_demo: %zu batches, %zu retraction rounds, "
              "%llu rows live, %llu violations, %llu fixes, "
              "%llu index blocks, port %u\n",
              batches, retractions,
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.violations_found),
              static_cast<unsigned long long>(stats.fixes_applied),
              static_cast<unsigned long long>(stats.index_blocks),
              ObsServer::Instance().port());
  return ShutdownObservability() ? 0 : 1;
}
