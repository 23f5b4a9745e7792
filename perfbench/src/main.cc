// perfbench: the repository benchmark program. Runs one workload for a
// fixed time. `--trace 0` prints the raw samples of untraced jobs as one
// JSON line (run.py pools several such processes into the end-to-end
// metrics); `--trace 1` runs traced jobs and prints, as the last line, the
// result object with the per-layer metrics. See perfbench/README.md.
//
//   perfbench --workload taxa_fd_clean --seed 1 --seconds 6 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/lineage.h"
#include "common/metrics_registry.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "obs/quality.h"
#include "obs/stream_stats.h"
#include "tracer.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, reported by every workload with --trace 1 (0 where
/// a layer does no work on the workload).
constexpr MetricDef kPerLayer[] = {
    {"core.clean.detect_s", "s"},
    {"core.clean.repair_s", "s"},
    {"core.clean.other_s", "s"},
    {"core.clean.iterations", "count"},
    {"core.clean.violations", "count"},
    {"core.clean.fixes", "count"},
    {"repair.pass_s", "s"},
    {"repair.driver_s", "s"},
    {"repair.fixes_per_violation", "ratio"},
    {"core.apply_s", "s"},
    {"core.detect.call_s", "s"},
    {"core.detect.driver_s", "s"},
    {"core.detect.detect_calls", "count"},
    {"core.detect.hit_ratio", "ratio"},
    {"core.ocjoin.candidate_pairs", "count"},
    {"core.ocjoin.partition_pairs_pruned", "count"},
    {"core.stream.append_s", "s"},
    {"core.stream.poll_s", "s"},
    {"core.stream.retract_s", "s"},
    {"core.stream.flush_s", "s"},
    {"core.stream.window_detect_s", "s"},
    {"core.stream.window_repair_s", "s"},
    {"core.stream.append_land_s", "s"},
    {"core.stream.retract_land_s", "s"},
    {"core.stream.window_land_s", "s"},
    {"core.stream.flush_land_s", "s"},
    {"core.stream.candidate_rows", "count"},
    {"core.stream.dirty_blocks", "count"},
    {"core.stream.candidates_per_appended_row", "ratio"},
    {"core.stream.pool_growths", "count"},
    {"core.stream.kernel_rebinds", "count"},
    {"core.stream.index_rows", "count"},
    {"core.stream.window_iterations", "count"},
    {"dataflow.encode_s", "s"},
    {"dataflow.block_s", "s"},
    {"dataflow.shuffle_s", "s"},
    {"dataflow.enumerate_s", "s"},
    {"dataflow.sort_s", "s"},
    {"dataflow.repair_stage_s", "s"},
    {"dataflow.other_stage_s", "s"},
    {"dataflow.stage_wall_s", "s"},
    {"dataflow.busy_s", "s"},
    {"dataflow.parallel_efficiency", "ratio"},
    {"dataflow.driver_serial_s", "s"},
    {"dataflow.simulated_wall_s", "s"},
    {"dataflow.shuffled_records", "count"},
    {"dataflow.pairs_enumerated", "count"},
    {"dataflow.tasks", "count"},
    {"dataflow.morsels", "count"},
    {"dataflow.steals", "count"},
    {"dataflow.retries", "count"},
    {"dataflow.alloc_bytes", "B"},
    {"dataflow.straggler_ratio_max", "ratio"},
    {"data.profile_s", "s"},
    {"obs.quality_overhead_ratio", "ratio"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.job_wall_s", "s"},
    {"bench.unattributed_s", "s"},
    {"bench.unattributed_share", "ratio"},
};

/// Bounds on the jobs of one measured phase.
constexpr size_t kMinJobs = 2;
constexpr size_t kMaxJobs = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: argument %s has no value\n",
                 argv[argc - 1]);
    return false;
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

/// Names of BD_* environment variables; the library reads them to change
/// thread counts, kernels, morsels, fault injection and recorders.
std::vector<std::string> LibraryEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BD_", 3) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
  }
  return names;
}

/// Turns the process-global Trace, Lineage and Quality recorders off and
/// empties them, with the metrics registry and stream directory, so no
/// state carries from one job into the next.
void ResetRecorders() {
  bigdansing::TraceRecorder::Instance().set_enabled(false);
  bigdansing::TraceRecorder::Instance().Clear();
  bigdansing::LineageRecorder::Instance().set_enabled(false);
  bigdansing::LineageRecorder::Instance().Clear();
  bigdansing::QualityRecorder::Instance().set_enabled(false);
  bigdansing::QualityRecorder::Instance().Clear();
  bigdansing::MetricsRegistry::Instance().ResetAll();
  bigdansing::StreamDirectory::Instance().Clear();
}

/// Median (mean of the middle two for an even count); 0 for no samples.
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : ", ") + Num(v);
  return out;
}

/// Calls attempted and failed over every job of the run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Add(const JobResult& job) {
    attempted += job.calls;
    failed += job.failed;
    if (first_error.empty()) first_error = job.error;
  }
};

/// Builds the workload and runs its set-up; null when set-up failed.
std::unique_ptr<Workload> SetUp(const Args& args, size_t workers,
                                double* seconds) {
  ResetRecorders();
  const double t0 = NowSeconds();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  std::string error;
  if (!workload->Setup(args.seed, workers, &error)) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return nullptr;
  }
  *seconds = NowSeconds() - t0;
  return workload;
}

std::string QualityJson(const Workload& workload) {
  std::string out;
  for (const auto& [name, value] : workload.Quality()) {
    out += (out.empty() ? "\"" : ", \"") + name + "\": " + Num(value);
  }
  return "{" + out + "}";
}

/// --trace 0: untraced jobs back to back for --seconds. Prints the raw
/// samples as one JSON line; run.py pools the samples of several such
/// processes into the end-to-end metrics.
int RunUntraced(const Args& args, size_t workers, size_t nproc) {
  double setup_s = 0.0;
  std::unique_ptr<Workload> workload = SetUp(args, workers, &setup_s);
  if (workload == nullptr) return 1;
  Tally tally;
  std::vector<double> walls, windows, flushes;
  const double deadline = NowSeconds() + args.seconds;
  while (walls.size() < kMinJobs ||
         (NowSeconds() < deadline && walls.size() < kMaxJobs)) {
    ResetRecorders();
    const JobResult job = workload->RunJob(nullptr, nullptr);
    tally.Add(job);
    walls.push_back(job.wall_s);
    windows.insert(windows.end(), job.windows_s.begin(), job.windows_s.end());
    flushes.push_back(job.flush_s);
  }
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", tally.first_error.c_str());
  }
  std::printf(
      "{\"perfbench_samples\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"workers\": %zu, \"nproc\": %zu, \"build_type\": \"%s\", "
      "\"input_rows\": %zu, \"setup_s\": %s, \"job_s\": [%s], "
      "\"window_s\": [%s], \"flush_s\": [%s], \"peak_rss_mb\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"quality\": %s, "
      "\"reference\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      workers, nproc, PERFBENCH_BUILD_TYPE, workload->input_rows(),
      Num(setup_s).c_str(), Join(walls).c_str(), Join(windows).c_str(),
      Join(flushes).c_str(), Num(PeakRssMb()).c_str(),
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed),
      QualityJson(*workload).c_str(), workload->Reference().c_str());
  return 0;
}

/// --trace 1: rounds of three jobs (untraced, QualityRecorder on, traced)
/// for --seconds. The first two give the overhead bases; the traced job
/// with the median wall gives the per-layer metrics and the ledger.
int RunTraced(const Args& args, size_t workers, size_t nproc) {
  double setup_s = 0.0;
  std::unique_ptr<Workload> workload = SetUp(args, workers, &setup_s);
  if (workload == nullptr) return 1;
  Tally tally;
  Tracer tracer;
  std::vector<double> walls, quality_walls, traced_walls;
  std::vector<std::pair<int, LayerValues>> traced;
  const double deadline = NowSeconds() + args.seconds;
  while (traced.size() < 2 || NowSeconds() < deadline) {
    ResetRecorders();
    const JobResult plain = workload->RunJob(nullptr, nullptr);
    tally.Add(plain);
    walls.push_back(plain.wall_s);
    ResetRecorders();
    bigdansing::QualityRecorder::Instance().set_enabled(true);
    const JobResult with_quality = workload->RunJob(nullptr, nullptr);
    tally.Add(with_quality);
    quality_walls.push_back(with_quality.wall_s);
    ResetRecorders();
    LayerValues layers;
    const JobResult job = workload->RunJob(&tracer, &layers);
    tally.Add(job);
    traced_walls.push_back(job.wall_s);
    traced.emplace_back(tracer.last_job(), std::move(layers));
  }
  ResetRecorders();
  std::sort(traced.begin(), traced.end(), [&](const auto& a, const auto& b) {
    return tracer.JobWall(a.first) < tracer.JobWall(b.first);
  });
  auto& [job, layers] = traced[(traced.size() - 1) / 2];
  tally.Add(workload->MeasureLayers(&tracer, &layers));

  const double wall = tracer.JobWall(job);
  const std::map<std::string, double> ledger = tracer.SelfTimeByLayer(job);
  double ledger_sum = 0.0;
  for (const auto& [layer, seconds] : ledger) {
    layers[layer] = seconds;
    ledger_sum += seconds;
  }
  layers["bench.job_wall_s"] = wall;
  layers["bench.unattributed_share"] = layers[kUnattributed] / wall;
  layers["dataflow.driver_serial_s"] = wall - layers["dataflow.stage_wall_s"];
  layers["dataflow.parallel_efficiency"] =
      layers["dataflow.stage_wall_s"] > 0
          ? layers["dataflow.busy_s"] / (layers["dataflow.stage_wall_s"] *
                                         static_cast<double>(workers))
          : 0.0;
  layers["obs.quality_overhead_ratio"] = Median(quality_walls) / Median(walls);
  layers["bench.trace_overhead_ratio"] = Median(traced_walls) / Median(walls);

  std::printf("perfbench %s seed=%llu: traced job ledger (self time, wall "
              "%.4f s)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), wall);
  for (const auto& [layer, seconds] : ledger) {
    std::printf("  %-28s %9.4f s  %5.1f%%\n", layer.c_str(), seconds,
                100.0 * seconds / wall);
  }
  std::printf("  %-28s %9.4f s  (unattributed share %.2f%%)\n", "sum",
              ledger_sum, 100.0 * layers[kUnattributed] / wall);
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string json = tracer.ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"workers\": "
      "%zu, \"nproc\": %zu, \"build_type\": \"%s\", \"setup_s\": %s, "
      "\"job_s\": [%s], \"ledger_sum_s\": %s, \"job_wall_s\": %s, "
      "\"quality\": %s, \"reference\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      workers, nproc, PERFBENCH_BUILD_TYPE, Num(setup_s).c_str(),
      Join(walls).c_str(), Num(ledger_sum).c_str(), Num(wall).c_str(),
      QualityJson(*workload).c_str(), workload->Reference().c_str());
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", tally.first_error.c_str());
  }

  std::string out = std::string("{\"correct\": ") +
                    (tally.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  for (const MetricDef& def : kPerLayer) {
    if (out.back() != '{') out += ", ";
    out += "\"" + std::string(def.name) + "\": {\"value\": " +
           Num(layers[def.name]) + ", \"unit\": \"" + def.unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir D]\n");
    return 2;
  }
  if (!perfbench::MakeWorkload(args.workload)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::vector<std::string> env = perfbench::LibraryEnvironment();
  if (!env.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with library variables set "
                 "(%s ...); unset every BD_* variable\n",
                 env.front().c_str());
    return 2;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = std::min<size_t>(4, nproc);
  return args.trace == 0 ? perfbench::RunUntraced(args, workers, nproc)
                         : perfbench::RunTraced(args, workers, nproc);
}
