// Tests for the live observability plane: the HTTP endpoint dispatch
// (strict JSON / Prometheus lint), live /stages snapshots including
// in-flight stages, the env-driven bootstrap (every variable, every
// endpoint over a real socket, every export file, checked writes), the
// sampling profiler's attribution, per-stage resource accounting, and the
// non-finite JSON regression.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "common/lineage.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "core/stream_session.h"
#include "datagen/datagen.h"
#include "dataflow/context.h"
#include "dataflow/stage_executor.h"
#include "obs/bootstrap.h"
#include "obs/http_server.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/resource_accounting.h"
#include "obs/stage_directory.h"
#include "obs/stream_stats.h"
#include "prom_lint_test_util.h"
#include "rules/parser.h"
#include "strict_json_test_util.h"

namespace bigdansing {
namespace {

bool ParsesStrictly(const std::string& text, JsonValue* out,
                    std::string* error) {
  StrictJsonParser parser(text);
  if (parser.Parse(out)) return true;
  *error = parser.error();
  return false;
}

TEST(ObsDispatchTest, HealthzIsStrictJson) {
  const ObsResponse resp = ObsServer::Dispatch("/healthz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/json");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(resp.body, &doc, &error)) << error;
  ASSERT_NE(doc.Find("status"), nullptr);
  EXPECT_EQ(doc.Find("status")->str, "ok");
  EXPECT_NE(doc.Find("uptime_seconds"), nullptr);
  EXPECT_NE(doc.Find("profiler_running"), nullptr);
  EXPECT_NE(doc.Find("live_contexts"), nullptr);
}

TEST(ObsDispatchTest, QueryStringsAreIgnored) {
  EXPECT_EQ(ObsServer::Dispatch("/healthz?verbose=1").status, 200);
  EXPECT_EQ(ObsServer::Dispatch("/nope").status, 404);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(
      ParsesStrictly(ObsServer::Dispatch("/nope").body, &doc, &error))
      << error;
}

TEST(ObsDispatchTest, MetricsEndpointPassesPrometheusLint) {
  // Populate all three metric kinds, including a histogram with samples
  // spread over several buckets.
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("obs_test.counter").Add(7);
  registry.GetGauge("obs_test.gauge").Set(-3);
  Histogram& hist = registry.GetHistogram("obs_test.hist");
  for (int i = 0; i < 100; ++i) hist.Observe(1e-5 * (1 + i % 17));

  const ObsResponse resp = ObsServer::Dispatch("/metrics");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("text/plain"), std::string::npos);
  std::vector<std::string> errors;
  EXPECT_TRUE(testing::ValidatePrometheusExposition(resp.body, &errors))
      << (errors.empty() ? std::string() : errors.front());
  EXPECT_NE(resp.body.find("obs_test_counter 7"), std::string::npos);
}

TEST(ObsDispatchTest, StagesEndpointReconcilesWithFinishedRun) {
  ExecutionContext ctx(2);
  StageExecutor exec(&ctx);
  ASSERT_TRUE(exec.Run("obs-reconcile-stage", 4,
                       [](size_t t, TaskContext& tc) {
                         tc.records_in = 10;
                         tc.records_out = 5;
                       })
                  .ok());

  const ObsResponse resp = ObsServer::Dispatch("/stages");
  EXPECT_EQ(resp.status, 200);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(resp.body, &doc, &error)) << error;

  // The live snapshot embeds each context's StageReportsJson() verbatim,
  // so the /stages body must contain the end-of-run dump byte-for-byte.
  EXPECT_NE(resp.body.find(ctx.metrics().StageReportsJson()),
            std::string::npos);

  // And the parsed report must show the finished stage with exact counts.
  const JsonValue* contexts = doc.Find("contexts");
  ASSERT_NE(contexts, nullptr);
  bool found = false;
  for (const JsonValue& context : contexts->array) {
    const JsonValue* reports = context.Find("stage_reports");
    if (reports == nullptr) continue;
    for (const JsonValue& report : reports->array) {
      const JsonValue* name = report.Find("name");
      if (name == nullptr || name->str != "obs-reconcile-stage") continue;
      found = true;
      EXPECT_EQ(report.Find("records_in")->number, 40);
      EXPECT_EQ(report.Find("records_out")->number, 20);
      EXPECT_EQ(report.Find("in_flight")->kind, JsonValue::kBool);
      EXPECT_FALSE(report.Find("in_flight")->boolean);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsDispatchTest, StagesEndpointShowsInFlightStage) {
  ExecutionContext ctx(2);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};

  std::string mid_run_body;
  std::thread runner([&] {
    StageExecutor exec(&ctx);
    EXPECT_TRUE(exec.Run("obs-inflight-stage", 2,
                         [&](size_t t, TaskContext& tc) {
                           tc.records_in = 1;
                           started.fetch_add(1);
                           std::unique_lock<std::mutex> lock(mu);
                           cv.wait(lock, [&] { return release; });
                         })
                    .ok());
  });

  // Wait until at least one task body is actually executing, then snapshot.
  while (started.load() == 0) std::this_thread::yield();
  mid_run_body = ObsServer::Dispatch("/stages").body;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  runner.join();

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(mid_run_body, &doc, &error)) << error;
  bool saw_in_flight = false;
  for (const JsonValue& context : doc.Find("contexts")->array) {
    const JsonValue* reports = context.Find("stage_reports");
    if (reports == nullptr) continue;
    for (const JsonValue& report : reports->array) {
      if (report.Find("name")->str != "obs-inflight-stage") continue;
      saw_in_flight = report.Find("in_flight")->boolean;
    }
  }
  EXPECT_TRUE(saw_in_flight)
      << "mid-run snapshot did not show the stage as in-flight: "
      << mid_run_body;

  // After the run the same stage must reconcile as finished.
  const std::string final_reports = ctx.metrics().StageReportsJson();
  EXPECT_NE(final_reports.find("\"name\":\"obs-inflight-stage\""),
            std::string::npos);
  EXPECT_NE(ObsServer::Dispatch("/stages").body.find(final_reports),
            std::string::npos);
}

TEST(ObsDispatchTest, ExplainEndpointRendersOpenSpans) {
  TraceRecorder& trace = TraceRecorder::Instance();
  trace.set_enabled(true);
  trace.Clear();
  {
    ScopedSpan open_span("obs-open-phase", "phase");
    const ObsResponse resp = ObsServer::Dispatch("/explain");
    EXPECT_EQ(resp.status, 200);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParsesStrictly(resp.body, &doc, &error)) << error;
    EXPECT_TRUE(doc.Find("enabled")->boolean);
    EXPECT_GE(doc.Find("spans")->number, 1);
    // The open span renders in the EXPLAIN tree before End() was called.
    EXPECT_NE(doc.Find("explain")->str.find("obs-open-phase"),
              std::string::npos);
  }
  trace.Clear();
  trace.set_enabled(false);
}

#ifndef _WIN32
/// One GET against the loopback server: the raw response (status line,
/// headers, body), or "" when the connection fails.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, request.data(), request.size(), 0) ==
          static_cast<ssize_t>(request.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

/// The body of a raw HTTP response ("" without a header terminator).
std::string HttpBody(const std::string& response) {
  const size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

TEST(ObsServerTest, ServesRealHttpRoundTrip) {
  ObsServer& server = ObsServer::Instance();
  ASSERT_TRUE(server.Start(0));  // ephemeral port
  ASSERT_TRUE(server.running());
  const uint16_t port = server.port();
  ASSERT_NE(port, 0);

  const std::string response = HttpGet(port, "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(HttpBody(response), &doc, &error))
      << error << ": " << response;
  EXPECT_EQ(doc.Find("status")->str, "ok");

  server.Stop();
  EXPECT_FALSE(server.running());
  // Stop/Start cycle works (fresh ephemeral port).
  ASSERT_TRUE(server.Start(0));
  server.Stop();
}

/// Reads a whole file ("" when it cannot be opened).
std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Non-empty lines of `text`.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Runs each bootstrap test with every observability variable unset and
/// puts the process-global plane back afterwards: the variables, the
/// recorder toggles and the logger threshold are restored, the server and
/// sampler stopped, and the spans, ledger, quality runs, samples, stream
/// records and temp files the test produced are dropped.
class ObsBootstrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(ObsServer::Instance().running());
    ASSERT_FALSE(Profiler::Instance().running());
    for (const char* name :
         {"BD_TRACE_JSON", "BD_EXPLAIN", "BD_LINEAGE_JSONL", "BD_QUALITY_JSONL",
          "BD_METRICS_JSON", "BD_METRICS_PROM", "BD_OBS_PORT", "BD_PROFILE_HZ",
          "BD_PROFILE_FOLDED"}) {
      const char* value = std::getenv(name);
      saved_env_.emplace_back(name, value == nullptr
                                        ? std::nullopt
                                        : std::optional<std::string>(value));
      ::unsetenv(name);
    }
  }

  void TearDown() override {
    ObsServer::Instance().Stop();
    Profiler::Instance().Stop();
    Profiler::Instance().ResetSamples();
    TraceRecorder::Instance().set_enabled(trace_on_);
    TraceRecorder::Instance().Clear();
    LineageRecorder::Instance().set_enabled(lineage_on_);
    LineageRecorder::Instance().Clear();
    QualityRecorder::Instance().set_enabled(quality_on_);
    QualityRecorder::Instance().Clear();
    StreamDirectory::Instance().Clear();
    Logger::Instance().set_min_level(log_level_);
    for (const auto& [name, value] : saved_env_) {
      if (value.has_value()) {
        ::setenv(name.c_str(), value->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
    for (const std::string& path : temp_files_) std::remove(path.c_str());
  }

  /// A fresh path in the test temp directory, removed on teardown.
  std::string TempPath(const std::string& name) {
    temp_files_.push_back(::testing::TempDir() + "bd_bootstrap_" +
                          std::to_string(::getpid()) + "_" + name);
    return temp_files_.back();
  }

  static void SetEnv(const char* name, const std::string& value) {
    ::setenv(name, value.c_str(), 1);
  }

  static bool HaveDevFull() { return ::access("/dev/full", W_OK) == 0; }

 private:
  const bool trace_on_ = TraceRecorder::Instance().enabled();
  const bool lineage_on_ = LineageRecorder::Instance().enabled();
  const bool quality_on_ = QualityRecorder::Instance().enabled();
  const LogLevel log_level_ = Logger::Instance().min_level();
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_env_;
  std::vector<std::string> temp_files_;
};

TEST_F(ObsBootstrapTest, WriteOutputTruncatesAndReportsOpenFailure) {
  const std::string path = TempPath("write_output.txt");
  ASSERT_TRUE(WriteOutput(path, "a longer first text\n"));
  ASSERT_TRUE(WriteOutput(path, "second\n"));
  EXPECT_EQ(ReadFile(path), "second\n");
  EXPECT_FALSE(
      WriteOutput(::testing::TempDir() + "bd-no-such-dir/out.txt", "text"));
}

TEST_F(ObsBootstrapTest, WriteOutputReportsFailedClose) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full is absent";
  // 100 bytes fit the stdio buffer: fwrite succeeds, and only fclose's
  // flush meets the full device.
  EXPECT_FALSE(WriteOutput("/dev/full", std::string(100, 'x')));
}

TEST_F(ObsBootstrapTest, FlushReportsFailedMetricsWrite) {
  EXPECT_TRUE(FlushObservability()) << "nothing requested, nothing failed";
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full is absent";
  SetEnv("BD_METRICS_JSON", "/dev/full");
  EXPECT_FALSE(FlushObservability());
}

TEST_F(ObsBootstrapTest, MalformedNumbersAreIgnored) {
  // A numeric prefix is not a number: neither value may start anything.
  SetEnv("BD_OBS_PORT", "8080x");
  SetEnv("BD_PROFILE_HZ", "97x");
  InitObservabilityFromEnv();
  EXPECT_FALSE(ObsServer::Instance().running());
  EXPECT_FALSE(Profiler::Instance().running());

  SetEnv("BD_PROFILE_HZ", "997");
  InitObservabilityFromEnv();
  EXPECT_TRUE(Profiler::Instance().running());
  EXPECT_EQ(Profiler::Instance().hz(), 997.0);
  EXPECT_FALSE(ObsServer::Instance().running());
}

TEST_F(ObsBootstrapTest, EnvVariablesDriveEveryPlane) {
  // Every file variable points into the temp directory and port 0 asks
  // for an ephemeral port: the environment-only wiring of the demos.
  const std::string trace_path = TempPath("trace.json");
  const std::string lineage_path = TempPath("lineage.jsonl");
  const std::string quality_path = TempPath("quality.jsonl");
  const std::string metrics_path = TempPath("metrics.json");
  const std::string prom_path = TempPath("metrics.prom");
  const std::string folded_path = TempPath("profile.folded");
  SetEnv("BD_TRACE_JSON", trace_path);
  SetEnv("BD_LINEAGE_JSONL", lineage_path);
  SetEnv("BD_QUALITY_JSONL", quality_path);
  SetEnv("BD_METRICS_JSON", metrics_path);
  SetEnv("BD_METRICS_PROM", prom_path);
  SetEnv("BD_PROFILE_FOLDED", folded_path);
  SetEnv("BD_PROFILE_HZ", "997");
  SetEnv("BD_OBS_PORT", "0");
  InitObservabilityFromEnv();
  ObsServer& server = ObsServer::Instance();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(Profiler::Instance().running());
  EXPECT_EQ(Profiler::Instance().hz(), 997.0);
  EXPECT_TRUE(TraceRecorder::Instance().enabled());
  EXPECT_TRUE(LineageRecorder::Instance().enabled());
  EXPECT_TRUE(QualityRecorder::Instance().enabled());

  // One Clean() and one named stream session, scraped while it is open.
  const RulePtr rule = *ParseRule("phi1: FD: zipcode -> city");
  const auto data = GenerateTaxA(3000, 0.1, /*seed=*/17);
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report = system.Clean(&working, {rule});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::string session_name = "bootstrap-stream";
  Table streamed(data.dirty.schema());
  StreamOptions options;
  options.session_name = session_name;
  options.batch_rows = 500;
  auto session = system.OpenStream(&streamed, {rule}, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const std::vector<Row>& rows = data.dirty.rows();
  for (size_t begin = 0; begin < rows.size(); begin += 500) {
    const size_t end = std::min(begin + 500, rows.size());
    ASSERT_TRUE(
        (*session)->Append(std::vector<Row>(rows.begin() + begin,
                                            rows.begin() + end))
            .ok());
    auto window = (*session)->Poll();
    ASSERT_TRUE(window.ok()) << window.status().ToString();
  }

  std::map<std::string, std::string> bodies;
  for (const char* path : {"/healthz", "/metrics", "/stages", "/explain",
                           "/quality", "/profile", "/streams", "/profilez"}) {
    const std::string response = HttpGet(server.port(), path);
    ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
        << path << ": " << response;
    bodies[path] = HttpBody(response);
  }
  std::map<std::string, JsonValue> docs;
  for (const char* path : {"/healthz", "/stages", "/explain", "/quality",
                           "/profile", "/streams"}) {
    std::string error;
    ASSERT_TRUE(ParsesStrictly(bodies[path], &docs[path], &error))
        << path << ": " << error;
  }
  EXPECT_EQ(docs["/healthz"].Find("status")->str, "ok");
  EXPECT_GE(docs["/stages"].Find("live_contexts")->number, 1.0);
  size_t stage_reports = 0;
  for (const JsonValue& context : docs["/stages"].Find("contexts")->array) {
    const JsonValue* reports = context.Find("stage_reports");
    if (reports == nullptr) continue;
    for (const JsonValue& report : reports->array) {
      ++stage_reports;
      for (const char* key :
           {"alloc_bytes", "rss_delta_bytes", "steals", "in_flight"}) {
        EXPECT_NE(report.Find(key), nullptr) << key;
      }
    }
  }
  EXPECT_GT(stage_reports, 0u) << "no stage reports in the live /stages";
  EXPECT_TRUE(docs["/explain"].Find("enabled")->boolean);
  EXPECT_GT(docs["/explain"].Find("spans")->number, 0.0);
  EXPECT_NE(bodies["/profilez"].find("bigdansing;"), std::string::npos);

  std::vector<std::string> lint_errors;
  EXPECT_TRUE(
      testing::ValidatePrometheusExposition(bodies["/metrics"], &lint_errors))
      << (lint_errors.empty() ? std::string() : lint_errors.front());
  EXPECT_NE(bodies["/metrics"].find("# TYPE quality_"), std::string::npos)
      << "no quality_* families in /metrics";

  const JsonValue& profile = docs["/profile"];
  ASSERT_TRUE(profile.Find("has_profile")->boolean);
  const JsonValue* columns = profile.Find("profile")->Find("columns");
  ASSERT_FALSE(columns->array.empty());
  for (const JsonValue& col : columns->array) {
    EXPECT_NE(col.Find("null_rate"), nullptr) << col.Find("name")->str;
    EXPECT_NE(col.Find("top"), nullptr) << col.Find("name")->str;
  }

  const JsonValue& quality = docs["/quality"];
  EXPECT_TRUE(quality.Find("enabled")->boolean);
  size_t completed = 0;
  size_t session_runs = 0;
  bool session_violations = false;
  for (const JsonValue& run : quality.Find("runs")->array) {
    if (run.Find("in_progress")->boolean) continue;
    ++completed;
    const double violations = run.Find("violations")->number;
    const double fixes = run.Find("fixes")->number;
    EXPECT_GE(violations, fixes);
    EXPECT_GE(fixes, 0.0);
    EXPECT_EQ(static_cast<double>(run.Find("curve")->array.size()),
              run.Find("iterations")->number);
    if (run.Find("session")->str != session_name) continue;
    ++session_runs;
    session_violations = session_violations || violations > 0;
  }
  EXPECT_GE(completed, 2u) << "the Clean() run and the session's windows";
  EXPECT_GT(session_runs, 0u) << "no completed run tagged " << session_name;
  EXPECT_TRUE(session_violations) << "no window detected any violations";

  EXPECT_GE(docs["/streams"].Find("live_sessions")->number, 1.0);
  const JsonValue* stream = nullptr;
  for (const JsonValue& record : docs["/streams"].Find("records")->array) {
    if (record.Find("name")->str == session_name) stream = &record;
  }
  ASSERT_NE(stream, nullptr) << bodies["/streams"];
  EXPECT_TRUE(stream->Find("open")->boolean);
  for (const char* counter : {"appended_rows", "batches_processed",
                              "index_blocks", "index_rows", "fixes_applied"}) {
    EXPECT_GT(stream->Find(counter)->number, 0.0) << counter;
  }
  EXPECT_LE(stream->Find("rows")->number,
            stream->Find("appended_rows")->number);

  // Every export file, written by one flush while the plane keeps running.
  ASSERT_TRUE((*session)->Flush().ok());
  ASSERT_TRUE(FlushObservability());

  JsonValue trace;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(ReadFile(trace_path), &trace, &error)) << error;
  std::set<std::string> categories;
  for (const JsonValue& event : trace.Find("traceEvents")->array) {
    const JsonValue* cat = event.Find("cat");
    if (cat != nullptr && event.Find("ph")->str == "X") {
      categories.insert(cat->str);
    }
  }
  for (const char* want : {"job", "rule", "operator", "stage", "task"}) {
    EXPECT_EQ(categories.count(want), 1u) << "no " << want << " spans";
  }

  size_t lineage_fixes = 0;
  for (const std::string& line : Lines(ReadFile(lineage_path))) {
    JsonValue rec;
    ASSERT_TRUE(ParsesStrictly(line, &rec, &error)) << error << ": " << line;
    if (rec.Find("kind")->str != "fix") continue;
    ++lineage_fixes;
    for (const char* key : {"row_id", "column", "new_value", "strategy"}) {
      EXPECT_NE(rec.Find(key), nullptr) << key << ": " << line;
    }
  }
  EXPECT_GT(lineage_fixes, 0u);

  const std::vector<std::string> quality_lines =
      Lines(ReadFile(quality_path));
  EXPECT_FALSE(quality_lines.empty());
  for (const std::string& line : quality_lines) {
    JsonValue rec;
    ASSERT_TRUE(ParsesStrictly(line, &rec, &error)) << error << ": " << line;
    EXPECT_FALSE(rec.Find("in_progress")->boolean) << line;
    EXPECT_GE(rec.Find("violations")->number, rec.Find("fixes")->number)
        << line;
  }

  JsonValue metrics;
  EXPECT_TRUE(ParsesStrictly(ReadFile(metrics_path), &metrics, &error))
      << error;
  lint_errors.clear();
  EXPECT_TRUE(
      testing::ValidatePrometheusExposition(ReadFile(prom_path), &lint_errors))
      << (lint_errors.empty() ? std::string() : lint_errors.front());

  const std::vector<std::string> folded = Lines(ReadFile(folded_path));
  EXPECT_FALSE(folded.empty());
  for (const std::string& line : folded) {
    EXPECT_EQ(line.rfind("bigdansing;", 0), 0u) << line;
  }

  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_TRUE(ShutdownObservability());
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(Profiler::Instance().running());
}
#endif

/// Enables the quality recorder for one test and restores the disabled,
/// empty state so tests stay order-independent.
struct QualityOn {
  QualityOn() {
    QualityRecorder::Instance().Clear();
    QualityRecorder::Instance().set_enabled(true);
  }
  ~QualityOn() {
    QualityRecorder::Instance().set_enabled(false);
    QualityRecorder::Instance().Clear();
  }
};

TEST(ObsDispatchTest, QualityEndpointIsStrictJson) {
  QualityOn on;
  auto data = GenerateTaxA(1000, 0.1, /*seed=*/17);
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report =
      system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const ObsResponse resp = ObsServer::Dispatch("/quality");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/json");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(resp.body, &doc, &error)) << error;
  EXPECT_TRUE(doc.Find("enabled")->boolean);
  EXPECT_EQ(doc.Find("runs_begun")->number, 1.0);
  ASSERT_EQ(doc.Find("runs")->array.size(), 1u);
  const JsonValue& run = doc.Find("runs")->array[0];
  EXPECT_FALSE(run.Find("in_progress")->boolean);
  EXPECT_GT(run.Find("violations")->number, 0.0);
  EXPECT_GT(run.Find("fixes")->number, 0.0);
  ASSERT_GE(run.Find("rules_breakdown")->array.size(), 1u);
  EXPECT_EQ(run.Find("rules_breakdown")->array[0].Find("rule")->str, "phi1");
  // One run completed: no drift yet.
  EXPECT_EQ(doc.Find("drift")->kind, JsonValue::kNull);

  // The snapshot embeds each run's ToJson() verbatim — the same contract
  // /stages keeps with StageReportsJson().
  QualityRunRecord rec;
  ASSERT_TRUE(QualityRecorder::Instance().LatestRun(&rec));
  EXPECT_NE(resp.body.find(rec.ToJson()), std::string::npos);
}

TEST(ObsDispatchTest, ProfileEndpointServesLatestColumnProfile) {
  QualityOn on;
  // Before any run: the has_profile:false shell, still strict JSON.
  JsonValue empty_doc;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(ObsServer::Dispatch("/profile").body,
                             &empty_doc, &error))
      << error;
  EXPECT_FALSE(empty_doc.Find("has_profile")->boolean);
  EXPECT_EQ(empty_doc.Find("profile")->kind, JsonValue::kNull);

  auto data = GenerateTaxA(1000, 0.1, /*seed=*/19);
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report =
      system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const ObsResponse resp = ObsServer::Dispatch("/profile");
  EXPECT_EQ(resp.status, 200);
  JsonValue doc;
  ASSERT_TRUE(ParsesStrictly(resp.body, &doc, &error)) << error;
  EXPECT_TRUE(doc.Find("has_profile")->boolean);
  const JsonValue* profile = doc.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->Find("rows")->number,
            static_cast<double>(data.dirty.num_rows()));
  const JsonValue* columns = profile->Find("columns");
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(columns->array.size(), data.dirty.schema().num_attributes());
  bool saw_city = false;
  for (const JsonValue& col : columns->array) {
    if (col.Find("name")->str != "city") continue;
    saw_city = true;
    EXPECT_GT(col.Find("distinct")->number, 0.0);
    EXPECT_GE(col.Find("top")->array.size(), 1u);
  }
  EXPECT_TRUE(saw_city);
}

TEST(ObsDispatchTest, ConcurrentQualityScrapesDuringClean) {
  // A scraper thread hammers /quality and /profile while Clean() runs
  // repeatedly on another thread — the mid-run pattern the obs-smoke CI
  // step exercises, and the interleaving the TSan job watches. Every body
  // must parse strictly, cumulative counters must be monotone across
  // scrapes, and the final snapshot must embed the JSONL export's last
  // record byte-identically.
  QualityOn on;
  constexpr int kRuns = 4;

  std::atomic<bool> done{false};
  std::vector<std::string> quality_bodies;
  std::vector<std::string> profile_bodies;
  std::thread scraper([&] {
    while (!done.load()) {
      quality_bodies.push_back(ObsServer::Dispatch("/quality").body);
      profile_bodies.push_back(ObsServer::Dispatch("/profile").body);
      std::this_thread::yield();
    }
  });

  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  for (int i = 0; i < kRuns; ++i) {
    auto data = GenerateTaxA(3000, 0.1, /*seed=*/static_cast<uint64_t>(i));
    ExecutionContext ctx(4);
    BigDansing system(&ctx);
    Table working = data.dirty;
    auto report = system.Clean(&working, {rule});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  // One last scrape is guaranteed to observe the final state.
  done.store(true);
  scraper.join();
  quality_bodies.push_back(ObsServer::Dispatch("/quality").body);
  profile_bodies.push_back(ObsServer::Dispatch("/profile").body);

  double last_runs_begun = 0.0;
  double last_fix_total = 0.0;
  for (const std::string& body : quality_bodies) {
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParsesStrictly(body, &doc, &error)) << error << ": " << body;
    const double runs_begun = doc.Find("runs_begun")->number;
    EXPECT_GE(runs_begun, last_runs_begun) << "runs_begun went backwards";
    last_runs_begun = runs_begun;
    double fix_total = 0.0;
    for (const JsonValue& run : doc.Find("runs")->array) {
      fix_total += run.Find("fixes")->number;
    }
    EXPECT_GE(fix_total, last_fix_total) << "cumulative fixes went backwards";
    last_fix_total = fix_total;
  }
  EXPECT_EQ(last_runs_begun, static_cast<double>(kRuns));
  for (const std::string& body : profile_bodies) {
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParsesStrictly(body, &doc, &error)) << error << ": " << body;
  }

  // Final snapshot vs JSONL export: the last exported record appears in
  // the last scrape byte-for-byte.
  const std::string jsonl = QualityRecorder::Instance().ToJsonl();
  const size_t last_newline = jsonl.rfind('\n');
  ASSERT_NE(last_newline, std::string::npos);
  const size_t prev_newline = jsonl.rfind('\n', last_newline - 1);
  const std::string last_record =
      prev_newline == std::string::npos
          ? jsonl.substr(0, last_newline)
          : jsonl.substr(prev_newline + 1, last_newline - prev_newline - 1);
  ASSERT_FALSE(last_record.empty());
  EXPECT_NE(quality_bodies.back().find(last_record), std::string::npos);
}

TEST(ProfilerTest, InternDeduplicatesDescriptors) {
  Profiler& profiler = Profiler::Instance();
  const ActivityDesc* a = profiler.Intern("stage-a", "task");
  const ActivityDesc* b = profiler.Intern("stage-a", "task");
  const ActivityDesc* c = profiler.Intern("stage-a", "morsel");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a->stage, "stage-a");
  EXPECT_EQ(c->kind, "morsel");
}

TEST(ProfilerTest, AttributesSamplesToPublishedStages) {
  Profiler& profiler = Profiler::Instance();
  profiler.ResetSamples();
  profiler.Start(2000.0);

  ExecutionContext ctx(4);
  ctx.set_morsel_rows(64);
  StageExecutor exec(&ctx);
  // ~200ms of attributable busy work split across morsels.
  auto result = exec.RunMorsels<uint64_t>(
      "obs-profiled-stage", 4, [](size_t) { return size_t{4096}; },
      [](size_t t, size_t begin, size_t end, TaskContext& tc) {
        volatile uint64_t sink = 0;
        for (size_t i = begin; i < end; ++i) {
          for (int k = 0; k < 2000; ++k) sink = sink + i * k;
        }
        return static_cast<uint64_t>(sink);
      },
      [](size_t, std::vector<uint64_t>&& pieces) {
        uint64_t total = 0;
        for (uint64_t p : pieces) total += p;
        return total;
      });
  ASSERT_TRUE(result.ok());

  profiler.Stop();
  EXPECT_GT(profiler.TotalSamples(), 0u);
  const std::string folded = profiler.FoldedStacks();
  EXPECT_NE(folded.find("bigdansing;obs-profiled-stage;morsel "),
            std::string::npos)
      << folded;
  profiler.ResetSamples();
}

TEST(ProfilerTest, AttributesSamplesToKernelStages) {
  // The columnar detect kernels publish their own stage descriptors
  // (kernel:encode:*, kernel:block, kernel:iterate|detect|genfix); the
  // profiler must attribute samples to them just like interpreted stages.
  Profiler& profiler = Profiler::Instance();
  profiler.ResetSamples();
  profiler.Start(2000.0);

  ExecutionContext ctx(4);
  ctx.set_kernels_enabled(true);
  RuleEngine engine(&ctx);
  auto data = GenerateTaxA(20000, 0.1, /*seed=*/11);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  // Re-run until a sample lands inside a kernel stage (the kernels are
  // fast — that is the point — so one pass may finish between ticks).
  std::string folded;
  for (int attempt = 0; attempt < 10; ++attempt) {
    auto result = engine.Detect(data.dirty, rule);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->plan_description.find("[kernel]"), std::string::npos);
    folded = profiler.FoldedStacks();
    if (folded.find("bigdansing;kernel:") != std::string::npos) break;
  }
  profiler.Stop();
  EXPECT_NE(folded.find("bigdansing;kernel:"), std::string::npos) << folded;
  profiler.ResetSamples();
}

TEST(ProfilerTest, ScopedActivityNestsAndRestores) {
  Profiler& profiler = Profiler::Instance();
  const ActivityDesc* outer = profiler.Intern("outer", "task");
  const ActivityDesc* inner = profiler.Intern("inner", "morsel");
  ActivitySlot* slot = ThisThreadActivitySlot();
  EXPECT_EQ(slot->desc.load(), nullptr);
  {
    ScopedActivity a(outer);
    EXPECT_EQ(slot->desc.load(), outer);
    {
      ScopedActivity b(inner);
      EXPECT_EQ(slot->desc.load(), inner);
    }
    EXPECT_EQ(slot->desc.load(), outer);
  }
  EXPECT_EQ(slot->desc.load(), nullptr);
}

TEST(ResourceAccountingTest, CountsThreadLocalAllocations) {
  const ThreadAllocCounters before = ThreadAllocations();
  {
    std::vector<std::string> strings;
    for (int i = 0; i < 100; ++i) {
      strings.push_back(std::string(1024, 'x'));
    }
  }
  const ThreadAllocCounters after = ThreadAllocations();
  EXPECT_GE(after.count - before.count, 100u);
  EXPECT_GE(after.bytes - before.bytes, 100u * 1024u);
}

TEST(ResourceAccountingTest, RssIsReadableOnLinux) {
#ifdef __linux__
  EXPECT_GT(CurrentRssBytes(), 0u);
#else
  SUCCEED();
#endif
}

TEST(ResourceAccountingTest, StageReportCarriesAllocAndRss) {
  ExecutionContext ctx(2);
  StageExecutor exec(&ctx);
  ASSERT_TRUE(exec.Run("obs-alloc-stage", 2,
                       [](size_t t, TaskContext& tc) {
                         std::vector<std::string> data;
                         for (int i = 0; i < 50; ++i) {
                           data.push_back(std::string(2048, 'y'));
                         }
                         tc.records_in = data.size();
                       })
                  .ok());
  const std::vector<StageReport> reports = ctx.metrics().StageReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GE(reports[0].allocs, 100u);
  EXPECT_GE(reports[0].alloc_bytes, 2u * 50u * 2048u);
  EXPECT_TRUE(reports[0].finished);
  // The JSON rendering exposes the same fields.
  const std::string json = ctx.metrics().StageReportsJson();
  EXPECT_NE(json.find("\"alloc_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"rss_delta_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"steals\":"), std::string::npos);
  EXPECT_NE(json.find("\"in_flight\":false"), std::string::npos);
}

TEST(NonFiniteJsonTest, BuilderEmitsNullForInfAndNan) {
  JsonObjectBuilder builder;
  builder.Add("pos_inf", std::numeric_limits<double>::infinity());
  builder.Add("neg_inf", -std::numeric_limits<double>::infinity());
  builder.Add("nan", std::nan(""));
  builder.Add("finite", 1.5);
  const std::string json = builder.Build();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(json, &doc, &error)) << error << ": " << json;
  EXPECT_EQ(doc.Find("pos_inf")->kind, JsonValue::kNull);
  EXPECT_EQ(doc.Find("neg_inf")->kind, JsonValue::kNull);
  EXPECT_EQ(doc.Find("nan")->kind, JsonValue::kNull);
  EXPECT_EQ(doc.Find("finite")->number, 1.5);
}

TEST(NonFiniteJsonTest, StageReportWithNonFiniteTimeStaysStrictJson) {
  // Regression: a pathological busy-seconds measurement (inf/nan) must not
  // corrupt the JSON stage dump ("%.6f" renders inf as "inf").
  Metrics metrics;
  const size_t handle = metrics.BeginStage("obs-nonfinite-stage", 1);
  TaskContext tc;
  tc.records_in = 1;
  metrics.AccumulateTask(handle, tc,
                         std::numeric_limits<double>::infinity());
  metrics.FinishStage(handle, std::nan(""));
  const std::string json = metrics.StageReportsJson();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParsesStrictly(json, &doc, &error)) << error << ": " << json;
  ASSERT_EQ(doc.array.size(), 1u);
  EXPECT_EQ(doc.array[0].Find("busy_seconds")->kind, JsonValue::kNull);
  EXPECT_EQ(doc.array[0].Find("wall_seconds")->kind, JsonValue::kNull);
}

TEST(StageDirectoryTest, TracksLiveContexts) {
  const size_t baseline = StageDirectory::Instance().LiveCount();
  {
    ExecutionContext a(1);
    EXPECT_EQ(StageDirectory::Instance().LiveCount(), baseline + 1);
    {
      ExecutionContext b(1);
      EXPECT_EQ(StageDirectory::Instance().LiveCount(), baseline + 2);
    }
    EXPECT_EQ(StageDirectory::Instance().LiveCount(), baseline + 1);
  }
  EXPECT_EQ(StageDirectory::Instance().LiveCount(), baseline);
}

}  // namespace
}  // namespace bigdansing
