// Observability tests: the TraceRecorder span hierarchy, Chrome-trace and
// EXPLAIN exports, JSON escaping, stage-handle lifecycle across Reset(),
// task-skew quantiles, and the BD_LOG_LEVEL wiring. JSON outputs are
// checked with the shared strict mini parser (strict_json_test_util.h) so
// a malformed emitter cannot hide behind substring assertions.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/bigdansing.h"
#include "datagen/datagen.h"
#include "dataflow/dataset.h"
#include "rules/parser.h"
#include "strict_json_test_util.h"

namespace bigdansing {
namespace {

/// RAII guard: enables the recorder for one test and restores the
/// disabled-and-empty state afterwards so tests stay order-independent.
struct TracingOn {
  TracingOn() {
    TraceRecorder::Instance().Clear();
    TraceRecorder::Instance().set_enabled(true);
  }
  ~TracingOn() {
    TraceRecorder::Instance().set_enabled(false);
    TraceRecorder::Instance().Clear();
  }
};

// ---------------------------------------------------------------------------
// The parser itself must be strict, or the emitter tests prove nothing.
// ---------------------------------------------------------------------------

TEST(StrictJson, AcceptsValidDocuments) {
  JsonValue v;
  EXPECT_TRUE(ParsesStrictly("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":\"x\"},"
                             "\"d\":true,\"e\":null}",
                             &v));
  ASSERT_EQ(v.kind, JsonValue::kObject);
  ASSERT_NE(v.Find("a"), nullptr);
  EXPECT_EQ(v.Find("a")->array.size(), 3u);
  EXPECT_EQ(v.Find("b")->Find("c")->str, "x");
}

TEST(StrictJson, RejectsTrailingCommasAndBadEscapes) {
  JsonValue v;
  EXPECT_FALSE(ParsesStrictly("[1,2,]", &v));
  EXPECT_FALSE(ParsesStrictly("{\"a\":1,}", &v));
  EXPECT_FALSE(ParsesStrictly("\"\\x\"", &v));
  EXPECT_FALSE(ParsesStrictly("\"\\u12g4\"", &v));
  EXPECT_FALSE(ParsesStrictly("\"unterminated", &v));
  EXPECT_FALSE(ParsesStrictly("{\"a\":1} extra", &v));
  EXPECT_FALSE(ParsesStrictly("\"raw\ncontrol\"", &v));
}

// ---------------------------------------------------------------------------
// JsonEscape (satellite: control characters, standard escapes, round-trip).
// ---------------------------------------------------------------------------

TEST(JsonEscape, StandardEscapesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape("a\bb\fc"), "a\\bb\\fc");
  // Control characters without a short escape must become \u00XX, not be
  // dropped (the old Metrics escaper silently removed them).
  EXPECT_EQ(JsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(JsonEscape(std::string("\x1f", 1)), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string("nul\0!", 5)), "nul\\u0000!");
}

TEST(JsonEscape, RoundTripsThroughStrictParser) {
  const std::string original = "line1\nline2\ttab \"quoted\" \x01\x1f\\end";
  JsonValue v;
  ASSERT_TRUE(ParsesStrictly("\"" + JsonEscape(original) + "\"", &v));
  EXPECT_EQ(v.kind, JsonValue::kString);
  EXPECT_EQ(v.str, original);
}

// ---------------------------------------------------------------------------
// Metrics: handle lifecycle across Reset(), task quantiles, strict JSON.
// ---------------------------------------------------------------------------

TEST(Metrics, ResetWhileStageOpenMakesHandleStale) {
  Metrics m;
  size_t handle = m.BeginStage("doomed", 2);
  m.Reset();
  // The stale handle must neither corrupt the new epoch's reports nor leak
  // into global counters.
  TaskContext tc;
  tc.records_in = 10;
  tc.shuffled_records = 7;
  m.AccumulateTask(handle, tc, 0.5);
  m.FinishStage(handle, 1.0);
  EXPECT_EQ(m.shuffled_records(), 0u);
  EXPECT_TRUE(m.StageReports().empty());
  EXPECT_EQ(m.StageReportFor(handle).tasks, 0u);

  // A post-Reset stage with the same index must not be hit by the old
  // handle either, even though the indices collide.
  size_t fresh = m.BeginStage("fresh", 1);
  m.AccumulateTask(handle, tc, 0.5);
  m.FinishStage(handle, 9.0);
  StageReport fresh_report = m.StageReportFor(fresh);
  EXPECT_EQ(fresh_report.records_in, 0u);
  EXPECT_EQ(fresh_report.wall_seconds, 0.0);

  // The fresh handle still works normally.
  m.AccumulateTask(fresh, tc, 0.25);
  m.FinishStage(fresh, 2.0);
  fresh_report = m.StageReportFor(fresh);
  EXPECT_EQ(fresh_report.records_in, 10u);
  EXPECT_EQ(fresh_report.wall_seconds, 2.0);
  EXPECT_EQ(m.shuffled_records(), 7u);  // One valid AccumulateTask call.
}

TEST(Metrics, TaskTimeQuantilesAndStragglerRatio) {
  Metrics m;
  size_t handle = m.BeginStage("skewed", 4);
  TaskContext tc;
  m.AccumulateTask(handle, tc, 1.0);
  m.AccumulateTask(handle, tc, 3.0);
  m.AccumulateTask(handle, tc, 2.0);
  m.AccumulateTask(handle, tc, 10.0);
  m.FinishStage(handle, 10.0);
  StageReport r = m.StageReportFor(handle);
  EXPECT_DOUBLE_EQ(r.TaskMinSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(r.TaskP50Seconds(), 2.0);  // Lower median of {1,2,3,10}.
  EXPECT_DOUBLE_EQ(r.TaskMaxSeconds(), 10.0);
  EXPECT_DOUBLE_EQ(r.StragglerRatio(), 10.0 / 4.0);  // Mean is 4.0.

  StageReport empty;
  EXPECT_DOUBLE_EQ(empty.TaskMinSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(empty.StragglerRatio(), 0.0);
}

TEST(Metrics, ToJsonIsStrictJsonWithSkewFields) {
  ExecutionContext ctx(2);
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(&ctx, data, 2);
  ds.Filter([](const int& x) { return x < 40; }).Collect();

  JsonValue doc;
  StrictJsonParser parser(ctx.metrics().ToJson());
  ASSERT_TRUE(parser.Parse(&doc)) << parser.error();
  const JsonValue* reports = doc.Find("stage_reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->kind, JsonValue::kArray);
  ASSERT_EQ(reports->array.size(), 1u);
  const JsonValue& stage = reports->array[0];
  EXPECT_EQ(stage.Find("name")->str, "filter");
  EXPECT_EQ(stage.Find("records_in")->number, 100.0);
  EXPECT_EQ(stage.Find("records_out")->number, 40.0);
  ASSERT_NE(stage.Find("task_seconds_min"), nullptr);
  ASSERT_NE(stage.Find("task_seconds_p50"), nullptr);
  ASSERT_NE(stage.Find("task_seconds_max"), nullptr);
  ASSERT_NE(stage.Find("straggler_ratio"), nullptr);
  EXPECT_LE(stage.Find("task_seconds_min")->number,
            stage.Find("task_seconds_p50")->number);
  EXPECT_LE(stage.Find("task_seconds_p50")->number,
            stage.Find("task_seconds_max")->number);
  // A stage name with JSON-hostile characters must still produce valid
  // output end to end.
  ctx.metrics().Reset();
  size_t handle = ctx.metrics().BeginStage("we\"ird\nstage", 1);
  ctx.metrics().FinishStage(handle, 0.0);
  StrictJsonParser hostile(ctx.metrics().ToJson());
  ASSERT_TRUE(hostile.Parse(&doc)) << hostile.error();
  EXPECT_EQ(doc.Find("stage_reports")->array[0].Find("name")->str,
            "we\"ird\nstage");
}

// ---------------------------------------------------------------------------
// TraceRecorder core behaviour.
// ---------------------------------------------------------------------------

TEST(TraceRecorder, DisabledRecorderIsInertAndFree) {
  TraceRecorder& trace = TraceRecorder::Instance();
  trace.set_enabled(false);
  trace.Clear();
  EXPECT_EQ(trace.Begin("x", "job", 0), 0u);
  {
    ScopedSpan span("y", "stage");
    EXPECT_EQ(span.id(), 0u);
    span.Annotate("k", uint64_t{1});
  }
  trace.End(0);
  trace.Annotate(0, "k", std::string("v"));
  EXPECT_EQ(trace.SpanCount(), 0u);
  EXPECT_EQ(trace.CurrentSpan(), 0u);
}

TEST(TraceRecorder, ScopedSpansNestViaThreadLocalStack) {
  TracingOn on;
  TraceRecorder& trace = TraceRecorder::Instance();
  {
    ScopedSpan job("clean", "job");
    ASSERT_NE(job.id(), 0u);
    EXPECT_EQ(trace.CurrentSpan(), job.id());
    {
      ScopedSpan rule("phi1", "rule");
      EXPECT_EQ(trace.CurrentSpan(), rule.id());
      ScopedSpan op("block", "operator");
      op.Annotate("records_in", uint64_t{42});
      auto spans = trace.Spans();
      ASSERT_EQ(spans.size(), 3u);
      EXPECT_EQ(spans[1].parent, job.id());
      EXPECT_EQ(spans[2].parent, spans[1].id);
    }
    EXPECT_EQ(trace.CurrentSpan(), job.id());
  }
  EXPECT_EQ(trace.CurrentSpan(), 0u);
  auto spans = trace.Spans();
  for (const auto& s : spans) {
    EXPECT_FALSE(s.open) << s.name;
    EXPECT_GE(s.duration_us, 0.0);
  }
  EXPECT_EQ(spans[2].args.size(), 1u);
  EXPECT_EQ(spans[2].args[0].first, "records_in");
  EXPECT_EQ(spans[2].args[0].second, "42");
}

TEST(TraceRecorder, ClearMakesOldSpanIdsStale) {
  TracingOn on;
  TraceRecorder& trace = TraceRecorder::Instance();
  uint64_t old_id = trace.Begin("stale", "stage", 0);
  ASSERT_NE(old_id, 0u);
  trace.Clear();
  uint64_t fresh = trace.Begin("fresh", "stage", 0);
  // Operations on the pre-Clear id must not touch the new span, even
  // though the underlying vector slot is reused.
  trace.Annotate(old_id, "poison", std::string("yes"));
  trace.End(old_id);
  auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "fresh");
  EXPECT_TRUE(spans[0].args.empty());
  EXPECT_TRUE(spans[0].open);
  trace.End(fresh);
}

TEST(TraceRecorder, ChromeTraceExportIsStrictJson) {
  TracingOn on;
  TraceRecorder& trace = TraceRecorder::Instance();
  {
    ScopedSpan job("detect", "job");
    ScopedSpan stage("scope|block \"x\"", "stage");
    ScopedSpan task("scope|block#0", "task", stage.id(), /*lane=*/2);
    task.Annotate("note", std::string("line1\nline2"));
  }
  JsonValue doc;
  StrictJsonParser parser(trace.ToChromeTraceJson());
  ASSERT_TRUE(parser.Parse(&doc)) << parser.error();
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);

  size_t metadata = 0;
  size_t complete = 0;
  bool saw_worker_lane = false;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.Find("ph")->str;
    if (ph == "M") {
      ++metadata;
      if (e.Find("args")->Find("name")->str == "worker-2") {
        saw_worker_lane = true;
      }
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_NE(e.Find("ts"), nullptr);
    EXPECT_NE(e.Find("dur"), nullptr);
    EXPECT_NE(e.Find("args")->Find("span_id"), nullptr);
  }
  EXPECT_EQ(complete, 3u);
  EXPECT_GE(metadata, 2u);  // driver + worker-2 lanes.
  EXPECT_TRUE(saw_worker_lane);
}

// ---------------------------------------------------------------------------
// End-to-end: the engine's span hierarchy and EXPLAIN reconciliation.
// ---------------------------------------------------------------------------

TEST(TraceIntegration, DetectProducesJobRuleOperatorStageTaskHierarchy) {
  TracingOn on;
  auto data = GenerateTaxA(300, 0.05, /*seed=*/11);
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto detection =
      engine.Detect(data.dirty, *ParseRule("phi1: FD: zipcode -> city"));
  ASSERT_TRUE(detection.ok());

  auto spans = TraceRecorder::Instance().Spans();
  std::map<std::string, size_t> by_category;
  for (const auto& s : spans) ++by_category[s.category];
  EXPECT_EQ(by_category["job"], 1u);
  EXPECT_EQ(by_category["rule"], 1u);
  EXPECT_GE(by_category["operator"], 1u);
  EXPECT_GE(by_category["stage"], 1u);
  EXPECT_GE(by_category["task"], 1u);

  // Every span closed, and the chain task -> stage -> ... -> job is intact.
  std::map<uint64_t, const TraceSpan*> by_id;
  for (const auto& s : spans) {
    EXPECT_FALSE(s.open) << s.name;
    by_id[s.id] = &s;
  }
  for (const auto& s : spans) {
    if (s.category == "job") {
      EXPECT_EQ(s.parent, 0u);
      continue;
    }
    ASSERT_NE(by_id.count(s.parent), 0u) << s.name << " has dangling parent";
    if (s.category == "task") {
      EXPECT_EQ(by_id[s.parent]->category, "stage") << s.name;
      EXPECT_GE(s.lane, 0) << s.name;
    }
  }

  // The Chrome export of a real run must still be strict JSON.
  JsonValue doc;
  StrictJsonParser parser(TraceRecorder::Instance().ToChromeTraceJson());
  ASSERT_TRUE(parser.Parse(&doc)) << parser.error();
}


TEST(TraceIntegration, DetectObjectsStageNestsUnderDetectJob) {
  TracingOn on;
  // Enough violations that public Detect builds its objects in a stage.
  auto data = GenerateTaxA(20000, 0.1, /*seed=*/2);
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto detection =
      engine.Detect(data.dirty, *ParseRule("phi1: FD: zipcode -> city"));
  ASSERT_TRUE(detection.ok());
  ASSERT_GE(detection->violations.size(), 8192u);

  auto spans = TraceRecorder::Instance().Spans();
  std::map<uint64_t, const TraceSpan*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  size_t objects_stages = 0;
  for (const auto& s : spans) {
    if (s.category != "stage" || s.name != "detect:objects") continue;
    ++objects_stages;
    const TraceSpan* up = &s;
    while (up->parent != 0) {
      ASSERT_NE(by_id.count(up->parent), 0u) << up->name;
      up = by_id[up->parent];
    }
    EXPECT_EQ(up->category, "job");
    EXPECT_EQ(up->name, "detect");
  }
  EXPECT_EQ(objects_stages, 1u);
}
TEST(TraceIntegration, ExplainReconcilesWithStageReports) {
  TracingOn on;
  auto data = GenerateTaxA(300, 0.05, /*seed=*/11);
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  ASSERT_TRUE(
      engine.Detect(data.dirty, *ParseRule("phi1: FD: zipcode -> city")).ok());

  // Stage spans are begun on the driver thread in execution order, so they
  // correspond 1:1, in order, with Metrics::StageReports().
  auto reports = ctx.metrics().StageReports();
  std::vector<TraceSpan> stage_spans;
  for (const auto& s : TraceRecorder::Instance().Spans()) {
    if (s.category == "stage") stage_spans.push_back(s);
  }
  ASSERT_EQ(stage_spans.size(), reports.size());
  ASSERT_FALSE(reports.empty());

  auto arg = [](const TraceSpan& s, const std::string& key) -> std::string {
    for (const auto& [k, v] : s.args) {
      if (k == key) return v;
    }
    return "<missing>";
  };
  char buf[32];
  for (size_t i = 0; i < reports.size(); ++i) {
    const StageReport& r = reports[i];
    const TraceSpan& s = stage_spans[i];
    EXPECT_EQ(s.name, r.name);
    EXPECT_EQ(arg(s, "tasks"), std::to_string(r.tasks)) << r.name;
    EXPECT_EQ(arg(s, "records_in"), std::to_string(r.records_in)) << r.name;
    EXPECT_EQ(arg(s, "records_out"), std::to_string(r.records_out)) << r.name;
    EXPECT_EQ(arg(s, "shuffled_records"), std::to_string(r.shuffled_records))
        << r.name;
    std::snprintf(buf, sizeof(buf), "%.6f", r.busy_seconds);
    EXPECT_EQ(arg(s, "busy_seconds"), buf) << r.name;
    std::snprintf(buf, sizeof(buf), "%.6f", r.StragglerRatio());
    EXPECT_EQ(arg(s, "straggler_ratio"), buf) << r.name;
  }

  // And the rendered tree carries those reconciled numbers.
  std::string tree = TraceRecorder::Instance().ExplainTree();
  EXPECT_NE(tree.find("EXPLAIN (runtime)"), std::string::npos);
  EXPECT_NE(tree.find("[job] detect"), std::string::npos);
  EXPECT_NE(tree.find("[rule] phi1"), std::string::npos);
  EXPECT_NE(tree.find("[stage] " + reports[0].name), std::string::npos);
  EXPECT_NE(tree.find("records_in=" + std::to_string(reports[0].records_in)),
            std::string::npos);
  EXPECT_EQ(tree.find("[task]"), std::string::npos)
      << "task spans must fold into their stage, not print as nodes";
}

TEST(TraceIntegration, CleanProducesPhaseSpansPerIteration) {
  TracingOn on;
  auto data = GenerateTaxA(300, 0.1, /*seed=*/3);
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report =
      system.Clean(&working, {*ParseRule("phi1: FD: zipcode -> city")});
  ASSERT_TRUE(report.ok());

  size_t jobs = 0;
  size_t detect_phases = 0;
  size_t repair_phases = 0;
  uint64_t job_id = 0;
  auto spans = TraceRecorder::Instance().Spans();
  for (const auto& s : spans) {
    if (s.category == "job") {
      ++jobs;
      job_id = s.id;
      EXPECT_EQ(s.name, "clean");
    }
  }
  for (const auto& s : spans) {
    if (s.category != "phase") continue;
    EXPECT_EQ(s.parent, job_id) << s.name;
    if (s.name.rfind("detect:", 0) == 0) ++detect_phases;
    if (s.name.rfind("repair:iter", 0) == 0) ++repair_phases;
  }
  EXPECT_EQ(jobs, 1u);
  EXPECT_EQ(detect_phases, report->iterations.size());
  // Converged final iteration detects but does not repair.
  EXPECT_EQ(repair_phases, report->iterations.size() - 1);
}

// ---------------------------------------------------------------------------
// BD_LOG_LEVEL wiring (satellite).
// ---------------------------------------------------------------------------

TEST(Logging, ParseLogLevelAcceptsAllSpellings) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  level = LogLevel::kDebug;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kDebug);  // Untouched on failure.
  EXPECT_FALSE(ParseLogLevel("", &level));
}

TEST(Logging, InitLoggingFromEnvAppliesBdLogLevel) {
  Logger& logger = Logger::Instance();
  const LogLevel saved = logger.min_level();
  ::setenv("BD_LOG_LEVEL", "error", 1);
  EXPECT_TRUE(InitLoggingFromEnv());
  EXPECT_EQ(logger.min_level(), LogLevel::kError);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));

  ::setenv("BD_LOG_LEVEL", "debug", 1);
  EXPECT_TRUE(InitLoggingFromEnv());
  EXPECT_EQ(logger.min_level(), LogLevel::kDebug);
  EXPECT_TRUE(LogEnabled(LogLevel::kDebug));

  ::setenv("BD_LOG_LEVEL", "bogus", 1);
  logger.set_min_level(LogLevel::kInfo);
  EXPECT_FALSE(InitLoggingFromEnv());
  EXPECT_EQ(logger.min_level(), LogLevel::kInfo);  // Unchanged.

  ::unsetenv("BD_LOG_LEVEL");
  EXPECT_FALSE(InitLoggingFromEnv());
  logger.set_min_level(saved);
}

}  // namespace
}  // namespace bigdansing
