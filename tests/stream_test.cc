// Streaming cleanse sessions (BigDansing::OpenStream): the incremental
// violation index survives append/retract round-trips bit-identically,
// batched ingestion converges byte-identical to one-shot Clean() — with
// and without injected faults — and the backpressure / observability
// contracts hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "core/bigdansing.h"
#include "core/stream_session.h"
#include "data/csv.h"
#include "datagen/datagen.h"
#include "obs/stream_stats.h"
#include "rules/parser.h"
#include "strict_json_test_util.h"

namespace bigdansing {
namespace {

/// Canonical byte rendering of a table (row ids + every cell) for
/// bit-identical comparisons across ingestion strategies.
std::string Fingerprint(const Table& table) {
  std::string out;
  for (const Row& row : table.rows()) {
    out += std::to_string(row.id());
    for (size_t c = 0; c < row.size(); ++c) {
      out += '|';
      out += row.value(c).ToString();
    }
    out += "\n";
  }
  return out;
}

std::vector<RulePtr> TaxRules() {
  return {*ParseRule("phi1: FD: zipcode -> city"),
          *ParseRule("phi6: FD: zipcode -> state")};
}

/// RAII guard mirroring fault_test's: one test's faults never leak out.
struct InjectorGuard {
  ~InjectorGuard() {
    FaultInjector::Instance().Clear();
    FaultInjector::Instance().set_site_tracking(false);
    FaultInjector::Instance().ClearSeenSites();
  }
};

/// Ingests `data` into an empty table through a stream session in
/// `batches` micro-batches, flushes, and returns the repaired bytes.
std::string StreamedFingerprint(const Table& dirty,
                                const std::vector<RulePtr>& rules,
                                size_t batches, StreamOptions options) {
  Table streamed(dirty.schema());
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  auto session = system.OpenStream(&streamed, rules, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return "";

  const auto& rows = dirty.rows();
  const size_t per = (rows.size() + batches - 1) / batches;
  for (size_t begin = 0; begin < rows.size(); begin += per) {
    const size_t end = std::min(begin + per, rows.size());
    std::vector<Row> chunk(rows.begin() + begin, rows.begin() + end);
    EXPECT_TRUE((*session)->Append(std::move(chunk)).ok());
  }
  auto flush = (*session)->Flush();
  EXPECT_TRUE(flush.ok()) << flush.status().ToString();
  if (flush.ok()) EXPECT_TRUE(flush->converged);
  EXPECT_TRUE((*session)->Close().ok());
  return Fingerprint(streamed);
}

TEST(Stream, BatchedIngestConvergesByteIdenticalToClean) {
  auto data = GenerateTaxA(2000, 0.1, /*seed=*/51);
  auto rules = TaxRules();

  // Reference: one-shot Clean() over the whole dirty instance.
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report = system.Clean(&working, rules);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->converged);
  const std::string reference = Fingerprint(working);

  // The same rows ingested in K micro-batches must converge to the exact
  // same bytes, for several K including K=1.
  for (size_t batches : {size_t{1}, size_t{4}, size_t{13}}) {
    StreamOptions options;
    options.batch_rows = 100000;  // One Append = one batch.
    EXPECT_EQ(StreamedFingerprint(data.dirty, rules, batches, options),
              reference)
        << "ingesting in " << batches << " batches diverged from Clean()";
  }
}

TEST(Stream, ConvergesByteIdenticalUnderInjectedFaults) {
  InjectorGuard guard;
  auto data = GenerateTaxA(600, 0.1, /*seed=*/52);
  auto rules = TaxRules();

  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto report = system.Clean(&working, rules);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string reference = Fingerprint(working);

  // Transient faults everywhere, deep retry budget: the streamed run must
  // still land on the reference bytes.
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(injector.Configure("stage=*,kind=throw,prob=0.2", 77).ok());
  StreamOptions options;
  FaultPolicy policy;
  policy.max_attempts = 10;
  policy.stage_retry_budget = 4096;
  options.clean.fault_policy = policy;
  options.batch_rows = 100000;
  EXPECT_EQ(StreamedFingerprint(data.dirty, rules, 5, options), reference);
  EXPECT_GT(injector.injected_total(), 0u)
      << "the fault schedule never fired; the test proved nothing";
}

TEST(Stream, AppendThenRetractLeavesIndexBitIdentical) {
  // A clean instance: no violations, so windows never repair and the index
  // round-trip is isolated from repair-driven re-keying.
  auto data = GenerateTaxA(1500, 0.0, /*seed=*/53);
  auto rules = TaxRules();
  ExecutionContext ctx(4);
  BigDansing system(&ctx);

  Table working = data.clean;
  auto session = system.OpenStream(&working, rules, StreamOptions{});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto baseline = (*session)->IndexFingerprints();
  ASSERT_EQ(baseline.size(), rules.size());

  // Fresh build over an equal table reproduces the fingerprints exactly.
  Table fresh_table = data.clean;
  auto fresh = system.OpenStream(&fresh_table, rules, StreamOptions{});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->IndexFingerprints(), baseline);

  // Append duplicates of existing rows (same blocking keys, no new
  // violations), land them, then retract: the index must return to the
  // baseline bit-exactly even though pools may have grown meanwhile.
  std::vector<Row> extra;
  std::vector<RowId> extra_ids;
  RowId next_id = static_cast<RowId>(data.clean.num_rows()) + 1000;
  for (size_t i = 0; i < 50; ++i) {
    Row copy = data.clean.rows()[i];
    copy.set_id(next_id);
    extra_ids.push_back(next_id);
    ++next_id;
    extra.push_back(std::move(copy));
  }
  ASSERT_TRUE((*session)->Append(std::move(extra)).ok());
  auto flush = (*session)->Flush();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_NE((*session)->IndexFingerprints(), baseline)
      << "landing 50 rows must change block membership";

  ASSERT_TRUE((*session)->Retract(extra_ids).ok());
  EXPECT_EQ((*session)->IndexFingerprints(), baseline);
  EXPECT_EQ(working.num_rows(), data.clean.num_rows());

  // Retracting the same ids again is a no-op, not an error.
  ASSERT_TRUE((*session)->Retract(extra_ids).ok());
  EXPECT_EQ((*session)->IndexFingerprints(), baseline);
}

TEST(Stream, RetractionRemovesViolationsBeforeTheyLand) {
  auto table = ReadCsvString(
      "zipcode,city\n10001,ny\n10001,ny\n20001,dc\n20001,dc\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  auto rule = *ParseRule("f: FD: zipcode -> city");
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  auto session = system.OpenStream(&*table, {rule}, StreamOptions{});
  ASSERT_TRUE(session.ok());
  const std::string before = Fingerprint(*table);

  // A conflicting row enqueued but retracted before any Poll: it must
  // never reach the table and the flush must find nothing to repair.
  ASSERT_TRUE(
      (*session)
          ->Append({Row(99, {Value::Parse("10001"), Value::Parse("zz")})})
          .ok());
  ASSERT_TRUE((*session)->Retract({99}).ok());
  auto flush = (*session)->Flush();
  ASSERT_TRUE(flush.ok());
  EXPECT_TRUE(flush->converged);
  EXPECT_EQ(flush->total_applied_fixes, 0u);
  EXPECT_EQ(Fingerprint(*table), before);

  // The same conflicting row landed, then retracted: its violation leaves
  // with it, and re-verifying its former block repairs nothing.
  ASSERT_TRUE(
      (*session)
          ->Append({Row(99, {Value::Parse("10001"), Value::Parse("zz")})})
          .ok());
  auto poll = (*session)->Poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_TRUE((*session)->Retract({99}).ok());
  auto verify = (*session)->Flush();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->converged);
  EXPECT_EQ((*table).num_rows(), 4u);
}

TEST(Stream, RetractRepeatedIdRemovesOnlyThatRow) {
  auto table = ReadCsvString(
      "zipcode,city\n10001,ny\n10001,ny\n20001,dc\n20001,dc\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  auto session = system.OpenStream(
      &*table, {*ParseRule("f: FD: zipcode -> city")}, StreamOptions{});
  ASSERT_TRUE(session.ok());

  // The repeated id retracts row 1 once; row 2, which slides into its
  // position, stays in the table and in the index.
  ASSERT_TRUE((*session)->Retract({1, 1}).ok());
  std::vector<RowId> ids;
  for (const Row& row : table->rows()) ids.push_back(row.id());
  EXPECT_EQ(ids, (std::vector<RowId>{0, 2, 3}));
  const StreamSessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.retracted_rows, 1u);
  EXPECT_EQ(stats.index_rows, table->num_rows());
}

/// Outcome of one scattered-retraction run (see the test below).
struct ScatteredRun {
  std::vector<std::pair<size_t, size_t>> windows;  // violations, fixes
  std::string table;
  std::vector<std::pair<std::string, uint64_t>> index;
  std::vector<std::pair<std::string, uint64_t>> fresh_index;
};

/// Streams `dirty` in 10 rounds of Append(300 rows) -> Poll -> Retract the
/// first, middle, last and one seeded-random live row, then Flushes.
ScatteredRun RunScatteredRetraction(const Table& dirty,
                                    const std::vector<RulePtr>& rules,
                                    uint64_t seed, bool kernels) {
  constexpr size_t kBatch = 300;
  ScatteredRun out;
  ExecutionContext ctx(4);
  ctx.set_kernels_enabled(kernels);
  BigDansing system(&ctx);
  Table table(dirty.schema());
  StreamOptions options;
  options.batch_rows = kBatch;
  auto session = system.OpenStream(&table, rules, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return out;
  StreamSession& s = **session;

  std::mt19937_64 rng(seed);
  const auto& rows = dirty.rows();
  for (size_t begin = 0; begin + kBatch <= rows.size(); begin += kBatch) {
    EXPECT_TRUE(s.Append(std::vector<Row>(rows.begin() + begin,
                                          rows.begin() + begin + kBatch))
                    .ok());
    auto window = s.Poll();
    EXPECT_TRUE(window.ok()) << window.status().ToString();
    if (!window.ok()) return out;
    out.windows.emplace_back(window->violations, window->applied_fixes);

    const size_t n = table.num_rows();
    std::vector<size_t> victims = {0, n / 2, n - 1};
    size_t random = rng() % n;
    while (std::count(victims.begin(), victims.end(), random) > 0) {
      random = rng() % n;
    }
    victims.push_back(random);
    std::vector<RowId> ids;
    for (size_t pos : victims) ids.push_back(table.row(pos).id());
    EXPECT_TRUE(s.Retract(ids).ok());
  }
  auto flush = s.Flush();
  EXPECT_TRUE(flush.ok()) << flush.status().ToString();
  if (!flush.ok()) return out;
  EXPECT_TRUE(flush->converged);
  for (const auto& w : flush->windows) {
    out.windows.emplace_back(w.violations, w.applied_fixes);
  }
  out.table = Fingerprint(table);
  out.index = s.IndexFingerprints();

  Table copy = table;
  auto fresh = system.OpenStream(&copy, rules, StreamOptions{});
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  if (fresh.ok()) out.fresh_index = (*fresh)->IndexFingerprints();
  return out;
}

TEST(Stream, ScatteredRetractionKeepsPrescreenExact) {
  // Retracting rows from the front and middle of the table moves every
  // later row to a new position. The kernel prescreen reads the moved
  // rows' codes by position, so a run with kernels (and the prescreen)
  // must see every window exactly as a run without them.
  const std::vector<RulePtr> rules = {
      *ParseRule("phi6: FD: zipcode -> state"),
      *ParseRule("phi7: FD: phone -> zipcode"),
      *ParseRule("phi8: FD: provider_id -> city, phone")};
  for (uint64_t seed : {71u, 72u, 73u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto data = GenerateHai(3000, 0.1, seed);
    const ScatteredRun kernels =
        RunScatteredRetraction(data.dirty, rules, seed, /*kernels=*/true);
    const ScatteredRun interpreted =
        RunScatteredRetraction(data.dirty, rules, seed, /*kernels=*/false);
    ASSERT_FALSE(kernels.windows.empty());
    EXPECT_EQ(kernels.windows, interpreted.windows);
    EXPECT_EQ(kernels.table, interpreted.table);
    EXPECT_EQ(kernels.index, kernels.fresh_index);
    EXPECT_EQ(interpreted.index, interpreted.fresh_index);
  }
}

TEST(Stream, NonBlockingBackpressureRejectsWholeAppend) {
  auto data = GenerateTaxA(200, 0.0, /*seed=*/54);
  Table streamed(data.clean.schema());
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  StreamOptions options;
  options.batch_rows = 10;
  options.max_inflight_batches = 2;
  options.block_on_backpressure = false;
  auto session = system.OpenStream(&streamed, TaxRules(), options);
  ASSERT_TRUE(session.ok());

  std::vector<Row> first(data.clean.rows().begin(),
                         data.clean.rows().begin() + 20);
  ASSERT_TRUE((*session)->Append(std::move(first)).ok());
  EXPECT_EQ((*session)->pending_batches(), 2u);

  // The queue is at the bound: the next Append must be rejected in full —
  // nothing partially enqueued — with ResourceExhausted.
  std::vector<Row> second(data.clean.rows().begin() + 20,
                          data.clean.rows().begin() + 30);
  auto rejected = (*session)->Append(std::move(second));
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted)
      << rejected.ToString();
  EXPECT_EQ((*session)->pending_batches(), 2u);
  EXPECT_GE((*session)->stats().backpressure_rejections, 1u);

  // Draining one window frees a slot and the retry succeeds.
  ASSERT_TRUE((*session)->Poll().ok());
  std::vector<Row> retry(data.clean.rows().begin() + 20,
                         data.clean.rows().begin() + 30);
  EXPECT_TRUE((*session)->Append(std::move(retry)).ok());

  // Blocking mode instead drains inline: the same overload never fails.
  Table blocking_table(data.clean.schema());
  options.block_on_backpressure = true;
  auto blocking = system.OpenStream(&blocking_table, TaxRules(), options);
  ASSERT_TRUE(blocking.ok());
  std::vector<Row> all(data.clean.rows().begin(), data.clean.rows().end());
  EXPECT_TRUE((*blocking)->Append(std::move(all)).ok());
  EXPECT_LE((*blocking)->pending_batches(), options.max_inflight_batches);
  EXPECT_GE((*blocking)->stats().backpressure_waits, 1u);
}

TEST(Stream, DuplicateAndMalformedAppendsAreRejected) {
  auto table = ReadCsvString("a,b\n1,2\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  auto session =
      system.OpenStream(&*table, {*ParseRule("f: FD: a -> b")}, StreamOptions{});
  ASSERT_TRUE(session.ok());

  // Width mismatch.
  EXPECT_EQ((*session)->Append({Row(-1, {Value::Parse("x")})}).code(),
            StatusCode::kInvalidArgument);
  // Id collision with a live row (the CSV row has id 0).
  EXPECT_EQ(
      (*session)
          ->Append({Row(0, {Value::Parse("1"), Value::Parse("2")})})
          .code(),
      StatusCode::kInvalidArgument);

  // After Close, every mutation fails.
  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_FALSE((*session)->Append({}).ok());
  EXPECT_FALSE((*session)->Retract({0}).ok());
  EXPECT_FALSE((*session)->Poll().ok());
}

TEST(Stream, ZeroBatchRowsOrInflightBoundIsRejected) {
  // Both are plain field defaults. A zero batch size would divide by zero
  // in Append() and a zero bound would reject every non-blocking Append(),
  // so OpenStream rejects either.
  EXPECT_EQ(StreamOptions{}.batch_rows, 4096u);
  EXPECT_EQ(StreamOptions{}.max_inflight_batches, 4u);
  auto table = ReadCsvString("a,b\n1,2\n", CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  const RulePtr rule = *ParseRule("f: FD: a -> b");
  StreamOptions zero_rows;
  zero_rows.batch_rows = 0;
  EXPECT_EQ(system.OpenStream(&*table, {rule}, zero_rows).status().code(),
            StatusCode::kInvalidArgument);
  StreamOptions zero_inflight;
  zero_inflight.max_inflight_batches = 0;
  EXPECT_EQ(system.OpenStream(&*table, {rule}, zero_inflight).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Stream, StatsAndStreamsJsonTrackTheSession) {
  StreamDirectory::Instance().Clear();
  auto data = GenerateTaxA(800, 0.1, /*seed=*/55);
  Table streamed(data.dirty.schema());
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  StreamOptions options;
  options.session_name = "stream-stats-test";
  options.batch_rows = 200;
  auto session = system.OpenStream(&streamed, TaxRules(), options);
  ASSERT_TRUE(session.ok());

  // Scrape /streams JSON concurrently with ingestion: the directory is the
  // thread-safe boundary, so this is the TSan-relevant interleaving.
  std::atomic<bool> done{false};
  std::atomic<size_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      std::string json = StreamDirectory::Instance().StreamsJson();
      if (!json.empty()) ++scrapes;
    }
  });
  std::vector<Row> all(data.dirty.rows().begin(), data.dirty.rows().end());
  ASSERT_TRUE((*session)->Append(std::move(all)).ok());
  auto flush = (*session)->Flush();
  done.store(true);
  scraper.join();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_GT(scrapes.load(), 0u);

  auto stats = (*session)->stats();
  EXPECT_EQ(stats.name, "stream-stats-test");
  EXPECT_TRUE(stats.open);
  EXPECT_EQ(stats.rows, streamed.num_rows());
  EXPECT_EQ(stats.appended_rows, 800u);
  EXPECT_EQ(stats.batches_enqueued, 4u);
  EXPECT_EQ(stats.batches_processed, stats.batches_enqueued);
  EXPECT_EQ(stats.pending_batches, 0u);
  EXPECT_GT(stats.violations_found, 0u);
  EXPECT_GT(stats.fixes_applied, 0u);
  EXPECT_GT(stats.index_blocks, 0u);
  EXPECT_EQ(stats.index_rows, 800u * 2)  // Two blocked rules.
      << "every live row should sit in one block per rule";
  EXPECT_GT(stats.pool_values, 0u);
  EXPECT_GE(stats.pool_growths, 1u);

  ASSERT_TRUE((*session)->Close().ok());
  std::string json = StreamDirectory::Instance().StreamsJson();
  StrictJsonParser parser(json);
  JsonValue root;
  ASSERT_TRUE(parser.Parse(&root)) << parser.error() << "\n" << json;
  const JsonValue* records = root.Find("records");
  ASSERT_NE(records, nullptr);
  bool found = false;
  for (const JsonValue& record : records->array) {
    const JsonValue* name = record.Find("name");
    if (name == nullptr || name->str != "stream-stats-test") continue;
    found = true;
    EXPECT_FALSE(record.Find("open")->boolean);
    EXPECT_EQ(record.Find("appended_rows")->number, 800.0);
    EXPECT_GT(record.Find("batches_processed")->number, 0.0);
    EXPECT_GT(record.Find("fixes_applied")->number, 0.0);
  }
  EXPECT_TRUE(found) << json;
  StreamDirectory::Instance().Clear();
}

TEST(Stream, PreloadedTableIsCleanedByFlushAlone) {
  // OpenStream over an already-dirty table: Init marks every existing row
  // dirty, so Flush with no appends must reach Clean()'s fix point.
  auto data = GenerateTaxA(1000, 0.1, /*seed=*/56);
  auto rules = TaxRules();

  ExecutionContext ref_ctx(4);
  BigDansing ref_system(&ref_ctx);
  Table reference = data.dirty;
  auto report = ref_system.Clean(&reference, rules);
  ASSERT_TRUE(report.ok());

  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table working = data.dirty;
  auto session = system.OpenStream(&working, rules, StreamOptions{});
  ASSERT_TRUE(session.ok());
  auto flush = (*session)->Flush();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_TRUE(flush->converged);
  EXPECT_EQ(Fingerprint(working), Fingerprint(reference));
}

}  // namespace
}  // namespace bigdansing
