// Streaming cleanse sessions (BigDansing::OpenStream): the incremental
// violation index survives append/retract round-trips bit-identically,
// batched ingestion converges byte-identical to one-shot Clean() — with
// and without injected faults — and the backpressure / observability
// contracts hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/lineage.h"
#include "core/bigdansing.h"
#include "core/stream_session.h"
#include "data/csv.h"
#include "datagen/datagen.h"
#include "obs/stream_stats.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"
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

TEST(Stream, RetractedIdReusedStartsUnfrozen) {
  // Row 1's repair freezes its b cell (one update freezes). Retracting the
  // row must take that freeze state with it, so a new row that reuses id 1
  // is repaired exactly as Clean() repairs the same final rows.
  const RulePtr rule = *ParseRule("f: FD: a -> b");
  auto row = [](RowId id, const char* b) {
    return Row(id, {Value::Parse("1"), Value::Parse(b)});
  };
  CleanOptions clean;
  clean.freeze_after_updates = 1;
  ExecutionContext ctx(2);
  BigDansing system(&ctx, clean);
  Table table = *ReadCsvString("a,b\n", CsvOptions{});
  auto session = system.OpenStream(&table, {rule});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)->Append({row(0, "x"), row(1, "y"), row(2, "x")}).ok());
  ASSERT_TRUE((*session)->Poll().ok());
  ASSERT_EQ(table.row(1).value(1).ToString(), "x");

  ASSERT_TRUE((*session)->Retract({1}).ok());
  ASSERT_TRUE((*session)->Append({row(1, "z")}).ok());
  auto flush = (*session)->Flush();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_TRUE(flush->converged);

  Table reference = *ReadCsvString("a,b\n", CsvOptions{});
  for (Row r : {row(0, "x"), row(2, "x"), row(1, "z")}) {
    reference.AppendRowWithId(std::move(r));
  }
  ExecutionContext ref_ctx(2);
  ASSERT_TRUE(BigDansing(&ref_ctx, clean).Clean(&reference, {rule}).ok());
  EXPECT_EQ(reference.row(2).value(1).ToString(), "x");
  EXPECT_EQ(Fingerprint(table), Fingerprint(reference));
}

/// Outcome of one scattered-retraction run (see the tests below).
struct ScatteredRun {
  std::vector<std::pair<size_t, size_t>> windows;  // violations, fixes
  std::string table;
  std::vector<std::pair<std::string, uint64_t>> index;
  std::vector<std::pair<std::string, uint64_t>> fresh_index;
  size_t index_rows = 0;
  size_t fresh_index_rows = 0;
  StreamSessionStats stats;
};

/// Streams `dirty` in rounds of Append(300 rows) -> Poll -> Retract the
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
  out.stats = s.stats();
  out.index_rows = out.stats.index_rows;

  Table copy = table;
  auto fresh = system.OpenStream(&copy, rules, StreamOptions{});
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  if (fresh.ok()) {
    out.fresh_index = (*fresh)->IndexFingerprints();
    out.fresh_index_rows = (*fresh)->stats().index_rows;
  }
  return out;
}

/// Kernels on and off must see every window alike, and each run's index
/// must equal a fresh build over its final table.
void ExpectScatteredRetractionExact(const Table& dirty,
                                    const std::vector<RulePtr>& rules,
                                    uint64_t seed) {
  const ScatteredRun kernels =
      RunScatteredRetraction(dirty, rules, seed, /*kernels=*/true);
  const ScatteredRun interpreted =
      RunScatteredRetraction(dirty, rules, seed, /*kernels=*/false);
  ASSERT_FALSE(kernels.windows.empty());
  size_t violations = 0;
  for (const auto& [found, fixes] : kernels.windows) violations += found;
  EXPECT_GT(violations, 0u) << "no window found a violation";
  EXPECT_EQ(kernels.windows, interpreted.windows);
  EXPECT_EQ(kernels.table, interpreted.table);
  EXPECT_EQ(kernels.index, kernels.fresh_index);
  EXPECT_EQ(interpreted.index, interpreted.fresh_index);
  EXPECT_EQ(kernels.index_rows, kernels.fresh_index_rows);
  EXPECT_EQ(interpreted.index_rows, interpreted.fresh_index_rows);
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
    ExpectScatteredRetractionExact(data.dirty, rules, seed);
  }
}

TEST(Stream, ScatteredRetractionKeepsDcAndCfdPrescreenExact) {
  // The same check for rules no FD shape covers: an asymmetric blocked DC
  // (the prescreen's both-orders pair loop), a symmetric DC, a variable
  // CFD (the kernels' default AnyMatchUpper), and a DC with a range
  // constant, whose window counts depend on the salary pool staying in
  // value order through growth and retraction.
  const std::vector<RulePtr> rules = {
      *ParseRule("dco: DC: t1.zipcode = t2.zipcode & t1.salary > t2.salary"),
      *ParseRule("dcb: DC: t1.zipcode = t2.zipcode & t1.state != t2.state"),
      *ParseRule("cfd: CFD: state=\"CA\", zipcode -> city"),
      *ParseRule("dcr: DC: t1.zipcode = t2.zipcode & t1.salary > 100000 & "
                 "t1.city != t2.city")};
  for (uint64_t seed : {74u, 75u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto data = GenerateTaxA(1500, 0.1, seed);
    ExpectScatteredRetractionExact(data.dirty, rules, seed);
  }
}

TEST(Stream, CfdConstantLandingLateRebindsItsKernel) {
  // The CFD's pattern constant state="CA" first lands in a later batch: the
  // kernel bound before that holds it as absent and matches no row, so it
  // must rebind once a CA row lands, or its prescreen drops every CA block.
  auto data = GenerateTaxA(1500, 0.1, /*seed=*/76);
  const size_t state = *data.dirty.schema().IndexOf("state");
  Table late(data.dirty.schema());
  std::vector<Row> ca;
  for (const Row& row : data.dirty.rows()) {
    if (row.value(state) == Value("CA")) {
      ca.push_back(row);
    } else {
      late.AppendRowWithId(row);
    }
  }
  ASSERT_GE(late.num_rows(), 600u) << "the first batches must hold no CA row";
  ASSERT_FALSE(ca.empty());
  for (Row& row : ca) late.AppendRowWithId(std::move(row));
  ExpectScatteredRetractionExact(
      late, {*ParseRule("cfd: CFD: state=\"CA\", zipcode -> city")}, 76);
}

TEST(Stream, EqualityKernelsNeverRebindWhilePoolsGrow) {
  // Every batch brings zipcodes, cities, states and salaries no earlier
  // batch held. FDs compare codes for equality only, so their pools only
  // append and their kernels stay bound. The DCs compare salaries by order
  // (`dcr` against a range constant), so the salary pool stays in value
  // order: each growth remaps it and the DCs rebind. Window counts cannot
  // tell `dco`'s order from its reverse (one of a pair's two orders
  // violates either way); `dcr`'s count can.
  auto table = ReadCsvString("zipcode,city,state,salary\n", CsvOptions{});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  RowId id = 0;
  for (int64_t batch = 0; batch < 5; ++batch) {
    for (int64_t i = 0; i < 300; ++i) {
      const int64_t zip = 1000 * batch + i / 3;
      table->AppendRowWithId(Row(
          id++, std::vector<Value>{
                    Value(zip), Value("c" + std::to_string(zip + i % 2)),
                    Value("s" + std::to_string(batch)),
                    Value(1000 * batch + 300 - i)}));
    }
  }
  const std::vector<RulePtr> fds = TaxRules();
  ExpectScatteredRetractionExact(*table, fds, 77);
  const ScatteredRun fd_run =
      RunScatteredRetraction(*table, fds, 77, /*kernels=*/true);
  EXPECT_GE(fd_run.stats.pool_growths, 5u);
  EXPECT_EQ(fd_run.stats.kernel_rebinds, 0u);

  const std::vector<RulePtr> dcs = {
      *ParseRule("dco: DC: t1.zipcode = t2.zipcode & t1.salary > t2.salary"),
      *ParseRule("dcr: DC: t1.zipcode = t2.zipcode & t1.salary > 2150 & "
                 "t1.city != t2.city")};
  ExpectScatteredRetractionExact(*table, dcs, 77);
  EXPECT_GE(RunScatteredRetraction(*table, dcs, 77, /*kernels=*/true)
                .stats.kernel_rebinds,
            1u);
}

/// One Append + Poll of the three-row FD conflict from the failed-poll
/// test below: the window's (iterations, violations, fixes) and table.
struct PollOutcome {
  size_t iterations = 0;
  size_t violations = 0;
  size_t fixes = 0;
  std::string table;
  bool operator==(const PollOutcome&) const = default;
};

/// Appends three rows that break `fd` (a -> b, row 2) and `chk` (c < 0,
/// row 2) and polls once. With `fault_spec` set, the first Poll runs under
/// that schedule with no retries and must fail; the schedule is then
/// cleared and the Poll retried. Returns the last Poll's outcome.
PollOutcome PollThreeRowConflict(const std::string& fault_spec) {
  InjectorGuard guard;
  // `fd` blocks (the session's in-place stage); `chk` does not (the
  // engine's changed-rows path, seeded by the window's changed rows).
  const std::vector<RulePtr> rules = {*ParseRule("fd: FD: a -> b"),
                                      *ParseRule("chk: CHECK: t1.c < 0")};
  StreamOptions options;
  FaultPolicy policy;
  policy.max_attempts = 1;
  policy.stage_retry_budget = 0;
  options.clean.fault_policy = policy;
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  Table table = *ReadCsvString("a,b,c\n", CsvOptions{});
  auto session = system.OpenStream(&table, rules, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return {};
  StreamSession& s = **session;
  auto row = [](const char* b, int64_t c) {
    return std::vector<Value>{Value(int64_t{1}), Value(std::string(b)),
                              Value(c)};
  };
  EXPECT_TRUE(s.AppendValues({row("x", 5), row("x", 5), row("y", -1)}).ok());
  if (!fault_spec.empty()) {
    EXPECT_TRUE(FaultInjector::Instance().Configure(fault_spec, 1).ok());
    EXPECT_FALSE(s.Poll().ok()) << fault_spec << " did not fail the window";
    FaultInjector::Instance().Clear();
  }
  auto window = s.Poll();
  EXPECT_TRUE(window.ok()) << window.status().ToString();
  if (!window.ok()) return {};
  return {window->iterations, window->violations, window->applied_fixes,
          Fingerprint(table)};
}

TEST(Stream, FailedPollKeepsItsDirt) {
  // A window that fails must leave its work for the next one: the dirty
  // keys its detection took and the rows it was seeded with go back, while
  // the landed batch stays landed. The retried Poll then does exactly what
  // a session that never failed does in its first Poll.
  const PollOutcome reference = PollThreeRowConflict("");
  // fd's pairs (0, 2) and (1, 2), and chk's row 2.
  ASSERT_GE(reference.violations, 3u) << "both rules must find violations";
  ASSERT_GT(reference.fixes, 0u);
  for (const char* spec : {"stage=repair:*,kind=throw,prob=1",
                           "stage=*,kind=throw,prob=1"}) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(PollThreeRowConflict(spec), reference);
  }
}

TEST(Stream, WindowFailingAfterAppliedFixesRetriesToTheSameTable) {
  // The window's first iteration repairs row 2's b; its second re-detects
  // chk's row and repairs again, running repair:components a second time.
  // Failing exactly that run fails the window after fixes were applied: the
  // fixes stay, the dirt goes back, and the retried Poll must reach the
  // table of a session that never failed, with nothing left to fix.
  const PollOutcome reference = PollThreeRowConflict("");
  ASSERT_GE(reference.iterations, 2u);
  const PollOutcome retried =
      PollThreeRowConflict("stage=repair:components,run=2,kind=throw,prob=1");
  EXPECT_EQ(retried.table, reference.table);
  EXPECT_EQ(retried.fixes, 0u);
  EXPECT_GT(retried.violations, 0u) << "chk's row must be re-detected";
}

TEST(Stream, DirtyBlocksRepairInTableOrder) {
  // DetectDirtyBlocks orders the window's blocks by their first member, so
  // the violations, the hypergraph's components and the applied fixes
  // follow table order. Block z's first member sits at position z and its
  // conflicting row at 2K + z; the fixes must land in that order.
  InjectorGuard guard;
  constexpr int64_t kBlocks = 48;
  ExecutionContext ctx(4);
  BigDansing system(&ctx);
  Table table = *ReadCsvString("zipcode,city\n", CsvOptions{});
  auto session =
      system.OpenStream(&table, {*ParseRule("fd: FD: zipcode -> city")});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<std::vector<Value>> rows;
  for (const char* city : {"good", "good", "bad"}) {
    for (int64_t z = 0; z < kBlocks; ++z) {
      rows.push_back({Value(z), Value(std::string(city))});
    }
  }
  ASSERT_TRUE((*session)->AppendValues(std::move(rows)).ok());
  LineageRecorder& lineage = LineageRecorder::Instance();
  lineage.Clear();
  lineage.set_enabled(true);
  auto window = (*session)->Poll();
  lineage.set_enabled(false);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  std::vector<RowId> fixed;
  for (const LineageEntry& e : lineage.Entries()) {
    if (e.applied && e.iteration == 1) fixed.push_back(e.row_id);
  }
  lineage.Clear();
  std::vector<RowId> expected;
  for (int64_t z = 0; z < kBlocks; ++z) expected.push_back(2 * kBlocks + z);
  EXPECT_EQ(fixed, expected);
}

/// An asymmetric UDF rule with a procedural block key: within one zipcode,
/// the ordered pair (t1, t2) violates when t1's city sorts before t2's,
/// and the fix sets t1's city to t2's.
RulePtr CityOrderUdf() {
  auto rule = std::make_shared<UdfRule>("udf");
  rule->set_relevant_attributes({"zipcode", "city"})
      .set_symmetric(false)
      .set_block_key([](const Schema& schema, const Row& row) {
        return row.value(*schema.IndexOf("zipcode"));
      })
      .set_detect([](const Schema& schema, const Row& a, const Row& b,
                     std::vector<Violation>* out) {
        const size_t zip = *schema.IndexOf("zipcode");
        const size_t city = *schema.IndexOf("city");
        if (a.value(zip) != b.value(zip) || !(a.value(city) < b.value(city))) {
          return;
        }
        Violation v;
        v.rule_name = "udf";
        v.cells.push_back(UdfRule::MakeUdfCell(a, city, schema));
        v.cells.push_back(UdfRule::MakeUdfCell(b, city, schema));
        out->push_back(std::move(v));
      })
      .set_gen_fix([](const Schema&, const Violation& v,
                      std::vector<Fix>* out) {
        Fix fix;
        fix.left = v.cells[0];
        fix.op = FixOp::kEq;
        fix.right = FixTerm::MakeCell(v.cells[1]);
        out->push_back(std::move(fix));
      });
  return rule;
}

/// Streams `dirty` split into six batches by zipcode % 6 (no two batches
/// share a blocking key) and checks that each Append + Poll window does
/// what Clean() does to that batch alone: the same iterations, violations
/// and fixes, and the same repaired rows.
void ExpectWindowsMatchCleanPerBatch(const Table& dirty,
                                     const std::vector<RulePtr>& rules,
                                     bool kernels) {
  const size_t zip = *dirty.schema().IndexOf("zipcode");
  std::vector<std::vector<Row>> batches(6);
  for (const Row& row : dirty.rows()) {
    batches[row.value(zip).as_int() % 6].push_back(row);
  }
  ExecutionContext ctx(4);
  ctx.set_kernels_enabled(kernels);
  BigDansing system(&ctx);
  Table streamed(dirty.schema());
  StreamOptions options;
  options.batch_rows = dirty.num_rows();
  auto session = system.OpenStream(&streamed, rules, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StreamSession& s = **session;
  size_t violations = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    Table alone(dirty.schema());
    for (const Row& row : batches[b]) alone.AppendRowWithId(row);
    ExecutionContext ref_ctx(4);
    ref_ctx.set_kernels_enabled(kernels);
    auto report = BigDansing(&ref_ctx).Clean(&alone, rules);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    size_t clean_violations = 0;
    size_t clean_fixes = 0;
    for (const auto& it : report->iterations) {
      clean_violations += it.violations;
      clean_fixes += it.applied_fixes;
    }

    ASSERT_TRUE(s.Append(batches[b]).ok());
    auto window = s.Poll();
    ASSERT_TRUE(window.ok()) << window.status().ToString();
    EXPECT_EQ(window->iterations, report->num_iterations());
    EXPECT_EQ(window->violations, clean_violations);
    EXPECT_EQ(window->applied_fixes, clean_fixes);
    violations += window->violations;

    Table landed(dirty.schema());
    const size_t first = streamed.num_rows() - batches[b].size();
    for (size_t pos = first; pos < streamed.num_rows(); ++pos) {
      landed.AppendRowWithId(streamed.row(pos));
    }
    EXPECT_EQ(Fingerprint(landed), Fingerprint(alone));
  }
  EXPECT_GT(violations, 0u) << "no window found a violation";
}

TEST(Stream, WindowsMatchCleanPerDisjointBatch) {
  // Every blocked-rule shape the window stage enumerates: symmetric FDs
  // (MatchUpper), an ordering DC blocked on zipcode (blocked OCJoin: all
  // ordered pairs), a symmetric DC, a variable CFD, and a UDF-keyed
  // asymmetric rule (no kernel: Probe on both orders of every pair), alone
  // and mixed, with kernels on and off.
  // `dco` stays out of the mix: its violations have no applicable fix, and
  // once another rule's fixes force a second iteration, Clean() counts
  // them again in every block while a window re-detects only the blocks
  // those fixes touched (the repaired rows still agree).
  const RulePtr phi1 = *ParseRule("phi1: FD: zipcode -> city");
  const RulePtr phi6 = *ParseRule("phi6: FD: zipcode -> state");
  const RulePtr dco =
      *ParseRule("dco: DC: t1.zipcode = t2.zipcode & t1.salary > t2.salary");
  const RulePtr dcb =
      *ParseRule("dcb: DC: t1.zipcode = t2.zipcode & t1.state != t2.state");
  const RulePtr cfd = *ParseRule("cfd: CFD: state=\"CA\", zipcode -> city");
  const RulePtr udf = CityOrderUdf();
  const std::vector<std::pair<std::string, std::vector<RulePtr>>> sets = {
      {"fds", {phi1, phi6}},
      {"dco", {dco}},
      {"dcb", {dcb}},
      {"cfd", {cfd}},
      {"udf", {udf}},
      {"mix", {phi1, phi6, dcb, cfd, udf}}};
  auto data = GenerateTaxA(3000, 0.15, /*seed=*/91);
  for (const auto& [name, rules] : sets) {
    for (bool kernels : {true, false}) {
      SCOPED_TRACE(name + (kernels ? " kernels" : " interpreted"));
      ExpectWindowsMatchCleanPerBatch(data.dirty, rules, kernels);
    }
  }
}

TEST(Stream, UnblockedSymmetricWindowCountsEachViolationOnce) {
  // A window detects its unblocked rules through the engine's changed-rows
  // request, which probes a symmetric rule's unordered pairs once each, as
  // Clean()'s full pass does: one window over four fresh rows reports the
  // violations of Clean()'s first iteration over the same rows.
  const RulePtr sym =
      *ParseRule("sym: DC: t1.city != t2.city & t1.state != t2.state");
  Table rows(Schema({"city", "state"}));
  for (const auto& [city, state] :
       std::vector<std::pair<const char*, const char*>>{
           {"NY", "NY"}, {"LA", "CA"}, {"SF", "CA"}, {"CH", "IL"}}) {
    rows.AppendRow({Value(std::string(city)), Value(std::string(state))});
  }
  CleanOptions clean;
  clean.max_iterations = 1;

  ExecutionContext ref_ctx(4);
  Table alone = rows;
  auto report = BigDansing(&ref_ctx, clean).Clean(&alone, {sym});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->num_iterations(), 1u);
  EXPECT_EQ(report->iterations[0].violations, 5u);

  ExecutionContext ctx(4);
  StreamOptions options;
  options.clean = clean;
  Table streamed(rows.schema());
  auto session = BigDansing(&ctx).OpenStream(&streamed, {sym}, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)->Append(rows.rows()).ok());
  auto window = (*session)->Poll();
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(window->iterations, 1u);
  EXPECT_EQ(window->violations, report->iterations[0].violations);
}

TEST(Stream, WindowDetectsInPlaceWithoutEngineStages) {
  // A window detects its blocked rules in the session's own stage: no
  // engine encode, block or shuffle stage runs for it. Flush's
  // verification is still the engine's full-table pass.
  const std::vector<RulePtr> rules = {
      *ParseRule("phi6: FD: zipcode -> state"),
      *ParseRule("phi7: FD: phone -> zipcode"),
      *ParseRule("phi8: FD: provider_id -> city, phone")};
  auto data = GenerateHai(1200, 0.1, /*seed=*/57);
  ExecutionContext ctx(4);
  ctx.set_kernels_enabled(true);
  BigDansing system(&ctx);
  Table table(data.dirty.schema());
  auto session = system.OpenStream(&table, rules, StreamOptions{});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StreamSession& s = **session;
  auto stages_since = [&s](size_t seen) {
    std::vector<std::string> names;
    const auto reports = s.metrics().StageReports();
    for (size_t i = seen; i < reports.size(); ++i) {
      names.push_back(reports[i].name);
    }
    return names;
  };
  auto has_prefix = [](const std::vector<std::string>& names,
                       const std::string& prefix) {
    return std::any_of(names.begin(), names.end(), [&](const std::string& n) {
      return n.rfind(prefix, 0) == 0;
    });
  };

  const size_t before = s.metrics().StageReports().size();
  ASSERT_TRUE(s.Append(data.dirty.rows()).ok());
  auto window = s.Poll();
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_GT(window->violations, 0u);
  const auto poll_stages = stages_since(before);
  EXPECT_TRUE(has_prefix(poll_stages, "stream:iterate|detect|genfix"));
  for (const char* engine_stage :
       {"kernel:encode", "kernel:block", "groupByKey"}) {
    EXPECT_FALSE(has_prefix(poll_stages, engine_stage)) << engine_stage;
  }

  const size_t before_flush = s.metrics().StageReports().size();
  auto flush = s.Flush();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  const auto flush_stages = stages_since(before_flush);
  EXPECT_TRUE(has_prefix(flush_stages, "kernel:encode"));
  EXPECT_TRUE(has_prefix(flush_stages, "kernel:block"));
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
  // Ingest only once the scraper is live: the whole ingestion takes a few
  // milliseconds, and under a loaded scheduler the new thread may not run
  // before Flush returns. Bounded, so a scraper that never scrapes fails
  // the check below instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrapes.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
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
