// Fault-tolerant stage execution: deterministic fault injection, task
// retry with budgets, speculative re-execution, and the unified
// Detect/Repair API. The headline invariant (the paper's Fig-8a-style
// workload): a Clean() run with faults injected into every registered
// stage converges to a byte-identical table vs the fault-free run, with
// recovery visible in the metrics — and with retries disabled the run
// fails with a clean Status, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics_registry.h"
#include "core/bigdansing.h"
#include "datagen/datagen.h"
#include "dataflow/context.h"
#include "dataflow/stage_executor.h"
#include "repair/strategy.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

/// Canonical byte rendering of a table (row ids + every cell) for
/// bit-identical comparisons across runs.
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

/// RAII guard: clears the injector's schedule and site tracking on scope
/// exit so one test's faults never leak into the next.
struct InjectorGuard {
  ~InjectorGuard() {
    FaultInjector::Instance().Clear();
    FaultInjector::Instance().set_site_tracking(false);
    FaultInjector::Instance().ClearSeenSites();
  }
};

TEST(FaultSpec, ParsesAndRejects) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  EXPECT_TRUE(injector
                  .Configure("stage=mr:spill,task=3,kind=throw,prob=0.01", 42)
                  .ok());
  EXPECT_TRUE(injector.Configure("stage=*,kind=delay,ms=5;stage=x,times=2", 1)
                  .ok());
  EXPECT_TRUE(injector.Configure("", 42).ok());  // Empty spec = disabled.
  EXPECT_FALSE(injector.Configure("stage=x,kind=nonsense", 42).ok());
  EXPECT_FALSE(injector.Configure("task=1", 42).ok());  // No site filter.
  EXPECT_FALSE(injector.Configure("stage=x,prob=zebra", 42).ok());
  EXPECT_TRUE(injector.Configure("stage=x,run=2", 42).ok());
  EXPECT_FALSE(injector.Configure("stage=x,run=0", 42).ok());  // From 1.
  EXPECT_FALSE(injector.Configure("stage=x,run=two", 42).ok());
  injector.Clear();
}

TEST(FaultSpec, RunIndexTargetsTheNthStageStart) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(injector.Configure("stage=probe*,run=2,prob=1", 7).ok());
  auto throws = [&](const std::string& site) {
    try {
      injector.OnSite(site, 0, 0);
    } catch (const TaskFailure&) {
      return true;
    }
    return false;
  };
  injector.OnStageStart("probe:a");  // run 1
  EXPECT_FALSE(throws("probe:a"));
  injector.OnStageStart("other");  // not a matching stage
  EXPECT_FALSE(throws("probe:a"));
  injector.OnStageStart("probe:b");  // run 2, whichever matching stage
  EXPECT_TRUE(throws("probe:b"));
  EXPECT_TRUE(throws("probe:b"));  // every attempt of that run
  injector.OnStageStart("probe:a");  // run 3
  EXPECT_FALSE(throws("probe:a"));
  EXPECT_EQ(injector.injected_total(), 2u);
  injector.Clear();
}

TEST(FaultSpec, DeterministicSchedule) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  // prob=1 on one site: the first attempt of every task at that site
  // throws, identically on every run with the same seed.
  ASSERT_TRUE(injector.Configure("stage=probe,prob=1,times=3", 7).ok());
  size_t thrown = 0;
  for (size_t t = 0; t < 5; ++t) {
    try {
      injector.OnSite("probe", t, 0);
    } catch (const TaskFailure& f) {
      EXPECT_EQ(f.site(), "probe");
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 3u);  // times=3 caps the schedule.
  EXPECT_EQ(injector.injected_total(), 3u);
  injector.Clear();
}

TEST(FaultRetry, TransientFaultsConvergeBitIdentical) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  auto data = GenerateTaxA(400, 0.08, /*seed=*/11);

  // Fault-free reference run, with site tracking enumerating every stage
  // the full Clean() pipeline actually executes.
  injector.set_site_tracking(true);
  std::string reference;
  {
    ExecutionContext ctx(4);
    BigDansing system(&ctx);
    Table working = data.dirty;
    auto report = system.Clean(&working, TaxRules());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->converged);
    reference = Fingerprint(working);
  }
  std::vector<std::string> sites = injector.SeenSites();
  injector.set_site_tracking(false);
  // The cleanse pipeline crosses detection, shuffle, and repair stages —
  // the acceptance bar is faults in at least 3 distinct stages.
  ASSERT_GE(sites.size(), 3u) << "expected the full pipeline to register "
                                 "several distinct fault sites";

  // Inject a transient throw into every registered site, one run per site:
  // prob < 1 means the deterministic per-attempt draws let retries through,
  // so every run must converge to the exact reference bytes. The retry
  // budget is deepened so a 0.4 per-attempt fault rate cannot plausibly
  // exhaust it (0.4^10 per task).
  CleanOptions options;
  FaultPolicy policy;
  policy.max_attempts = 10;
  policy.stage_retry_budget = 256;
  options.fault_policy = policy;
  for (const std::string& site : sites) {
    ASSERT_TRUE(
        injector.Configure("stage=" + site + ",kind=throw,prob=0.4", 1234)
            .ok());
    ExecutionContext ctx(4);
    BigDansing system(&ctx, options);
    Table working = data.dirty;
    auto report = system.Clean(&working, TaxRules());
    ASSERT_TRUE(report.ok())
        << "site " << site << ": " << report.status().ToString();
    EXPECT_TRUE(report->converged) << "site " << site;
    EXPECT_EQ(Fingerprint(working), reference)
        << "faults at site '" << site << "' changed the repaired table";
  }
  injector.Clear();
}

TEST(FaultRetry, WildcardFaultsAcrossAllStagesStillConverge) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  auto data = GenerateTaxA(400, 0.08, /*seed=*/11);

  std::string reference;
  {
    ExecutionContext ctx(4);
    BigDansing system(&ctx);
    Table working = data.dirty;
    auto report = system.Clean(&working, TaxRules());
    ASSERT_TRUE(report.ok());
    reference = Fingerprint(working);
  }

  MetricsRegistry& registry = MetricsRegistry::Instance();
  const uint64_t retries_before = registry.GetCounter("stage.retries").Value();
  ASSERT_TRUE(injector.Configure("stage=*,kind=throw,prob=0.15", 99).ok());
  ExecutionContext ctx(4);
  CleanOptions options;
  FaultPolicy policy;
  policy.max_attempts = 10;
  policy.stage_retry_budget = 256;
  options.fault_policy = policy;
  BigDansing system(&ctx, options);
  Table working = data.dirty;
  auto report = system.Clean(&working, TaxRules());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Fingerprint(working), reference);
  // Recovery must actually have happened (nonzero injections and retries),
  // otherwise this test proves nothing.
  EXPECT_GT(injector.injected_total(), 0u);
  EXPECT_GT(registry.GetCounter("stage.retries").Value(), retries_before);
  injector.Clear();
}

TEST(FaultRetry, ExhaustedBudgetFailsWithStatusNotCrash) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  // prob=1: every attempt at every site throws, so no retry can succeed.
  ASSERT_TRUE(injector.Configure("stage=*,kind=throw,prob=1", 5).ok());
  auto data = GenerateTaxA(200, 0.1, /*seed=*/3);
  ExecutionContext ctx(4);
  CleanOptions options;
  FaultPolicy policy;
  policy.max_attempts = 2;
  policy.stage_retry_budget = 4;
  options.fault_policy = policy;
  BigDansing system(&ctx, options);
  Table working = data.dirty;
  auto report = system.Clean(&working, TaxRules());
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.status().ToString().empty());
  injector.Clear();
}

TEST(FaultRetry, RetriesDisabledSurfaceFirstFault) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(injector.Configure("stage=*,kind=throw,prob=0.4", 1234).ok());
  auto data = GenerateTaxA(200, 0.1, /*seed=*/3);
  ExecutionContext ctx(4);
  CleanOptions options;
  FaultPolicy policy;
  policy.max_attempts = 1;  // Retry disabled entirely.
  options.fault_policy = policy;
  BigDansing system(&ctx, options);
  Table working = data.dirty;
  auto report = system.Clean(&working, TaxRules());
  EXPECT_FALSE(report.ok());
  injector.Clear();
}

TEST(Speculation, DuplicateAttemptsNeverDoubleCount) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  ExecutionContext ctx(4);

  // Reference: a producing stage summed without faults or speculation.
  const size_t n = 16;
  auto run_sum = [&]() -> uint64_t {
    auto out = StageExecutor(&ctx).RunProducing<uint64_t>(
        "spec:sum", n, [&](size_t t, TaskContext& tc) {
          tc.records_out = 1;
          return static_cast<uint64_t>(t * t + 1);
        });
    EXPECT_TRUE(out.ok());
    uint64_t sum = 0;
    for (uint64_t v : *out) sum += v;
    return sum;
  };
  const uint64_t reference = run_sum();

  // Delay a couple of tasks and turn speculation all the way up: the
  // executor may launch duplicates, but exactly one attempt per task
  // commits, so the sum is unchanged.
  ASSERT_TRUE(
      injector.Configure("stage=spec:sum,task=3,kind=delay,ms=40;"
                         "stage=spec:sum,task=7,kind=delay,ms=40",
                         42)
          .ok());
  FaultPolicy eager;
  eager.speculation = true;
  eager.speculation_multiplier = 1.5;
  eager.speculation_min_seconds = 0.0;
  ScopedFaultPolicy scoped(&ctx, eager);
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const uint64_t committed_before =
      registry.GetCounter("stage.speculative_committed").Value();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(run_sum(), reference);
  }
  // Whether duplicates won or lost, committed speculations never exceed
  // launches and the results above stayed exact.
  EXPECT_LE(registry.GetCounter("stage.speculative_committed").Value() -
                committed_before,
            registry.GetCounter("stage.speculative_launched").Value());
  injector.Clear();
}

TEST(Speculation, PrimaryFailureAfterDuplicateCommitKeepsStage) {
  // Task 3's primary runs on a pool helper and fails only after its
  // speculative duplicate (run inline on the driver) has committed. Once
  // any attempt of a task has committed, a later failure of another
  // attempt must neither retry nor fail the stage.
  //
  // Latches, not timing, decide which task can be duplicated: helpers wait
  // until the driver has claimed a task, and the driver's first task returns
  // only once the 14 tasks that are neither its own nor task 3 have
  // committed. The driver's straggler monitor starts after that return, so
  // task 3 is the only task still running when it looks.
  InjectorGuard guard;
  ExecutionContext ctx(4);
  FaultPolicy eager;
  eager.speculation = true;
  eager.speculation_multiplier = 1.5;
  eager.speculation_min_seconds = 0.0;
  ScopedFaultPolicy scoped(&ctx, eager);
  const std::thread::id driver = std::this_thread::get_id();
  auto live_records_out = [&ctx]() -> uint64_t {
    const std::vector<StageReport> reports = ctx.metrics().StageReports();
    return reports.empty() ? 0 : reports.back().records_out;
  };
  // Bounded waits: a broken latch fails the checks below instead of
  // hanging the suite.
  auto wait_until = [](const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  int checked_rounds = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> driver_claimed{false};
    std::atomic<bool> primary_on_helper{false};
    auto out = StageExecutor(&ctx).RunProducing<uint64_t>(
        "spec:late-failure", 16, [&](size_t t, TaskContext& tc) {
          tc.records_out = 1;
          if (std::this_thread::get_id() == driver) {
            if (!tc.speculative && !driver_claimed.exchange(true)) {
              wait_until([&] { return live_records_out() >= 14; });
            }
          } else {
            wait_until([&] { return driver_claimed.load(); });
            if (t == 3 && !tc.speculative) {
              primary_on_helper = true;
              wait_until([&] { return live_records_out() >= 16; });
              throw TaskFailure("spec:late-failure",
                                "primary failed after its duplicate committed");
            }
          }
          return static_cast<uint64_t>(t);
        });
    if (!primary_on_helper) continue;
    ++checked_rounds;
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const StageReport report = ctx.metrics().StageReports().back();
    EXPECT_EQ(report.speculative_committed, 1u);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.records_out, 16u);
  }
  EXPECT_GT(checked_rounds, 0);
}

TEST(UnifiedDetect, RejectsMalformedRequests) {
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto data = GenerateTaxA(50, 0.1, /*seed=*/1);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");

  DetectRequest empty;
  empty.table = &data.dirty;
  // Zero rules over a plain table is trivially valid: nothing to detect.
  auto trivial = engine.Detect(empty);
  ASSERT_TRUE(trivial.ok());
  EXPECT_TRUE(trivial->empty());

  DetectRequest no_rules_incremental;
  no_rules_incremental.table = &data.dirty;
  std::unordered_set<RowId> no_rows;
  no_rules_incremental.changed_rows = &no_rows;
  EXPECT_FALSE(engine.Detect(no_rules_incremental).ok());  // Needs one rule.

  DetectRequest no_source;
  no_source.rules = {rule};
  EXPECT_FALSE(engine.Detect(no_source).ok());  // No table, no storage.

  DetectRequest dangling_dataset;
  dangling_dataset.table = &data.dirty;
  dangling_dataset.rules = {rule};
  dangling_dataset.dataset = "tax";
  EXPECT_FALSE(engine.Detect(dangling_dataset).ok());  // Dataset w/o storage.

  DetectRequest bad_across;
  bad_across.table = &data.dirty;
  bad_across.right = &data.dirty;
  bad_across.rules = {rule};  // FD, not a DC: cross-table needs a DcRule.
  EXPECT_FALSE(engine.Detect(bad_across).ok());

  DetectRequest across_incremental;
  across_incremental.table = &data.dirty;
  across_incremental.right = &data.dirty;
  std::unordered_set<RowId> changed{1};
  across_incremental.changed_rows = &changed;
  across_incremental.rules = {*ParseRule(
      "dc: DC: t1.zipcode = t2.zipcode & t1.city != t2.city")};
  EXPECT_FALSE(engine.Detect(across_incremental).ok());
}

TEST(UnifiedDetect, PerRequestFaultPolicyFailsFast) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(injector.Configure("stage=*,kind=throw,prob=1", 17).ok());
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto data = GenerateTaxA(100, 0.1, /*seed=*/2);

  DetectRequest request;
  request.table = &data.dirty;
  request.rules = {*ParseRule("phi1: FD: zipcode -> city")};
  FaultPolicy no_retry;
  no_retry.max_attempts = 1;
  request.fault_policy = no_retry;
  auto result = engine.Detect(request);
  EXPECT_FALSE(result.ok());

  // The scoped policy must have been restored: the context default allows
  // retries again (prob=1 still starves them, but the restore itself is
  // what we check).
  EXPECT_EQ(ctx.fault_policy().max_attempts, FaultPolicy().max_attempts);
  injector.Clear();
}

TEST(UnifiedDetect, PerRequestFaultPolicyCoversObjectBuilding) {
  // An output this large is turned into objects by a detect:objects stage
  // after the detection stages; the request's policy governs it as well.
  auto data = GenerateTaxA(20000, 0.1, /*seed=*/2);
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  DetectRequest request;
  request.table = &data.dirty;
  request.rules = {*ParseRule("phi1: FD: zipcode -> city")};
  auto healthy = engine.Detect(request);
  ASSERT_TRUE(healthy.ok());
  ASSERT_GE((*healthy)[0].violations.size(), 8192u);

  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Instance();
  const std::string one_failure =
      "stage=detect:objects,task=0,kind=throw,prob=1,times=1";
  // Under the context's policy the failed attempt is retried.
  ASSERT_TRUE(injector.Configure(one_failure, 3).ok());
  auto retried = engine.Detect(request);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(injector.injected_total(), 1u);
  EXPECT_EQ((*retried)[0].violations.size(),
            (*healthy)[0].violations.size());

  // Under a no-retry request policy the same failure fails the request,
  // and the context's policy is back afterwards.
  ASSERT_TRUE(injector.Configure(one_failure, 3).ok());
  FaultPolicy no_retry;
  no_retry.max_attempts = 1;
  request.fault_policy = no_retry;
  auto failed = engine.Detect(request);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(injector.injected_total(), 1u);
  EXPECT_EQ(ctx.fault_policy().max_attempts, FaultPolicy().max_attempts);
  injector.Clear();
}

TEST(RepairStrategyFactory, DispatchesByMode) {
  EXPECT_EQ(RepairStrategyFor(RepairMode::kEquivalenceClass).name(),
            "equivalence-class");
  EXPECT_EQ(RepairStrategyFor(RepairMode::kHypergraph).name(), "hypergraph");
  EXPECT_EQ(RepairStrategyFor(RepairMode::kDistributedEquivalenceClass).name(),
            "distributed-equivalence-class");
  // Stateless singletons: repeated lookups hand back the same instance.
  EXPECT_EQ(&RepairStrategyFor(RepairMode::kHypergraph),
            &RepairStrategyFor(RepairMode::kHypergraph));
}

TEST(RepairStrategyFactory, StrategiesAgreeWithLegacyCleanModes) {
  auto data = GenerateTaxA(300, 0.1, /*seed=*/13);
  auto run_with_mode = [&](RepairMode mode) {
    ExecutionContext ctx(4);
    CleanOptions options;
    options.repair_mode = mode;
    BigDansing system(&ctx, options);
    Table working = data.dirty;
    auto report = system.Clean(&working, TaxRules());
    EXPECT_TRUE(report.ok());
    return Fingerprint(working);
  };
  // The centralized and natively distributed equivalence-class repairs are
  // equivalent by construction (Fig 12(b)'s premise).
  EXPECT_EQ(run_with_mode(RepairMode::kEquivalenceClass),
            run_with_mode(RepairMode::kDistributedEquivalenceClass));
}

}  // namespace
}  // namespace bigdansing
