#include "dataflow/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <numeric>
#include <thread>

#include "common/fault.h"
#include "common/metrics_registry.h"

namespace bigdansing {
namespace {

std::vector<int> Range(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(Dataset, FromVectorPreservesAllRecords) {
  ExecutionContext ctx(4);
  auto ds = Dataset<int>::FromVector(&ctx, Range(101));
  EXPECT_EQ(ds.Count(), 101u);
  auto collected = ds.Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, Range(101));
}

TEST(Dataset, ExplicitPartitionCount) {
  ExecutionContext ctx(2);
  auto ds = Dataset<int>::FromVector(&ctx, Range(10), 3);
  EXPECT_EQ(ds.num_partitions(), 3u);
  EXPECT_EQ(ds.Count(), 10u);
}

TEST(Dataset, MapAndFilterCompose) {
  ExecutionContext ctx(3);
  auto ds = Dataset<int>::FromVector(&ctx, Range(100));
  auto out = ds.Map([](const int& x) { return x * 3; })
                 .Filter([](const int& x) { return x % 2 == 0; });
  auto collected = out.Collect();
  std::sort(collected.begin(), collected.end());
  std::vector<int> expected;
  for (int x = 0; x < 100; ++x) {
    if ((x * 3) % 2 == 0) expected.push_back(x * 3);
  }
  EXPECT_EQ(collected, expected);
}

TEST(Dataset, FlatMapExpandsAndDrops) {
  ExecutionContext ctx(2);
  auto ds = Dataset<int>::FromVector(&ctx, Range(10));
  auto out = ds.FlatMap([](const int& x) {
    std::vector<int> v;
    for (int k = 0; k < x % 3; ++k) v.push_back(x);
    return v;
  });
  size_t expected = 0;
  for (int x = 0; x < 10; ++x) expected += static_cast<size_t>(x % 3);
  EXPECT_EQ(out.Count(), expected);
}

TEST(Dataset, MapPartitionsSeesWholePartition) {
  ExecutionContext ctx(2);
  auto ds = Dataset<int>::FromVector(&ctx, Range(20), 4);
  auto sums = ds.MapPartitions<int>([](const std::vector<int>& part) {
    return std::vector<int>{
        std::accumulate(part.begin(), part.end(), 0)};
  });
  int total = 0;
  for (int s : sums.Collect()) total += s;
  EXPECT_EQ(total, 190);
}

TEST(Dataset, RepartitionKeepsRecords) {
  ExecutionContext ctx(2);
  auto ds = Dataset<int>::FromVector(&ctx, Range(50), 2);
  auto re = ds.Repartition(7);
  EXPECT_EQ(re.num_partitions(), 7u);
  auto collected = re.Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, Range(50));
}

TEST(Dataset, UnionConcatenates) {
  ExecutionContext ctx(2);
  auto a = Dataset<int>::FromVector(&ctx, {1, 2}, 1);
  auto b = Dataset<int>::FromVector(&ctx, {3}, 1);
  auto u = a.Union(b);
  EXPECT_EQ(u.Count(), 3u);
  EXPECT_EQ(u.num_partitions(), 2u);
}

TEST(Dataset, GroupByKeyGroupsEverything) {
  ExecutionContext ctx(4);
  std::vector<std::pair<int, int>> records;
  for (int i = 0; i < 100; ++i) records.emplace_back(i % 7, i);
  auto ds = Dataset<std::pair<int, int>>::FromVector(&ctx, records);
  auto grouped = GroupByKey(ds).Collect();
  EXPECT_EQ(grouped.size(), 7u);
  std::map<int, size_t> sizes;
  size_t total = 0;
  for (const auto& [key, values] : grouped) {
    sizes[key] = values.size();
    total += values.size();
    for (int v : values) EXPECT_EQ(v % 7, key);
  }
  EXPECT_EQ(total, 100u);
}

TEST(Dataset, ReduceByKeyMatchesSerialFold) {
  ExecutionContext ctx(3);
  std::vector<std::pair<int, int>> records;
  std::map<int, int> expected;
  for (int i = 0; i < 500; ++i) {
    records.emplace_back(i % 13, i);
    expected[i % 13] += i;
  }
  auto ds = Dataset<std::pair<int, int>>::FromVector(&ctx, records);
  auto reduced = ReduceByKey(ds, [](int a, int b) { return a + b; });
  std::map<int, int> got;
  for (const auto& [k, v] : reduced.Collect()) got[k] = v;
  EXPECT_EQ(got, expected);
}

TEST(Dataset, JoinMatchesNestedLoops) {
  ExecutionContext ctx(2);
  std::vector<std::pair<int, std::string>> left = {
      {1, "a"}, {2, "b"}, {2, "c"}, {3, "d"}};
  std::vector<std::pair<int, int>> right = {{2, 20}, {2, 21}, {3, 30}, {4, 40}};
  auto l = Dataset<std::pair<int, std::string>>::FromVector(&ctx, left);
  auto r = Dataset<std::pair<int, int>>::FromVector(&ctx, right);
  auto joined = Join(l, r).Collect();
  // Key 2: 2x2 = 4 results; key 3: 1. Keys 1 and 4 drop.
  EXPECT_EQ(joined.size(), 5u);
  for (const auto& [k, vw] : joined) {
    EXPECT_TRUE(k == 2 || k == 3);
  }
}

TEST(Dataset, CoGroupCollectsBothSides) {
  ExecutionContext ctx(2);
  auto l = Dataset<std::pair<int, int>>::FromVector(
      &ctx, {{1, 10}, {1, 11}, {2, 20}});
  auto r = Dataset<std::pair<int, int>>::FromVector(&ctx, {{1, 100}, {3, 300}});
  auto groups = CoGroup(l, r).Collect();
  std::map<int, std::pair<size_t, size_t>> sizes;
  for (const auto& [k, bags] : groups) {
    sizes[k] = {bags.first.size(), bags.second.size()};
  }
  EXPECT_EQ(sizes[1], (std::pair<size_t, size_t>{2, 1}));
  EXPECT_EQ(sizes[2], (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(sizes[3], (std::pair<size_t, size_t>{0, 1}));
}

TEST(Dataset, MetricsTrackShuffles) {
  ExecutionContext ctx(2);
  std::vector<std::pair<int, int>> records;
  for (int i = 0; i < 60; ++i) records.emplace_back(i, i);
  auto ds = Dataset<std::pair<int, int>>::FromVector(&ctx, records);
  uint64_t before = ctx.metrics().shuffled_records();
  GroupByKey(ds);
  EXPECT_EQ(ctx.metrics().shuffled_records() - before, 60u);
  EXPECT_GT(ctx.metrics().stages(), 0u);
}

TEST(Dataset, WorkerCountDoesNotChangeResults) {
  std::vector<std::pair<int, int>> records;
  for (int i = 0; i < 333; ++i) records.emplace_back(i % 11, 1);
  std::map<int, int> reference;
  for (const auto& [k, v] : records) reference[k] += v;
  for (size_t workers : {1u, 2u, 5u, 16u}) {
    ExecutionContext ctx(workers);
    auto ds = Dataset<std::pair<int, int>>::FromVector(&ctx, records);
    auto reduced = ReduceByKey(ds, [](int a, int b) { return a + b; });
    std::map<int, int> got;
    for (const auto& [k, v] : reduced.Collect()) got[k] = v;
    EXPECT_EQ(got, reference) << workers << " workers";
  }
}

// --- Deferred pipelines and operator fusion ---

// Applies the reference chain (x -> x*2, keep odd, duplicate) to one
// partition the eager way: one full pass and one intermediate vector per
// step, exactly what the engine did before pipelines became deferred.
std::vector<int> EagerReference(const std::vector<int>& part) {
  std::vector<int> mapped;
  for (int x : part) mapped.push_back(x * 2);
  std::vector<int> filtered;
  for (int x : mapped) {
    if (x % 4 != 0) filtered.push_back(x);
  }
  std::vector<int> out;
  for (int x : filtered) {
    out.push_back(x);
    out.push_back(x + 1);
  }
  return out;
}

Dataset<int> ApplyChain(const Dataset<int>& ds) {
  return ds.Map([](const int& x) { return x * 2; })
      .Filter([](const int& x) { return x % 4 != 0; })
      .FlatMap([](const int& x) { return std::vector<int>{x, x + 1}; });
}

TEST(DatasetFusion, FusedChainMatchesEagerPartitionByPartition) {
  // Empty input, single partition, and skewed partitions (including empty
  // ones in the middle) must all produce identical partitions in identical
  // order to the per-step eager evaluation.
  std::vector<std::vector<std::vector<int>>> shapes = {
      {},
      {{}},
      {Range(17)},
      {Range(1000), {}, {5, 3, 1}, Range(2), {}},
  };
  for (auto& shape : shapes) {
    ExecutionContext ctx(4);
    auto input = Dataset<int>(&ctx, shape);
    auto fused = ApplyChain(input);
    EXPECT_FALSE(fused.materialized());
    const auto& got = fused.partitions();
    ASSERT_EQ(got.size(), shape.size());
    for (size_t p = 0; p < shape.size(); ++p) {
      EXPECT_EQ(got[p], EagerReference(shape[p])) << "partition " << p;
    }
  }
}

TEST(DatasetFusion, ThreeStepChainRecordsExactlyOneStage) {
  ExecutionContext ctx(4);
  auto ds = Dataset<int>::FromVector(&ctx, Range(1000), 4);
  auto chain = ds.Map([](const int& x) { return x + 1; }, "inc")
                   .Filter([](const int& x) { return x % 2 == 0; })
                   .Map([](const int& x) { return x * 10; }, "scale");
  EXPECT_EQ(chain.pipeline_label(), "inc|filter|scale");
  uint64_t stages_before = ctx.metrics().stages();
  chain.Collect();
  EXPECT_EQ(ctx.metrics().stages() - stages_before, 1u);
  // A second action reuses the materialized result: no new stage.
  chain.Count();
  EXPECT_EQ(ctx.metrics().stages() - stages_before, 1u);
}

TEST(DatasetFusion, EagerForcingRecordsThreeStages) {
  ExecutionContext ctx(4);
  auto ds = Dataset<int>::FromVector(&ctx, Range(1000), 4);
  uint64_t stages_before = ctx.metrics().stages();
  auto a = ds.Map([](const int& x) { return x + 1; });
  a.Count();
  auto b = a.Filter([](const int& x) { return x % 2 == 0; });
  b.Count();
  auto c = b.Map([](const int& x) { return x * 10; });
  c.Count();
  EXPECT_EQ(ctx.metrics().stages() - stages_before, 3u);
}

TEST(DatasetFusion, CopiesShareMaterializedState) {
  ExecutionContext ctx(2);
  auto ds = Dataset<int>::FromVector(&ctx, Range(10), 2)
                .Map([](const int& x) { return x + 1; });
  Dataset<int> copy = ds;
  uint64_t stages_before = ctx.metrics().stages();
  copy.Count();
  EXPECT_TRUE(ds.materialized());
  ds.Collect();
  EXPECT_EQ(ctx.metrics().stages() - stages_before, 1u);
}

// --- Per-stage structured metrics ---

bool HasStage(const std::vector<StageReport>& reports,
              const std::string& suffix, uint64_t min_tasks) {
  for (const auto& r : reports) {
    if (r.name.size() >= suffix.size() &&
        r.name.compare(r.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      return r.tasks >= min_tasks;
    }
  }
  return false;
}

TEST(StageMetrics, ShufflesReportMapAndReduceStages) {
  ExecutionContext ctx(4);
  std::vector<std::pair<int, int>> records;
  for (int i = 0; i < 100; ++i) records.emplace_back(i % 7, i);
  auto ds = Dataset<std::pair<int, int>>::FromVector(&ctx, records, 4);

  GroupByKey(ds).Collect();
  auto reports = ctx.metrics().StageReports();
  EXPECT_TRUE(HasStage(reports, "groupByKey:map", 1));
  EXPECT_TRUE(HasStage(reports, "groupByKey:merge", 1));
  EXPECT_TRUE(HasStage(reports, "groupByKey:reduce", 1));

  ctx.metrics().Reset();
  ReduceByKey(ds, [](int a, int b) { return a + b; }).Collect();
  reports = ctx.metrics().StageReports();
  EXPECT_TRUE(HasStage(reports, "reduceByKey:map", 1));
  EXPECT_TRUE(HasStage(reports, "reduceByKey:reduce", 1));

  ctx.metrics().Reset();
  Join(ds, ds).Collect();
  EXPECT_TRUE(HasStage(ctx.metrics().StageReports(), "join:probe", 1));

  ctx.metrics().Reset();
  CoGroup(ds, ds).Collect();
  EXPECT_TRUE(HasStage(ctx.metrics().StageReports(), "cogroup:merge", 1));
}

TEST(StageMetrics, ReportsCarryRecordCountsAndJson) {
  ExecutionContext ctx(2);
  auto ds = Dataset<int>::FromVector(&ctx, Range(100), 2);
  ds.Filter([](const int& x) { return x < 40; }).Collect();
  auto reports = ctx.metrics().StageReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].name, "filter");
  EXPECT_EQ(reports[0].tasks, 2u);
  EXPECT_EQ(reports[0].records_in, 100u);
  EXPECT_EQ(reports[0].records_out, 40u);
  EXPECT_EQ(reports[0].task_seconds.size(), 2u);
  std::string json = ctx.metrics().ToJson();
  EXPECT_NE(json.find("\"stage_reports\":[{\"name\":\"filter\""),
            std::string::npos);
  EXPECT_NE(json.find("\"records_in\":100"), std::string::npos);
  EXPECT_NE(json.find("\"simulated_wall_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"task_seconds_min\":"), std::string::npos);
  EXPECT_NE(json.find("\"task_seconds_p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"task_seconds_max\":"), std::string::npos);
  EXPECT_NE(json.find("\"straggler_ratio\":"), std::string::npos);
}

TEST(StageMetrics, SimulatedWallIncludesReduceSideTime) {
  // Every key appears exactly once per input partition, so the map-side
  // combine never invokes the reduce function — ALL reduce work happens in
  // the reduce-side stage. Before stages ran through the StageExecutor that
  // time was invisible to SimulatedWallSeconds().
  const size_t kPartitions = 4;
  const int kKeys = 64;
  std::vector<std::vector<std::pair<int, int>>> parts(kPartitions);
  for (size_t p = 0; p < kPartitions; ++p) {
    for (int k = 0; k < kKeys; ++k) parts[p].emplace_back(k, 1);
  }
  ExecutionContext ctx(1);
  auto ds = Dataset<std::pair<int, int>>(&ctx, parts);
  auto heavy = [](int a, int b) {
    volatile int acc = 0;
    for (int i = 0; i < 50000; ++i) acc += i;
    return a + b + (acc - acc);
  };
  auto reduced = ReduceByKey(ds, heavy);
  std::map<int, int> got;
  for (const auto& [k, v] : reduced.Collect()) got[k] = v;
  ASSERT_EQ(got.size(), static_cast<size_t>(kKeys));
  for (const auto& [k, v] : got) EXPECT_EQ(v, 4) << "key " << k;

  double reduce_busy = 0.0;
  for (const auto& r : ctx.metrics().StageReports()) {
    if (r.name == "reduceByKey:reduce") reduce_busy = r.busy_seconds;
  }
  EXPECT_GT(reduce_busy, 0.0);
  // One worker: the simulated cluster time is the sum of every task's CPU
  // time, so it must cover the reduce-side stage entirely.
  EXPECT_GE(ctx.metrics().SimulatedWallSeconds(), reduce_busy);
}

// Deterministic per-row work heavy enough for stage CPU timings to track
// the row split rather than scheduler noise.
uint64_t BurnHash(uint64_t x) {
  uint64_t h = x * 0x9E3779B97F4A7C15ULL + 1;
  for (int i = 0; i < 2000; ++i) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
  }
  return h;
}

TEST(MorselScheduling, SkewedPartitionStopsDominatingUnderMorsels) {
  // One partition 100x the size of the others. At partition granularity the
  // big partition is one work unit and holds most of the stage's CPU time;
  // at morsel granularity the same rows become many same-sized units the
  // scheduler spreads across workers. Outputs must match bit-for-bit either
  // way.
  std::vector<std::vector<uint64_t>> parts(9);
  uint64_t next = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    const size_t n = p == 0 ? 10000 : 100;
    for (size_t i = 0; i < n; ++i) parts[p].push_back(next++);
  }

  auto run = [&](size_t morsel_rows, StageReport* report) {
    ExecutionContext ctx(4);
    ctx.set_morsel_rows(morsel_rows);
    auto ds = Dataset<uint64_t>(&ctx, parts).Map([](const uint64_t& x) {
      return BurnHash(x);
    });
    std::vector<uint64_t> out = ds.Collect();
    const auto reports = ctx.metrics().StageReports();
    EXPECT_EQ(reports.size(), 1u);
    if (!reports.empty()) *report = reports.front();
    return out;
  };

  // The check is the largest unit's share of the stage's summed per-unit
  // CPU time, not a ratio of two single-unit timings: every unit does the
  // same work per row, so the share tracks the row split (10000/10800 =
  // 0.93 for the partition run, 100/10800 = 0.009 for the morsel run).
  auto largest_unit_share = [](const StageReport& r) {
    return r.busy_seconds > 0.0 ? r.TaskMaxSeconds() / r.busy_seconds : 1.0;
  };
  // A loaded host can charge one unit of a run with CPU time it did not
  // spend on that unit's rows (3 full-suite runs in about 190 on a shared
  // VM put a morsel at over a quarter of the stage). That time only ever
  // adds to a unit, and a share moves away from the row split only when
  // the charged unit becomes the largest. So each granularity runs three
  // times and is judged by the run closest to its row split, which no
  // longer depends on a one-off charge landing in the wrong place.
  constexpr int kRuns = 3;
  double partition_share = 0.0;  // highest of the runs
  double morsel_share = 1.0;     // lowest of the runs
  std::vector<uint64_t> reference;
  for (int r = 0; r < kRuns; ++r) {
    // A morsel size of at least the largest partition gives one morsel per
    // task: partition granularity.
    StageReport partition_report;
    std::vector<uint64_t> partition_out = run(10000, &partition_report);
    StageReport morsel_report;
    std::vector<uint64_t> morsel_out = run(100, &morsel_report);
    EXPECT_EQ(partition_out, morsel_out);
    if (r == 0) reference = partition_out;
    EXPECT_EQ(partition_out, reference);

    // Partition granularity: 9 units, the 10000-row one dominates.
    EXPECT_EQ(partition_report.tasks, 9u);
    EXPECT_EQ(partition_report.morsels, 9u);
    partition_share =
        std::max(partition_share, largest_unit_share(partition_report));

    // Morsel path: 100-row units, so the heavy partition becomes 100 of
    // the 108 units.
    EXPECT_EQ(morsel_report.tasks, 9u);
    EXPECT_EQ(morsel_report.morsels, 108u);
    ASSERT_GT(morsel_report.busy_seconds, 0.0);
    morsel_share = std::min(morsel_share, largest_unit_share(morsel_report));
  }
  EXPECT_GT(partition_share, 0.5);
  // No unit may hold more than a quarter of the stage's CPU time (ideal:
  // under 1%).
  EXPECT_LT(morsel_share, 0.25);
}

TEST(MorselScheduling, MorselPathMatchesPartitionPathOnChains) {
  // Fused Map/Filter/FlatMap chains and shuffles must produce identical
  // results with small morsels and with one morsel per partition.
  auto build = [](ExecutionContext* ctx) {
    auto ds = Dataset<int>::FromVector(ctx, Range(5000), 7);
    return ds.Map([](const int& x) { return x * 3 - 1; })
        .Filter([](const int& x) { return x % 5 != 0; })
        .FlatMap([](const int& x) {
          std::vector<int> v;
          for (int k = 0; k <= x % 3; ++k) v.push_back(x + k);
          return v;
        });
  };
  ExecutionContext ctx_morsel(4);
  ctx_morsel.set_morsel_rows(64);
  ExecutionContext ctx_partition(4);
  ctx_partition.set_morsel_rows(5000);
  auto morsel = build(&ctx_morsel);
  auto partition = build(&ctx_partition);
  EXPECT_EQ(morsel.partitions(), partition.partitions());
  auto keyed = [](const Dataset<int>& ds) {
    return GroupByKey(ds.Map([](const int& x) {
             return std::make_pair(x % 11, x);
           })).Collect();
  };
  EXPECT_EQ(keyed(morsel), keyed(partition));
  EXPECT_GT(ctx_morsel.metrics().morsels(), 0u);
}

/// Replaces the fault injector's schedule for one scope, then restores the
/// environment's (BD_FAULT_SPEC / BD_FAULT_SEED), so a suite run under a
/// chaos schedule keeps it for the tests that follow.
class ScopedFaultSpec {
 public:
  explicit ScopedFaultSpec(const std::string& spec) {
    EXPECT_TRUE(FaultInjector::Instance().Configure(spec, /*seed=*/1).ok());
  }
  ~ScopedFaultSpec() {
    const char* spec = std::getenv("BD_FAULT_SPEC");
    const char* seed = std::getenv("BD_FAULT_SEED");
    EXPECT_TRUE(FaultInjector::Instance()
                    .Configure(spec ? spec : "",
                               seed ? std::strtoull(seed, nullptr, 10) : 42)
                    .ok());
  }
};

TEST(StageExecutor, MorselFaultRetriesAtItsGlobalMorselIndex) {
  // 3 tasks x 1,000 units at morsel size 100: 30 morsels, and fault site
  // 17 is the global morsel index (task 1, piece 7). One injected throw
  // costs exactly one retry and leaves the output unchanged.
  ExecutionContext ctx(4);
  ctx.set_morsel_rows(100);
  const std::string stage = "executor:morsel-fault";
  auto run = [&]() {
    return StageExecutor(&ctx).RunMorsels<std::vector<uint64_t>>(
        stage, 3, [](size_t) { return size_t{1000}; },
        [](size_t t, size_t begin, size_t end, TaskContext& tc) {
          std::vector<uint64_t> piece;
          for (size_t i = begin; i < end; ++i) piece.push_back(t * 1000 + i);
          tc.records_in = end - begin;
          tc.records_out = piece.size();
          return piece;
        },
        [](size_t, std::vector<std::vector<uint64_t>>&& pieces) {
          std::vector<uint64_t> slot;
          for (const auto& piece : pieces) {
            slot.insert(slot.end(), piece.begin(), piece.end());
          }
          return slot;
        });
  };
  auto clean = run();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  Counter& retries = MetricsRegistry::Instance().GetCounter("stage.retries");
  const uint64_t retries_before = retries.Value();
  {
    ScopedFaultSpec faults("stage=" + stage + ",task=17,kind=throw,times=1");
    auto faulted = run();
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_EQ(*faulted, *clean);
  }
  const StageReport report = ctx.metrics().StageReports().back();
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.failed_attempts, 1u);
  EXPECT_EQ(report.morsels, 30u);
  EXPECT_EQ(report.records_in, 3000u);
  EXPECT_EQ(retries.Value() - retries_before, report.retries);
}

TEST(StageExecutor, EmptyStagesFinish) {
  ExecutionContext ctx(4);
  StageExecutor exec(&ctx);
  auto none = exec.RunProducing<int>("executor:no-tasks", 0,
                                     [](size_t, TaskContext&) { return 1; });
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  // A task with no units has no morsels; merge still folds its (empty)
  // piece list.
  auto merged = exec.RunMorsels<std::vector<int>>(
      "executor:no-units", 1, [](size_t) { return size_t{0}; },
      [](size_t, size_t, size_t, TaskContext&) { return std::vector<int>{1}; },
      [](size_t, std::vector<std::vector<int>>&& pieces) {
        EXPECT_TRUE(pieces.empty());
        return std::vector<int>{};
      });
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_TRUE(merged->front().empty());

  const auto reports = ctx.metrics().StageReports();
  ASSERT_EQ(reports.size(), 2u);
  for (const StageReport& r : reports) {
    EXPECT_TRUE(r.finished) << r.name;
    EXPECT_EQ(r.morsels, 0u) << r.name;
  }
}

TEST(StageExecutor, NestedProducingStageCompletesOnOneWorker) {
  // The inner stage's driver is the outer task's thread; it claims the
  // inner units itself, so nesting cannot deadlock a one-thread pool.
  ExecutionContext ctx(1);
  StageExecutor exec(&ctx);
  auto outer = exec.RunProducing<uint64_t>(
      "executor:outer", 3, [&](size_t t, TaskContext&) {
        auto inner = exec.RunProducing<uint64_t>(
            "executor:inner", 4,
            [t](size_t i, TaskContext&) { return uint64_t{t * 10 + i}; });
        if (!inner.ok()) throw StageError(inner.status());
        uint64_t sum = 0;
        for (uint64_t v : *inner) sum += v;
        return sum;
      });
  ASSERT_TRUE(outer.ok()) << outer.status().ToString();
  EXPECT_EQ(*outer, (std::vector<uint64_t>{6, 46, 86}));
}

TEST(StageExecutor, InPlaceStagesNeverSpeculate) {
  // Run bodies write caller memory, so a straggler is never duplicated,
  // however eager the speculation policy.
  ExecutionContext ctx(4);
  FaultPolicy eager;
  eager.speculation = true;
  eager.speculation_multiplier = 1.5;
  eager.speculation_min_seconds = 0.0;
  ScopedFaultPolicy scoped(&ctx, eager);
  std::vector<uint64_t> slots(16, 0);
  ASSERT_TRUE(StageExecutor(&ctx)
                  .Run("executor:in-place", slots.size(),
                       [&](size_t t, TaskContext&) {
                         if (t == 3) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(40));
                         }
                         slots[t] += t + 1;
                       })
                  .ok());
  EXPECT_EQ(ctx.metrics().StageReports().back().speculative_launched, 0u);
  for (size_t t = 0; t < slots.size(); ++t) EXPECT_EQ(slots[t], t + 1);
}

TEST(DatasetFusion, RepartitionMatchesDriverSideRoundRobin) {
  // The parallel repartition must reproduce the seed semantics exactly:
  // records in global Collect() order dealt round-robin over the new
  // partitions.
  std::vector<std::vector<int>> skewed = {Range(41), {}, {100, 99}, Range(7)};
  ExecutionContext ctx(4);
  auto ds = Dataset<int>(&ctx, skewed);
  auto flat = ds.Collect();
  for (size_t n : {1u, 3u, 8u}) {
    std::vector<std::vector<int>> expected(n);
    for (size_t g = 0; g < flat.size(); ++g) {
      expected[g % n].push_back(flat[g]);
    }
    EXPECT_EQ(ds.Repartition(n).partitions(), expected) << n << " targets";
  }
}

}  // namespace
}  // namespace bigdansing
