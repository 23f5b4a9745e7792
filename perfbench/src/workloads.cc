#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <utility>

#include "common/hash.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "core/stream_session.h"
#include "data/profile.h"
#include "datagen/datagen.h"
#include "repair/quality.h"
#include "repair/strategy.h"
#include "rules/parser.h"

namespace perfbench {
namespace {

using bigdansing::BigDansing;
using bigdansing::CleanOptions;
using bigdansing::CleanReport;
using bigdansing::DetectionResult;
using bigdansing::DetectRequest;
using bigdansing::ExecutionContext;
using bigdansing::GeneratedData;
using bigdansing::Metrics;
using bigdansing::Result;
using bigdansing::Row;
using bigdansing::RowId;
using bigdansing::RulePtr;
using bigdansing::StageReport;
using bigdansing::Table;

uint64_t Mix(uint64_t h, uint64_t v) {
  return bigdansing::StableHashUint64(h ^ (v + 0x9e3779b97f4a7c15ULL +
                                           (h << 6) + (h >> 2)));
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Rows of `table` in row-id order (stream sessions reorder rows on
/// retraction; generator tables are already in id order).
std::vector<const Row*> RowsById(const Table& table) {
  std::vector<const Row*> rows;
  rows.reserve(table.num_rows());
  for (const Row& row : table.rows()) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(),
            [](const Row* a, const Row* b) { return a->id() < b->id(); });
  return rows;
}

/// Hash of every row id and cell value, independent of row order.
uint64_t TableFingerprint(const Table& table) {
  uint64_t h = table.num_rows();
  for (const Row* row : RowsById(table)) {
    h = Mix(h, static_cast<uint64_t>(row->id()));
    for (const auto& value : row->values()) h = Mix(h, value.Hash());
  }
  return h;
}

uint64_t MixCell(uint64_t h, const bigdansing::Cell& cell) {
  h = Mix(h, static_cast<uint64_t>(cell.ref.row_id));
  h = Mix(h, cell.ref.column);
  return Mix(h, cell.value.Hash());
}

/// Hash of the violation set (cells and candidate fixes of every
/// violation), independent of the order violations are reported in.
uint64_t ViolationFingerprint(const std::vector<DetectionResult>& results) {
  std::vector<uint64_t> hashes;
  for (const auto& result : results) {
    for (const auto& vf : result.violations) {
      uint64_t h = bigdansing::StableHashBytes(vf.violation.rule_name);
      for (const auto& cell : vf.violation.cells) h = MixCell(h, cell);
      for (const auto& fix : vf.fixes) {
        h = MixCell(h, fix.left);
        h = Mix(h, static_cast<uint64_t>(fix.op));
        h = fix.right.is_cell ? MixCell(h, fix.right.cell)
                              : Mix(h, fix.right.constant.Hash());
      }
      hashes.push_back(h);
    }
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = hashes.size();
  for (uint64_t v : hashes) h = Mix(h, v);
  return h;
}

size_t ViolationCount(const std::vector<DetectionResult>& results) {
  size_t n = 0;
  for (const auto& result : results) n += result.violations.size();
  return n;
}

bool ParseRules(const std::vector<std::string>& texts,
                std::vector<RulePtr>* rules, std::string* error) {
  for (const auto& text : texts) {
    auto rule = bigdansing::ParseRule(text);
    if (!rule.ok()) {
      *error = "rule '" + text + "': " + rule.status().ToString();
      return false;
    }
    rules->push_back(*rule);
  }
  return true;
}

void Fail(JobResult* result, const std::string& what) {
  ++result->failed;
  if (result->error.empty()) result->error = what;
}

/// Checks one call's Status into `result`; true when it is OK.
bool Check(JobResult* result, const bigdansing::Status& status,
           const char* call) {
  ++result->calls;
  if (status.ok()) return true;
  Fail(result, std::string(call) + ": " + status.ToString());
  return false;
}

/// Stage reports `metrics` recorded since `*mark`; advances the mark.
std::vector<StageReport> NewStages(const Metrics& metrics, size_t* mark) {
  std::vector<StageReport> all = metrics.StageReports();
  std::vector<StageReport> fresh(all.begin() + std::min(*mark, all.size()),
                                 all.end());
  *mark = all.size();
  return fresh;
}

/// Adds one context's engine counters and stage totals to `layers`.
void AddDataflow(const Metrics& metrics, LayerValues* layers) {
  LayerValues& v = *layers;
  for (const StageReport& s : metrics.StageReports()) {
    v["dataflow.stage_wall_s"] += s.wall_seconds;
    v["dataflow.busy_s"] += s.busy_seconds;
    v["dataflow.steals"] += static_cast<double>(s.steals);
    v["dataflow.retries"] += static_cast<double>(s.retries);
    v["dataflow.alloc_bytes"] += static_cast<double>(s.alloc_bytes);
    v["dataflow.straggler_ratio_max"] =
        std::max(v["dataflow.straggler_ratio_max"], s.StragglerRatio());
  }
  v["dataflow.simulated_wall_s"] += metrics.SimulatedWallSeconds();
  v["dataflow.shuffled_records"] +=
      static_cast<double>(metrics.shuffled_records());
  v["dataflow.pairs_enumerated"] +=
      static_cast<double>(metrics.pairs_enumerated());
  v["dataflow.tasks"] += static_cast<double>(metrics.tasks());
  v["dataflow.morsels"] += static_cast<double>(metrics.morsels());
}

/// Counters of one RuleEngine::Detect call.
void AddDetectCounts(const std::vector<DetectionResult>& results,
                     double call_s, LayerValues* layers) {
  double probed = 0.0, candidates = 0.0, pruned = 0.0;
  for (const auto& r : results) {
    probed += static_cast<double>(r.detect_calls);
    candidates += static_cast<double>(r.ocjoin_stats.candidate_pairs);
    pruned += static_cast<double>(r.ocjoin_stats.partition_pairs_total -
                                  r.ocjoin_stats.partition_pairs_after_pruning);
  }
  LayerValues& v = *layers;
  v["core.detect.call_s"] = call_s;
  v["core.detect.detect_calls"] = probed;
  v["core.detect.hit_ratio"] =
      probed > 0 ? static_cast<double>(ViolationCount(results)) / probed : 0.0;
  v["core.ocjoin.candidate_pairs"] = candidates;
  v["core.ocjoin.partition_pairs_pruned"] = pruned;
}

/// One cleanse iteration replayed call by call on a copy of `input`:
/// RuleEngine::Detect, pooling, RepairStrategy::Repair, ApplyAssignments.
JobResult ReplayIteration(ExecutionContext* ctx, const Table& input,
                          const std::vector<RulePtr>& rules,
                          const CleanOptions& options, Tracer* tracer,
                          LayerValues* layers) {
  JobResult result;
  Table table = input;
  ctx->metrics().Reset();
  bigdansing::RuleEngine engine(ctx, options.planner);
  DetectRequest request;
  request.table = &table;
  request.rules = rules;
  SpanScope job(tracer, "replay", kUnattributed);

  double t0 = NowSeconds();
  Result<std::vector<DetectionResult>> detected = std::vector<DetectionResult>{};
  {
    SpanScope span(tracer, "RuleEngine::Detect", "core.detect.driver_s");
    detected = engine.Detect(request);
  }
  const double detect_s = NowSeconds() - t0;
  if (!Check(&result, detected.status(), "RuleEngine::Detect")) return result;
  AddDetectCounts(*detected, detect_s, layers);

  std::vector<bigdansing::ViolationWithFixes> pooled;
  for (auto& d : *detected) {
    for (auto& vf : d.violations) {
      if (!vf.fixes.empty()) pooled.push_back(std::move(vf));
    }
  }
  t0 = NowSeconds();
  Result<bigdansing::RepairPassResult> pass = bigdansing::RepairPassResult{};
  {
    SpanScope span(tracer, "RepairStrategy::Repair", "repair.driver_s");
    pass = bigdansing::RepairStrategyFor(options.repair_mode)
               .Repair(ctx, pooled, options.repair);
  }
  const double repair_s = NowSeconds() - t0;
  if (!Check(&result, pass.status(), "RepairStrategy::Repair")) return result;

  t0 = NowSeconds();
  {
    SpanScope span(tracer, "ApplyAssignments", "core.apply_s");
    bigdansing::ApplyAssignments(&table, pass->applied, nullptr);
  }
  ++result.calls;
  LayerValues& v = *layers;
  v["repair.pass_s"] = repair_s;
  v["core.apply_s"] = NowSeconds() - t0;
  v["repair.fixes_per_violation"] =
      pooled.empty() ? 0.0
                     : static_cast<double>(pass->applied.size()) /
                           static_cast<double>(pooled.size());
  return result;
}

/// ProfileTable over the workload's input, timed.
void MeasureProfile(ExecutionContext* ctx, const Table& input, Tracer* tracer,
                    LayerValues* layers) {
  SpanScope job(tracer, "profile", kUnattributed);
  const double t0 = NowSeconds();
  {
    SpanScope span(tracer, "ProfileTable", "data.profile_s");
    bigdansing::ProfileTable(ctx, input);
  }
  (*layers)["data.profile_s"] = NowSeconds() - t0;
}

// ---------------------------------------------------------------------------
// Batch cleanse: one BigDansing::Clean (equivalence-class repair) of 400K
// TaxA rows under two FDs, over a fresh copy of the dirty table.

class CleanWorkload : public Workload {
 public:
  bool Setup(uint64_t seed, size_t workers, std::string* error) override {
    data_ = bigdansing::GenerateTaxA(400000, 0.1, seed);
    if (!ParseRules({"phi1: FD: zipcode -> city", "phi6: FD: zipcode -> state"},
                    &rules_, error)) {
      return false;
    }
    ctx_ = std::make_unique<ExecutionContext>(workers);
    const JobResult warm = RunJob(nullptr, nullptr);
    *error = warm.error;
    return warm.failed == 0;
  }

  JobResult RunJob(Tracer* tracer, LayerValues* layers) override {
    JobResult result;
    Table table = data_.dirty;
    ctx_->metrics().Reset();
    BigDansing system(ctx_.get(), options_);

    const double t0 = NowSeconds();
    SpanScope job(tracer, "job", kUnattributed);
    SpanScope call(tracer, "BigDansing::Clean", "core.clean.other_s");
    Result<CleanReport> report = system.Clean(&table, rules_);
    call.Close();
    job.Close();
    result.wall_s = NowSeconds() - t0;
    result.windows_s = {result.wall_s};
    if (!Check(&result, report.status(), "BigDansing::Clean")) return result;

    Summary summary;
    summary.fingerprint = TableFingerprint(table);
    summary.iterations = report->num_iterations();
    for (const auto& it : report->iterations) {
      summary.violations += it.violations;
      summary.fixes += it.applied_fixes;
    }
    if (!have_reference_) {
      reference_ = summary;
      have_reference_ = true;
      EvaluateQuality(table);
    } else if (!(summary == reference_)) {
      Fail(&result, "Clean output differs from the reference job");
    }

    if (tracer != nullptr) {
      const double detect_s = report->total_detect_seconds;
      const double repair_s = report->total_repair_seconds;
      const int detect = tracer->AddChild(call.id(), "detect",
                                          "core.detect.driver_s", detect_s);
      const int repair =
          tracer->AddChild(call.id(), "repair", "repair.driver_s", repair_s);
      tracer->AddStages(ctx_->metrics().StageReports(), detect, repair);
      LayerValues& v = *layers;
      v["core.clean.detect_s"] = detect_s;
      v["core.clean.repair_s"] = repair_s;
      v["core.clean.iterations"] = static_cast<double>(summary.iterations);
      v["core.clean.violations"] = static_cast<double>(summary.violations);
      v["core.clean.fixes"] = static_cast<double>(summary.fixes);
      AddDataflow(ctx_->metrics(), layers);
    }
    return result;
  }

  JobResult MeasureLayers(Tracer* tracer, LayerValues* layers) override {
    JobResult result = ReplayIteration(ctx_.get(), data_.dirty, rules_,
                                       options_, tracer, layers);
    MeasureProfile(ctx_.get(), data_.dirty, tracer, layers);
    return result;
  }

  size_t input_rows() const override { return data_.dirty.num_rows(); }

  std::map<std::string, double> Quality() const override { return quality_; }

  std::string Reference() const override {
    return "table=" + Hex(reference_.fingerprint) +
           " iterations=" + std::to_string(reference_.iterations) +
           " violations=" + std::to_string(reference_.violations) +
           " fixes=" + std::to_string(reference_.fixes);
  }

 private:
  struct Summary {
    uint64_t fingerprint = 0;
    size_t iterations = 0;
    size_t violations = 0;
    size_t fixes = 0;
    bool operator==(const Summary&) const = default;
  };

  void EvaluateQuality(const Table& repaired) {
    auto q = bigdansing::EvaluateRepair(data_.dirty, repaired, data_.clean);
    if (q.ok()) {
      quality_["repair_precision"] = q->precision;
      quality_["repair_recall"] = q->recall;
    }
  }

  GeneratedData data_;
  std::vector<RulePtr> rules_;
  std::unique_ptr<ExecutionContext> ctx_;
  CleanOptions options_;
  bool have_reference_ = false;
  Summary reference_;
  std::map<std::string, double> quality_;
};

// ---------------------------------------------------------------------------
// Detection only: BigDansing::Detect of the TaxB inequality DC (OCJoin),
// checked against the same Detect routed through IEJoin.

class DetectWorkload : public Workload {
 public:
  bool Setup(uint64_t seed, size_t workers, std::string* error) override {
    data_ = bigdansing::GenerateTaxB(40000, 0.1, seed);
    if (!ParseRules({"phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate"},
                    &rules_, error)) {
      return false;
    }
    ctx_ = std::make_unique<ExecutionContext>(workers);
    {
      ExecutionContext iejoin_ctx(workers);
      CleanOptions iejoin;
      iejoin.planner.use_iejoin = true;
      auto expected = BigDansing(&iejoin_ctx, iejoin).Detect(data_.dirty, rules_);
      if (!expected.ok()) {
        *error = "IEJoin reference: " + expected.status().ToString();
        return false;
      }
      reference_ = ViolationFingerprint(*expected);
      reference_violations_ = ViolationCount(*expected);
    }
    const JobResult warm = RunJob(nullptr, nullptr);
    *error = warm.error;
    return warm.failed == 0;
  }

  JobResult RunJob(Tracer* tracer, LayerValues* layers) override {
    JobResult result;
    ctx_->metrics().Reset();
    BigDansing system(ctx_.get());

    const double t0 = NowSeconds();
    SpanScope job(tracer, "job", kUnattributed);
    SpanScope call(tracer, "BigDansing::Detect", "core.detect.driver_s");
    auto detected = system.Detect(data_.dirty, rules_);
    call.Close();
    job.Close();
    result.wall_s = NowSeconds() - t0;
    result.windows_s = {result.wall_s};
    if (!Check(&result, detected.status(), "BigDansing::Detect")) {
      return result;
    }
    if (ViolationFingerprint(*detected) != reference_ ||
        ViolationCount(*detected) != reference_violations_) {
      Fail(&result, "OCJoin violations differ from the IEJoin reference");
    }
    if (tracer != nullptr) {
      tracer->AddStages(ctx_->metrics().StageReports(), call.id(), call.id());
      AddDetectCounts(*detected, result.wall_s, layers);
      AddDataflow(ctx_->metrics(), layers);
    }
    return result;
  }

  JobResult MeasureLayers(Tracer* tracer, LayerValues* layers) override {
    MeasureProfile(ctx_.get(), data_.dirty, tracer, layers);
    return JobResult{};
  }

  size_t input_rows() const override { return data_.dirty.num_rows(); }

  std::map<std::string, double> Quality() const override { return {}; }

  std::string Reference() const override {
    return "violations=" + Hex(reference_) +
           " count=" + std::to_string(reference_violations_);
  }

 private:
  GeneratedData data_;
  std::vector<RulePtr> rules_;
  std::unique_ptr<ExecutionContext> ctx_;
  uint64_t reference_ = 0;
  size_t reference_violations_ = 0;
};

// ---------------------------------------------------------------------------
// Streaming cleanse: HAI rows arrive in 600-row batches through one
// StreamSession; 2% of each batch is retracted after the next one landed.

class StreamWorkload : public Workload {
 public:
  static constexpr size_t kRows = 60000;
  static constexpr size_t kBatchRows = 600;
  static constexpr size_t kBatches = kRows / kBatchRows;
  static constexpr size_t kRetractRows = kBatchRows / 50;

  bool Setup(uint64_t seed, size_t workers, std::string* error) override {
    data_ = bigdansing::GenerateHai(kRows, 0.1, seed);
    if (!ParseRules({"phi6: FD: zipcode -> state", "phi7: FD: phone -> zipcode",
                     "phi8: FD: provider_id -> city, phone"},
                    &rules_, error)) {
      return false;
    }
    ctx_ = std::make_unique<ExecutionContext>(workers);
    options_.batch_rows = kBatchRows;
    // Retraction victims: kRetractRows distinct rows of batch b-1, removed
    // after batch b was polled. Generator row ids are row positions.
    std::mt19937_64 rng(seed);
    retract_.assign(kBatches, {});
    for (size_t b = 1; b < kBatches; ++b) {
      std::vector<RowId> positions(kBatchRows);
      for (size_t i = 0; i < kBatchRows; ++i) {
        positions[i] = static_cast<RowId>((b - 1) * kBatchRows + i);
      }
      std::shuffle(positions.begin(), positions.end(), rng);
      positions.resize(kRetractRows);
      std::sort(positions.begin(), positions.end());
      retract_[b] = std::move(positions);
    }
    const JobResult warm = RunJob(nullptr, nullptr);
    *error = warm.error;
    return warm.failed == 0;
  }

  JobResult RunJob(Tracer* tracer, LayerValues* layers) override {
    JobResult result;
    Table table(data_.dirty.schema());
    ctx_->metrics().Reset();
    BigDansing system(ctx_.get());
    auto session = system.OpenStream(&table, rules_, options_);
    if (!Check(&result, session.status(), "BigDansing::OpenStream")) {
      return result;
    }
    bigdansing::StreamSession& s = **session;
    std::vector<std::vector<Row>> batches(kBatches);
    const auto& rows = data_.dirty.rows();
    for (size_t b = 0; b < kBatches; ++b) {
      batches[b].assign(rows.begin() + b * kBatchRows,
                        rows.begin() + (b + 1) * kBatchRows);
    }

    size_t mark = 0;
    LayerValues scratch;
    LayerValues& v = layers != nullptr ? *layers : scratch;
    // Report-built children of a call span: one detect and one repair
    // phase, with the stages the call ran beneath them.
    auto add_phases = [&](int call, double detect_s, double repair_s) {
      const int detect =
          tracer->AddChild(call, "detect", "core.detect.driver_s", detect_s);
      const int repair =
          tracer->AddChild(call, "repair", "repair.driver_s", repair_s);
      tracer->AddStages(NewStages(s.metrics(), &mark), detect, repair);
    };

    const double t0 = NowSeconds();
    SpanScope job(tracer, "job", kUnattributed);
    const int job_index = tracer != nullptr ? tracer->last_job() : -1;
    for (size_t b = 0; b < kBatches; ++b) {
      const double w0 = NowSeconds();
      SpanScope append(tracer, "StreamSession::Append",
                       "core.stream.append_land_s");
      const bigdansing::Status appended = s.Append(std::move(batches[b]));
      append.Close();
      if (tracer != nullptr) {
        tracer->AddStages(NewStages(s.metrics(), &mark), append.id(),
                          append.id());
      }
      SpanScope poll(tracer, "StreamSession::Poll",
                     "core.stream.window_land_s");
      Result<bigdansing::StreamWindowReport> window = s.Poll();
      poll.Close();
      result.windows_s.push_back(NowSeconds() - w0);
      if (!Check(&result, appended, "StreamSession::Append") ||
          !Check(&result, window.status(), "StreamSession::Poll")) {
        return result;
      }
      if (tracer != nullptr) {
        add_phases(poll.id(), window->detect_seconds, window->repair_seconds);
        v["core.stream.window_detect_s"] += window->detect_seconds;
        v["core.stream.window_repair_s"] += window->repair_seconds;
        v["core.stream.candidate_rows"] +=
            static_cast<double>(window->candidate_rows);
        v["core.stream.dirty_blocks"] +=
            static_cast<double>(window->dirty_blocks);
        v["core.stream.window_iterations"] +=
            static_cast<double>(window->iterations);
        v["core.stream.appended_rows"] +=
            static_cast<double>(window->appended_rows);
      }
      if (b == 0) continue;
      SpanScope retract(tracer, "StreamSession::Retract",
                        "core.stream.retract_land_s");
      const bigdansing::Status retracted = s.Retract(retract_[b]);
      retract.Close();
      if (!Check(&result, retracted, "StreamSession::Retract")) return result;
      if (tracer != nullptr) {
        tracer->AddStages(NewStages(s.metrics(), &mark), retract.id(),
                          retract.id());
      }
    }
    const double f0 = NowSeconds();
    SpanScope flush(tracer, "StreamSession::Flush", "core.stream.flush_land_s");
    Result<bigdansing::StreamFlushReport> flushed = s.Flush();
    flush.Close();
    job.Close();
    result.wall_s = NowSeconds() - t0;
    result.flush_s = result.wall_s - (f0 - t0);
    if (!Check(&result, flushed.status(), "StreamSession::Flush")) {
      return result;
    }
    if (!flushed->converged) Fail(&result, "Flush did not converge");

    const bigdansing::StreamSessionStats stats = s.stats();
    Summary summary{TableFingerprint(table), stats.violations_found,
                    stats.fixes_applied, table.num_rows()};
    if (!have_reference_) {
      reference_ = summary;
      have_reference_ = true;
      EvaluateQuality(table);
    } else if (!(summary == reference_)) {
      Fail(&result, "stream output differs from the reference job");
    }

    if (tracer != nullptr) {
      double detect_s = 0.0, repair_s = 0.0;
      for (const auto& w : flushed->windows) {
        detect_s += w.detect_seconds;
        repair_s += w.repair_seconds;
      }
      add_phases(flush.id(), detect_s, repair_s);
      v["core.stream.append_s"] = tracer->Total(job_index, "StreamSession::Append");
      v["core.stream.poll_s"] = tracer->Total(job_index, "StreamSession::Poll");
      v["core.stream.retract_s"] =
          tracer->Total(job_index, "StreamSession::Retract");
      v["core.stream.flush_s"] = tracer->Total(job_index, "StreamSession::Flush");
      v["core.stream.candidates_per_appended_row"] =
          v["core.stream.candidate_rows"] /
          std::max(1.0, v["core.stream.appended_rows"]);
      v.erase("core.stream.appended_rows");
      v["core.stream.pool_growths"] = static_cast<double>(stats.pool_growths);
      v["core.stream.kernel_rebinds"] =
          static_cast<double>(stats.kernel_rebinds);
      v["core.stream.index_rows"] = static_cast<double>(stats.index_rows);
      AddDataflow(s.metrics(), layers);
      AddDataflow(ctx_->metrics(), layers);
    }
    Check(&result, s.Close(), "StreamSession::Close");
    return result;
  }

  JobResult MeasureLayers(Tracer* tracer, LayerValues* layers) override {
    JobResult result = ReplayIteration(ctx_.get(), data_.dirty, rules_,
                                       CleanOptions(), tracer, layers);
    MeasureProfile(ctx_.get(), data_.dirty, tracer, layers);
    return result;
  }

  size_t input_rows() const override { return kRows; }

  std::map<std::string, double> Quality() const override { return quality_; }

  std::string Reference() const override {
    return "table=" + Hex(reference_.fingerprint) +
           " rows=" + std::to_string(reference_.rows) +
           " violations=" + std::to_string(reference_.violations) +
           " fixes=" + std::to_string(reference_.fixes);
  }

 private:
  struct Summary {
    uint64_t fingerprint = 0;
    uint64_t violations = 0;
    uint64_t fixes = 0;
    size_t rows = 0;
    bool operator==(const Summary&) const = default;
  };

  /// Precision/recall over the rows that survived retraction, aligned by
  /// row id with the generator's dirty and clean tables.
  void EvaluateQuality(const Table& repaired) {
    const bigdansing::Schema& schema = data_.dirty.schema();
    Table dirty(schema), clean(schema), survivors(schema);
    for (const Row* row : RowsById(repaired)) {
      const size_t id = static_cast<size_t>(row->id());
      dirty.AppendRowWithId(data_.dirty.row(id));
      clean.AppendRowWithId(data_.clean.row(id));
      survivors.AppendRowWithId(*row);
    }
    auto q = bigdansing::EvaluateRepair(dirty, survivors, clean);
    if (q.ok()) {
      quality_["repair_precision"] = q->precision;
      quality_["repair_recall"] = q->recall;
    }
  }

  GeneratedData data_;
  std::vector<RulePtr> rules_;
  std::unique_ptr<ExecutionContext> ctx_;
  bigdansing::StreamOptions options_;
  std::vector<std::vector<RowId>> retract_;
  bool have_reference_ = false;
  Summary reference_;
  std::map<std::string, double> quality_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "taxa_fd_clean") return std::make_unique<CleanWorkload>();
  if (name == "taxb_dc_detect") return std::make_unique<DetectWorkload>();
  if (name == "hai_stream") return std::make_unique<StreamWorkload>();
  return nullptr;
}

}  // namespace perfbench
