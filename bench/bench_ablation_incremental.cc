// Ablation (extension beyond the paper): incremental re-detection.
// After a repair pass changed k rows, the next detection pass only needs
// the violations touching those rows (a DetectRequest with changed_rows).
// The saving scales with the cost of Detect: this bench uses a similarity
// DC (Levenshtein on name within zipcode blocks), where skipping untouched
// blocks skips real work.
//
// Every incremental result is checked against the full pass: it must hold
// every full-pass violation that holds a changed row, and nothing the full
// pass lacks (the re-detected blocks' other violations may come back). The
// similarity DC finds almost no violation on this table (one at 200K rows,
// none at BD_SCALE=0.05), so each changed-row set is also checked, untimed,
// on an FD that finds many. The bench exits 1, after printing and emitting
// every record, when a result breaks the contract.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "bench_util.h"
#include "common/random.h"
#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

using bench::ResultTable;
using bench::ScaledRows;
using bench::Secs;
using bench::TimeSeconds;

constexpr const char* kRule =
    "sim: DC: t1.zipcode = t2.zipcode & t1.name ~0.6 t2.name & "
    "t1.city != t2.city";

/// One violation's cells and fixes, in order.
std::string ViolationKey(const ViolationWithFixes& vf) {
  std::string out;
  auto cell = [&](const Cell& c) {
    out += std::to_string(c.ref.row_id) + "." + std::to_string(c.ref.column) +
           "=" + c.value.ToString() + ";";
  };
  for (const auto& c : vf.violation.cells) cell(c);
  for (const auto& fix : vf.fixes) {
    cell(fix.left);
    out += FixOpName(fix.op);
    if (fix.right.is_cell) {
      cell(fix.right.cell);
    } else {
      out += fix.right.constant.ToString();
    }
  }
  return out;
}

std::multiset<std::string> Keys(const DetectionResult& result) {
  std::multiset<std::string> keys;
  for (const auto& vf : result.violations) keys.insert(ViolationKey(vf));
  return keys;
}

/// Whether `incremental` holds every violation of `full` that holds a row
/// of `changed`, and nothing `full` lacks.
bool KeepsContract(const DetectionResult& full,
                   const std::multiset<std::string>& full_keys,
                   const DetectionResult& incremental,
                   const std::unordered_set<RowId>& changed) {
  std::multiset<std::string> want;
  for (const auto& vf : full.violations) {
    for (RowId id : vf.violation.RowIds()) {
      if (changed.count(id) > 0) {
        want.insert(ViolationKey(vf));
        break;
      }
    }
  }
  const std::multiset<std::string> got = Keys(incremental);
  return std::includes(got.begin(), got.end(), want.begin(), want.end()) &&
         std::includes(full_keys.begin(), full_keys.end(), got.begin(),
                       got.end());
}

bool RunOperation() {
  const size_t rows = ScaledRows(200000);
  auto data = GenerateTaxA(rows, 0.1, /*seed=*/71);
  ExecutionContext ctx(16);
  RuleEngine engine(&ctx);

  Result<DetectionResult> full_result = Status::OK();
  double full = TimeSeconds(
      [&] { full_result = engine.Detect(data.dirty, *ParseRule(kRule)); });
  // The FD's requests run in a context of their own, so the records
  // capture only the similarity DC's stages.
  ExecutionContext check_ctx(16);
  RuleEngine check_engine(&check_ctx);
  const RulePtr fd = *ParseRule("phi1: FD: zipcode -> city");
  auto fd_full = check_engine.Detect(data.dirty, fd);
  if (!full_result.ok() || !fd_full.ok()) {
    std::fprintf(stderr, "full detect failed: %s\n",
                 (full_result.ok() ? fd_full : full_result)
                     .status()
                     .ToString()
                     .c_str());
    return false;
  }
  const std::multiset<std::string> full_keys = Keys(*full_result);
  const std::multiset<std::string> fd_keys = Keys(*fd_full);

  ResultTable table(
      "Ablation: incremental re-detection after k changed rows "
      "(similarity DC on TaxA, " + bench::WithCommas(rows) + " rows)",
      {"changed rows", "full detect (s)", "incremental (s)", "speedup",
       "matches full"});
  bool all_kept = true;
  Random rng(5);
  for (double fraction : {0.001, 0.01, 0.05, 0.20}) {
    std::unordered_set<RowId> changed;
    size_t want = std::max<size_t>(1, static_cast<size_t>(rows * fraction));
    while (changed.size() < want) {
      changed.insert(static_cast<RowId>(rng.NextBounded(rows)));
    }
    DetectRequest inc_request;
    inc_request.table = &data.dirty;
    inc_request.rules = {*ParseRule(kRule)};
    inc_request.changed_rows = &changed;
    Result<std::vector<DetectionResult>> inc_result = Status::OK();
    double incremental =
        TimeSeconds([&] { inc_result = engine.Detect(inc_request); });
    DetectRequest fd_request = inc_request;
    fd_request.rules = {fd};
    auto fd_result = check_engine.Detect(fd_request);
    const bool kept =
        inc_result.ok() &&
        KeepsContract(*full_result, full_keys, (*inc_result)[0], changed) &&
        fd_result.ok() &&
        KeepsContract(*fd_full, fd_keys, (*fd_result)[0], changed);
    all_kept &= kept;
    bench::BenchRecord record(
        "ablation_incremental",
        "changed=" + std::to_string(changed.size()));
    record.AddConfig("rule", kRule);
    record.AddConfig("rows", static_cast<uint64_t>(rows));
    record.AddConfig("workers", static_cast<uint64_t>(16));
    record.AddConfig("changed_rows", static_cast<uint64_t>(changed.size()));
    record.AddMetric("wall_seconds", incremental);
    record.AddMetric("full_detect_seconds", full);
    record.AddMetric("matches_full", static_cast<uint64_t>(kept));
    record.CaptureMetrics(ctx.metrics());
    record.Emit();
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  incremental > 0 ? full / incremental : 0.0);
    table.AddRow({bench::WithCommas(changed.size()), Secs(full),
                  Secs(incremental), speedup, kept ? "yes" : "NO"});
  }
  table.Print();
  return all_kept;
}

}  // namespace
}  // namespace bigdansing

int main() {
  if (bigdansing::RunOperation()) return 0;
  std::fprintf(stderr,
               "an incremental result misses a full-pass violation that "
               "holds a changed row, or holds one the full pass lacks (see "
               "\"matches full: NO\" above)\n");
  return 1;
}
