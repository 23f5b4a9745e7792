#ifndef BIGDANSING_COMMON_FAULT_H_
#define BIGDANSING_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"

namespace bigdansing {

/// Thrown by a stage task body (or injected by the FaultInjector) to signal
/// a *retryable* task-attempt failure. The StageExecutor catches it, backs
/// off, and re-runs the attempt — task bodies are deterministic per index,
/// so a retried attempt reproduces the original result bit-identically.
/// Any other exception escaping a task body is treated as non-retryable and
/// fails the whole stage with an Internal Status.
class TaskFailure : public std::runtime_error {
 public:
  explicit TaskFailure(std::string site)
      : std::runtime_error("injected fault at site '" + site + "'"),
        site_(std::move(site)) {}
  TaskFailure(std::string site, const std::string& message)
      : std::runtime_error(message), site_(std::move(site)) {}

  /// The fault site (usually the stage name) the failure is attributed to.
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Internal control-flow exception that carries a stage-failure Status
/// across layers with no Status channel (Dataset::Force, shuffle helpers,
/// OCJoin). Thrown only after the StageExecutor has already turned the
/// failure into a Status; caught — and converted back to that Status — at
/// the public API boundaries (RuleEngine::Detect, RepairStrategy::Repair,
/// MapReduceDetect, Job::Run, BigDansing::Clean). It must never escape the
/// library: "library code never throws" still holds at every public entry
/// point.
class StageError : public std::exception {
 public:
  explicit StageError(Status status)
      : status_(std::move(status)), what_(status_.ToString()) {}

  const Status& status() const { return status_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  Status status_;
  std::string what_;
};

/// Recovery knobs for one stage execution. Carried by the ExecutionContext
/// (default from env) and overridable per request via DetectRequest /
/// CleanOptions.
struct FaultPolicy {
  /// Total attempts per task including the first (1 disables retry).
  size_t max_attempts = 4;
  /// Cap on retries across all tasks of one stage; exhausting it fails the
  /// stage with a non-OK Status.
  size_t stage_retry_budget = 64;
  /// Exponential backoff between attempts of one task, capped.
  double backoff_initial_ms = 0.5;
  double backoff_max_ms = 8.0;
  /// Speculative re-execution of stragglers (BD_SPECULATION). Only stages
  /// whose task results flow through per-attempt buffers (RunProducing)
  /// speculate; in-place stages never do.
  bool speculation = false;
  /// Duplicate a task once it has run longer than
  /// `speculation_multiplier x median committed task wall time`...
  double speculation_multiplier = 2.0;
  /// ...and longer than this floor (so sub-millisecond stages never pay the
  /// duplicate-launch overhead).
  double speculation_min_seconds = 0.002;

  /// Policy from BD_SPECULATION ("0"/unset off; "1" on with the default
  /// multiplier; a number > 1 on with that multiplier).
  static FaultPolicy FromEnv();
};

/// Process-wide deterministic fault injector. Sites are named after the
/// stage they guard (the StageExecutor probes `OnSite(stage, task, attempt)`
/// before every task attempt), so `BD_FAULT_SPEC` schedules map 1:1 onto
/// stage names printed by EXPLAIN / StageReports.
///
/// Spec grammar (BD_FAULT_SPEC or Configure()): semicolon-separated clauses
/// of comma-separated key=value fields:
///
///   stage=<name|prefix*|*>   site filter (required)
///   task=<n>                 only task index n (default: any task)
///   run=<n>                  only the n-th start (from 1) of a stage
///                            matching the site filter since Configure()
///                            (default: every run)
///   kind=throw|delay         throw TaskFailure, or sleep (default throw)
///   prob=<p>                 per-attempt firing probability (default 1.0)
///   times=<n>                stop after n injections (default unlimited)
///   ms=<m>                   delay duration for kind=delay (default 20)
///
/// e.g.  BD_FAULT_SPEC='stage=mr:spill,task=3,kind=throw,prob=0.01'
///       BD_FAULT_SEED=42
///
/// Draws are pure functions of (seed, site, task, attempt): a re-run with
/// the same seed injects the same schedule, and a *retry* of the same task
/// draws again with attempt+1 — so prob=1,times=unlimited starves retries
/// deterministically while prob<1 lets them through.
///
/// Every injection bumps the `fault.injected.<site>` counter (plus
/// `fault.injected_total`) in the MetricsRegistry.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Replaces the active schedule. Empty spec == disable. Returns
  /// InvalidArgument on grammar errors (injector left disabled).
  Status Configure(const std::string& spec, uint64_t seed);

  /// Removes all fault specs (site tracking is left as-is).
  void Clear();

  /// True when at least one spec is active (fast, lock-free; the hot-path
  /// guard for OnSite).
  bool enabled() const {
    return enabled_.load(std::memory_order_acquire) ||
           tracking_.load(std::memory_order_acquire);
  }

  /// Probes the site. May throw TaskFailure (kind=throw) or sleep
  /// (kind=delay). Also records the site when site tracking is on.
  void OnSite(const std::string& site, size_t task, size_t attempt);
  /// Counts one start of stage `site` for the specs whose filter matches
  /// it (the run= index). The StageExecutor calls it once per stage, before
  /// any task attempt.
  void OnStageStart(const std::string& site);

  /// Site tracking: when on, OnSite records every distinct site name even
  /// with no specs active. Lets tests enumerate all registered fault sites
  /// from a fault-free run, then target each one.
  void set_site_tracking(bool on) {
    tracking_.store(on, std::memory_order_release);
  }
  std::vector<std::string> SeenSites() const;
  void ClearSeenSites();

  /// Total injections since the last Configure()/Clear().
  uint64_t injected_total() const {
    return injected_total_.load(std::memory_order_relaxed);
  }

 private:
  enum class Kind { kThrow, kDelay };
  struct Spec {
    std::string site;     // exact name, or prefix when wildcard is set
    bool wildcard = false;
    bool any_task = true;
    size_t task = 0;
    uint64_t run = 0;  // 0: every run
    /// Starts of matching stages so far; the current one's index.
    std::shared_ptr<std::atomic<uint64_t>> runs;
    Kind kind = Kind::kThrow;
    double probability = 1.0;
    uint64_t max_hits = UINT64_MAX;
    double delay_ms = 20.0;
    std::shared_ptr<std::atomic<uint64_t>> hits;
  };

  FaultInjector() = default;
  static Status ParseSpec(const std::string& text, std::vector<Spec>* out);
  /// Uniform [0,1) draw, pure in (seed, site, task, attempt).
  static double Draw(uint64_t seed, const std::string& site, size_t task,
                     size_t attempt);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> tracking_{false};
  std::atomic<uint64_t> injected_total_{0};
  mutable std::mutex mutex_;
  std::vector<Spec> specs_;
  uint64_t seed_ = 42;
  bool env_loaded_ = false;
  std::set<std::string> seen_sites_;

  void LoadFromEnvLocked();
};

/// Millisecond sleep used for retry backoff and injected delays.
void SleepForMs(double ms);

}  // namespace bigdansing

#endif  // BIGDANSING_COMMON_FAULT_H_
