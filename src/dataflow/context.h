#ifndef BIGDANSING_DATAFLOW_CONTEXT_H_
#define BIGDANSING_DATAFLOW_CONTEXT_H_

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "dataflow/metrics.h"

namespace bigdansing {

/// The "cluster": worker count, task scheduler and metrics for one dataflow
/// job graph. Stands in for a SparkContext. Worker count is the scale-out
/// knob for the multi-node experiments; each partition task is scheduled on
/// the pool, so work distribution matches a cluster topologically even when
/// the host has few cores.
class ExecutionContext {
 public:
  explicit ExecutionContext(size_t num_workers)
      : num_workers_(num_workers == 0 ? 1 : num_workers),
        // BD_THREADS overrides the physical thread count without changing
        // the logical cluster size used for partitioning and accounting.
        pool_(std::make_unique<ThreadPool>(
            ThreadPool::EnvThreadsOr(num_workers_))) {}

  size_t num_workers() const { return num_workers_; }
  ThreadPool& pool() { return *pool_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// Default partition count for new datasets (2 waves per worker).
  size_t default_partitions() const { return num_workers_ * 2; }

  /// Rows per morsel for splittable stages (StageExecutor::RunMorsels).
  /// The default, kDefaultMorselRows, keeps one morsel's rows plus its
  /// output inside a typical 256KB–1MB L2 slice for the ~100-byte records
  /// of the bundled datasets; tests and ablations override it per context.
  /// A size of at least the largest partition gives one morsel per task.
  /// Sizes below 1 read as 1.
  static constexpr size_t kDefaultMorselRows = 2048;
  size_t morsel_rows() const { return morsel_rows_; }
  void set_morsel_rows(size_t rows) {
    morsel_rows_ = std::max<size_t>(1, rows);
  }

  /// Whether declarative rules run with the columnar detect kernels
  /// (dictionary-encoded keys + compiled predicate kernels). Off, every
  /// rule runs the same detection stages without one — the bit-identical
  /// oracle. Defaults from BD_KERNELS; override per context for tests and
  /// ablations.
  bool kernels_enabled() const { return kernels_enabled_; }
  void set_kernels_enabled(bool enabled) { kernels_enabled_ = enabled; }

  /// BD_KERNELS unset or any value but "0" enables the kernels. "0" keeps
  /// the stages and their enumeration order and changes three things:
  /// block keys come from Values through ComputeBlockKey instead of
  /// per-code hashes, Rule::Detect decides each candidate instead of the
  /// compiled kernel, and Rule::GenFix writes each violation instead of the
  /// compiled ViolationWriter.
  static bool DefaultKernelsEnabled() {
    if (const char* env = std::getenv("BD_KERNELS")) {
      return std::string_view(env) != "0";
    }
    return true;
  }

  /// Recovery policy every stage launched on this context runs under
  /// (retry attempts, backoff, speculation). Defaults from the environment
  /// (BD_SPECULATION); override per request via DetectRequest::fault_policy
  /// or CleanOptions::fault_policy (see ScopedFaultPolicy).
  const FaultPolicy& fault_policy() const { return fault_policy_; }
  void set_fault_policy(const FaultPolicy& policy) { fault_policy_ = policy; }

 private:
  size_t num_workers_;
  std::unique_ptr<ThreadPool> pool_;
  Metrics metrics_;
  FaultPolicy fault_policy_ = FaultPolicy::FromEnv();
  size_t morsel_rows_ = kDefaultMorselRows;
  bool kernels_enabled_ = DefaultKernelsEnabled();
};

/// RAII override of a context's fault policy for the extent of one request
/// (a DetectRequest or a whole Clean). Restores the previous policy on
/// scope exit, so nested overrides compose.
class ScopedFaultPolicy {
 public:
  ScopedFaultPolicy(ExecutionContext* ctx, const FaultPolicy& policy)
      : ctx_(ctx), saved_(ctx->fault_policy()) {
    ctx_->set_fault_policy(policy);
  }
  ~ScopedFaultPolicy() { ctx_->set_fault_policy(saved_); }
  ScopedFaultPolicy(const ScopedFaultPolicy&) = delete;
  ScopedFaultPolicy& operator=(const ScopedFaultPolicy&) = delete;

 private:
  ExecutionContext* ctx_;
  FaultPolicy saved_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_DATAFLOW_CONTEXT_H_
