#ifndef BIGDANSING_DATAFLOW_DATASET_H_
#define BIGDANSING_DATAFLOW_DATASET_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "dataflow/context.h"
#include "dataflow/stage_executor.h"

namespace bigdansing {

template <typename T>
class PartitionView;

/// A partitioned, immutable, *lazily* evaluated collection — the RDD
/// analogue of this reproduction's embedded dataflow engine.
///
/// Element-wise transformations (Map, FlatMap, Filter, MapPartitions) do not
/// run when called: they append a step to a deferred per-partition pipeline.
/// The pipeline executes — fused into a single pass per partition with no
/// intermediate partition vectors — when the dataset is *forced* by an
/// action (Collect, Count, partitions()) or by a shuffle boundary
/// (GroupByKey, ReduceByKey, Join, CoGroup, Repartition — free functions
/// and methods below). A forced dataset caches its partitions, so
/// repeated actions do not re-execute the pipeline and results are identical
/// per partition to the former eager engine.
///
/// Every fused pipeline runs as one named stage through the StageExecutor,
/// so a Map→Filter→Map chain costs one stage instead of three.
///
/// Lifetime rule: functors passed to transformations are copied into the
/// pipeline, but anything they capture *by reference* must stay alive until
/// the dataset is forced. All engine call-sites force within the scope that
/// owns the captures.
template <typename T>
class Dataset {
  template <typename>
  friend class Dataset;

 public:
  /// Streams one record to the consumer of a pipeline step.
  using Sink = std::function<void(T&&)>;
  /// Produces all records of one partition by invoking the sink per record.
  using Producer = std::function<void(size_t, const Sink&)>;
  /// Range form of a fused pipeline: streams the output of rows
  /// [begin, end) of the pipeline *root's* partition `p` — the coordinates
  /// SplitRows(p) counts in. Element-wise chains (Map/FlatMap/Filter) are
  /// range-splittable because each root row's output is independent of the
  /// others, so concatenating range outputs in row order reproduces the
  /// whole-partition stream bit-identically; whole-partition steps
  /// (MapPartitions) are not, and datasets containing one have no
  /// RangeProducer.
  using RangeProducer =
      std::function<void(size_t, size_t, size_t, const Sink&)>;

  Dataset() : state_(nullptr) {}
  /// Wraps already-materialized partitions (no stage runs).
  Dataset(ExecutionContext* ctx, std::vector<std::vector<T>> partitions)
      : state_(std::make_shared<State>()) {
    state_->ctx = ctx;
    state_->num_partitions = partitions.size();
    state_->parts = std::move(partitions);
    state_->materialized = true;
  }

  /// Cuts `items` into `num_partitions` contiguous runs of PartitionSize
  /// records (defaults to ctx->default_partitions() partitions).
  static Dataset FromVector(ExecutionContext* ctx, std::vector<T> items,
                            size_t num_partitions = 0) {
    if (num_partitions == 0) num_partitions = ctx->default_partitions();
    if (num_partitions == 0) num_partitions = 1;
    std::vector<std::vector<T>> parts(num_partitions);
    const size_t per = PartitionSize(items.size(), num_partitions);
    for (auto& p : parts) p.reserve(per);
    for (size_t i = 0; i < items.size(); ++i) {
      parts[i / per].push_back(std::move(items[i]));
    }
    ctx->metrics().AddRecordsRead(items.size());
    return Dataset(ctx, std::move(parts));
  }

  /// Records per partition when FromVector cuts `n` records into
  /// `num_partitions` contiguous runs: ceil(n / num_partitions), at least
  /// 1, so trailing partitions may be empty.
  static size_t PartitionSize(size_t n, size_t num_partitions) {
    const size_t per = (n + num_partitions - 1) / num_partitions;
    return per == 0 ? 1 : per;
  }

  ExecutionContext* context() const { return state_ ? state_->ctx : nullptr; }
  size_t num_partitions() const {
    return state_ ? state_->num_partitions : 0;
  }

  /// True when the deferred pipeline (if any) has already executed.
  bool materialized() const { return !state_ || state_->materialized; }

  /// Name of the pending fused pipeline ("scope|filter|map"); empty when
  /// materialized.
  const std::string& pipeline_label() const {
    static const std::string kEmpty;
    return state_ && !state_->materialized ? state_->label : kEmpty;
  }

  /// Partition storage. Forces the pipeline.
  const std::vector<std::vector<T>>& partitions() const {
    static const std::vector<std::vector<T>> kEmpty;
    if (!state_) return kEmpty;
    Force();
    return state_->parts;
  }

  /// Total number of records. Forces the pipeline.
  size_t Count() const {
    size_t n = 0;
    for (const auto& p : partitions()) n += p.size();
    return n;
  }

  /// Gathers all records into one vector (driver-side collect). Forces.
  std::vector<T> Collect() const {
    std::vector<T> out;
    out.reserve(Count());
    for (const auto& p : partitions()) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  /// Streams partition `p` through the fused pipeline into `sink` on the
  /// calling thread, without materializing this dataset. Exposed for
  /// shuffle implementations that consume the pipeline directly; most
  /// callers want partitions().
  void StreamPartition(size_t p, const Sink& sink) const {
    StreamFrom(state_, p, sink);
  }

  /// True when partition streams can be produced per root-row range —
  /// materialized data, or a deferred pipeline of element-wise steps only.
  /// The morsel scheduler requires this; non-splittable datasets force at
  /// partition granularity.
  bool RangeStreamable() const {
    if (!state_) return false;
    return state_->materialized ||
           (state_->produce_range && state_->split_rows);
  }

  /// Rows of partition `p` in the coordinates StreamPartitionRange splits
  /// on: the root partition size captured when this node was built (stable
  /// even if an ancestor materializes later), or the partition size when
  /// materialized. Only meaningful when RangeStreamable().
  size_t SplitRows(size_t p) const {
    if (!state_) return 0;
    if (state_->materialized) return state_->parts[p].size();
    return state_->split_rows ? state_->split_rows(p) : 0;
  }

  /// Streams the pipeline output of root rows [begin, end) of partition
  /// `p` into `sink`. Requires RangeStreamable(). Concatenating the
  /// streams of consecutive ranges covering [0, SplitRows(p)) yields
  /// exactly StreamPartition(p)'s stream.
  void StreamPartitionRange(size_t p, size_t begin, size_t end,
                            const Sink& sink) const {
    if (!state_) return;
    if (state_->materialized) {
      const auto& part = state_->parts[p];
      if (end > part.size()) end = part.size();
      for (size_t i = begin; i < end; ++i) sink(T(part[i]));
      return;
    }
    state_->produce_range(p, begin, end, sink);
  }

  /// Records entering partition `p`'s fused pipeline (the pipeline root's
  /// partition size). Equals the partition size when materialized.
  size_t InputSize(size_t p) const {
    if (!state_) return 0;
    if (state_->materialized) return state_->parts[p].size();
    return state_->input_size(p);
  }

  /// Element-wise transform. `fn`: const T& -> U. Deferred.
  template <typename F>
  auto Map(F fn, const std::string& name = "map") const
      -> Dataset<std::decay_t<decltype(fn(std::declval<const T&>()))>> {
    using U = std::decay_t<decltype(fn(std::declval<const T&>()))>;
    auto parent = state_;
    RangeProducer parent_range = RangeProducerFn();
    typename Dataset<U>::RangeProducer range;
    if (parent_range) {
      range = [parent_range, fn](size_t p, size_t begin, size_t end,
                                 const typename Dataset<U>::Sink& sink) {
        parent_range(p, begin, end, [&](T&& x) { sink(fn(x)); });
      };
    }
    return Dataset<U>::Deferred(
        context(), num_partitions(), ChainLabel(name),
        [parent, fn](size_t p, const typename Dataset<U>::Sink& sink) {
          StreamFrom(parent, p, [&](T&& x) { sink(fn(x)); });
        },
        InputSizeFn(), std::move(range), SplitRowsFn());
  }

  /// One-to-many transform. `fn`: const T& -> std::vector<U>. Deferred.
  template <typename F>
  auto FlatMap(F fn, const std::string& name = "flatMap") const
      -> Dataset<
          typename std::decay_t<decltype(fn(std::declval<const T&>()))>::value_type> {
    using U =
        typename std::decay_t<decltype(fn(std::declval<const T&>()))>::value_type;
    auto parent = state_;
    RangeProducer parent_range = RangeProducerFn();
    typename Dataset<U>::RangeProducer range;
    if (parent_range) {
      range = [parent_range, fn](size_t p, size_t begin, size_t end,
                                 const typename Dataset<U>::Sink& sink) {
        parent_range(p, begin, end, [&](T&& x) {
          auto produced = fn(x);
          for (auto& u : produced) sink(std::move(u));
        });
      };
    }
    return Dataset<U>::Deferred(
        context(), num_partitions(), ChainLabel(name),
        [parent, fn](size_t p, const typename Dataset<U>::Sink& sink) {
          StreamFrom(parent, p, [&](T&& x) {
            auto produced = fn(x);
            for (auto& u : produced) sink(std::move(u));
          });
        },
        InputSizeFn(), std::move(range), SplitRowsFn());
  }

  /// Keeps records satisfying `pred`. Deferred.
  template <typename F>
  Dataset<T> Filter(F pred, const std::string& name = "filter") const {
    auto parent = state_;
    RangeProducer parent_range = RangeProducerFn();
    RangeProducer range;
    if (parent_range) {
      range = [parent_range, pred](size_t p, size_t begin, size_t end,
                                   const Sink& sink) {
        parent_range(p, begin, end, [&](T&& x) {
          if (pred(x)) sink(std::move(x));
        });
      };
    }
    return Dataset<T>::Deferred(
        context(), num_partitions(), ChainLabel(name),
        [parent, pred](size_t p, const Sink& sink) {
          StreamFrom(parent, p, [&](T&& x) {
            if (pred(x)) sink(std::move(x));
          });
        },
        InputSizeFn(), std::move(range), SplitRowsFn());
  }

  /// Whole-partition transform. `fn`: const std::vector<T>& ->
  /// std::vector<U>. Deferred; fuses into the stage (the partition is
  /// buffered locally when the upstream is itself deferred).
  template <typename U, typename F>
  Dataset<U> MapPartitions(F fn,
                           const std::string& name = "mapPartitions") const {
    auto parent = state_;
    return Dataset<U>::Deferred(
        context(), num_partitions(), ChainLabel(name),
        [parent, fn](size_t p, const typename Dataset<U>::Sink& sink) {
          std::vector<U> out;
          if (parent && parent->materialized) {
            out = fn(parent->parts[p]);
          } else {
            std::vector<T> buffer;
            StreamFrom(parent, p,
                       [&](T&& x) { buffer.push_back(std::move(x)); });
            out = fn(buffer);
          }
          for (auto& u : out) sink(std::move(u));
        },
        InputSizeFn());
  }

  /// Redistributes records round-robin into `n` partitions (full shuffle).
  /// Forces the pipeline, then moves records in parallel: a map-side pass
  /// buckets each input partition (record g of the collect order lands in
  /// bucket g % n) and a reduce-side pass concatenates the buckets, so the
  /// result is identical to a driver-side collect + round-robin loop.
  Dataset<T> Repartition(size_t n) const {
    if (n == 0) n = 1;
    ExecutionContext* ctx = context();
    const auto& parts = partitions();
    // Global start offset of each input partition in collect order.
    std::vector<size_t> offset(parts.size() + 1, 0);
    for (size_t p = 0; p < parts.size(); ++p) {
      offset[p + 1] = offset[p] + parts[p].size();
    }
    StageExecutor executor(ctx);
    Counter& shuffle_bytes =
        MetricsRegistry::Instance().GetCounter("dataflow.shuffle_bytes");
    Gauge& peak_partition_bytes = MetricsRegistry::Instance().GetGauge(
        "dataflow.peak_partition_bytes");
    // buckets[input_partition][output_partition]; map tasks produce their
    // bucket row as the attempt's output buffer, so retries and speculative
    // duplicates never interleave writes.
    auto buckets_result = executor.RunProducing<std::vector<std::vector<T>>>(
        "repartition:map", parts.size(), [&](size_t p, TaskContext& tc) {
          std::vector<std::vector<T>> row(n);
          for (size_t i = 0; i < parts[p].size(); ++i) {
            row[(offset[p] + i) % n].push_back(parts[p][i]);
          }
          tc.records_in = parts[p].size();
          tc.records_out = parts[p].size();
          tc.shuffled_records = parts[p].size();
          shuffle_bytes.Add(parts[p].size() * sizeof(T));
          return row;
        });
    if (!buckets_result.ok()) throw StageError(buckets_result.status());
    auto& buckets = *buckets_result;
    auto merged = executor.RunProducing<std::vector<T>>(
        "repartition:merge", n, [&](size_t q, TaskContext& tc) {
          size_t total = 0;
          for (size_t p = 0; p < parts.size(); ++p) {
            total += buckets[p][q].size();
          }
          std::vector<T> slot;
          slot.reserve(total);
          for (size_t p = 0; p < parts.size(); ++p) {
            const auto& b = buckets[p][q];
            slot.insert(slot.end(), b.begin(), b.end());
          }
          tc.records_in = total;
          tc.records_out = total;
          peak_partition_bytes.UpdateMax(static_cast<int64_t>(total * sizeof(T)));
          return slot;
        });
    if (!merged.ok()) throw StageError(merged.status());
    return Dataset<T>(ctx, std::move(*merged));
  }

  /// Concatenation (no shuffle; partitions are appended). Deferred when
  /// either side still has a pending pipeline.
  Dataset<T> Union(const Dataset<T>& other) const {
    if (materialized() && other.materialized()) {
      std::vector<std::vector<T>> parts =
          state_ ? state_->parts : std::vector<std::vector<T>>{};
      if (other.state_) {
        parts.insert(parts.end(), other.state_->parts.begin(),
                     other.state_->parts.end());
      }
      return Dataset<T>(context() ? context() : other.context(),
                        std::move(parts));
    }
    auto left = state_;
    auto right = other.state_;
    const size_t left_np = num_partitions();
    // The union is range-splittable iff both sides are; each side's range
    // producer and root sizes are captured by value here, so a side that
    // materializes later keeps the coordinates of construction time.
    RangeProducer left_range = RangeProducerFn();
    RangeProducer right_range = other.RangeProducerFn();
    std::function<size_t(size_t)> left_rows = SplitRowsFn();
    std::function<size_t(size_t)> right_rows = other.SplitRowsFn();
    RangeProducer range;
    std::function<size_t(size_t)> split_rows;
    if (left_range && right_range && left_rows && right_rows) {
      range = [left_range, right_range, left_np](size_t p, size_t begin,
                                                 size_t end, const Sink& sink) {
        if (p < left_np) {
          left_range(p, begin, end, sink);
        } else {
          right_range(p - left_np, begin, end, sink);
        }
      };
      split_rows = [left_rows, right_rows, left_np](size_t p) {
        return p < left_np ? left_rows(p) : right_rows(p - left_np);
      };
    }
    return Dataset<T>::Deferred(
        context() ? context() : other.context(),
        left_np + other.num_partitions(), "union",
        [left, right, left_np](size_t p, const Sink& sink) {
          if (p < left_np) {
            StreamFrom(left, p, sink);
          } else {
            StreamFrom(right, p - left_np, sink);
          }
        },
        [left, right, left_np](size_t p) {
          const auto& s = p < left_np ? left : right;
          const size_t q = p < left_np ? p : p - left_np;
          if (!s) return size_t{0};
          return s->materialized ? s->parts[q].size() : s->input_size(q);
        },
        std::move(range), std::move(split_rows));
  }

  /// Runs `body(p, tc)` for every partition index as one named stage on
  /// the StageExecutor and returns the per-partition results, indexed by
  /// partition. Forces the pipeline first. Exposed for operators built on
  /// top of the engine (e.g. OCJoin) that need custom per-partition logic.
  /// Buffered outputs make the stage retryable and speculation-capable.
  /// Throws StageError when the stage fails (caught at public boundaries).
  template <typename U, typename F>
  std::vector<U> RunStageProducing(const std::string& name, F body) const {
    return PartitionView<T>(*this).template RunStageProducing<U>(name, body);
  }

  /// Morsel-capable RunStageProducing for stages whose per-partition work
  /// decomposes into `units_of(p)` independent units (rows, blocks,
  /// pairs): `body(p, begin, end, tc)` processes units [begin, end) of
  /// partition p and returns a partial U; `merge(p, pieces)` folds the
  /// partials in ascending unit order into partition p's result. Forces
  /// the pipeline first. Throws StageError when the stage fails.
  template <typename U, typename RowsF, typename F, typename M>
  std::vector<U> RunStageMorsels(const std::string& name, RowsF units_of,
                                 F body, M merge) const {
    return PartitionView<T>(*this).template RunStageMorsels<U>(
        name, units_of, body, merge);
  }

 private:
  /// Shared, cached evaluation state. Copies of a Dataset share one State,
  /// so forcing through any copy materializes for all of them.
  struct State {
    ExecutionContext* ctx = nullptr;
    size_t num_partitions = 0;
    /// Deferred fused pipeline; null once materialized.
    Producer produce;
    /// Range form of `produce` for element-wise chains; null when the
    /// chain contains a whole-partition step (not range-splittable).
    RangeProducer produce_range;
    /// Record count entering the pipeline for a partition (pipeline root's
    /// partition size); only meaningful while deferred.
    std::function<size_t(size_t)> input_size;
    /// Root partition size in produce_range's coordinates, captured by
    /// value at node construction — unlike input_size it cannot shift when
    /// an ancestor materializes, which is what keeps range splitting
    /// exhaustive. Null iff produce_range is.
    std::function<size_t(size_t)> split_rows;
    /// Stage name for the fused pipeline, e.g. "scope|filter".
    std::string label;
    std::vector<std::vector<T>> parts;
    bool materialized = false;
  };

  /// Builds a deferred dataset node (internal; used across Dataset<T> and
  /// Dataset<U> via friendship). `produce_range`/`split_rows` may be null:
  /// the node is then not range-splittable and forces at partition
  /// granularity.
  static Dataset Deferred(ExecutionContext* ctx, size_t num_partitions,
                          std::string label, Producer produce,
                          std::function<size_t(size_t)> input_size,
                          RangeProducer produce_range = nullptr,
                          std::function<size_t(size_t)> split_rows = nullptr) {
    Dataset ds;
    ds.state_ = std::make_shared<State>();
    ds.state_->ctx = ctx;
    ds.state_->num_partitions = num_partitions;
    ds.state_->produce = std::move(produce);
    ds.state_->produce_range = std::move(produce_range);
    ds.state_->input_size = std::move(input_size);
    ds.state_->split_rows = std::move(split_rows);
    ds.state_->label = std::move(label);
    return ds;
  }

  /// Range producer a child node chains onto: replays rows [begin, end) of
  /// the cached partition when this dataset is materialized, else this
  /// dataset's own range pipeline (copied by value — stable even if this
  /// node materializes before the child forces). Null when not splittable.
  RangeProducer RangeProducerFn() const {
    auto parent = state_;
    if (!parent) return nullptr;
    if (parent->materialized) {
      return [parent](size_t p, size_t begin, size_t end, const Sink& sink) {
        const auto& part = parent->parts[p];
        if (end > part.size()) end = part.size();
        for (size_t i = begin; i < end; ++i) sink(T(part[i]));
      };
    }
    return parent->produce_range;
  }

  /// Root row count a child node's range producer splits on; null when
  /// this dataset is not range-splittable.
  std::function<size_t(size_t)> SplitRowsFn() const {
    auto parent = state_;
    if (!parent) return nullptr;
    if (parent->materialized) {
      return [parent](size_t p) { return parent->parts[p].size(); };
    }
    return parent->split_rows;
  }

  /// Streams partition `p` of `state` into `sink`: replays the cache when
  /// materialized (copying, as the cache stays valid), otherwise runs the
  /// deferred pipeline.
  static void StreamFrom(const std::shared_ptr<State>& state, size_t p,
                         const Sink& sink) {
    if (!state) return;
    if (state->materialized) {
      for (const T& x : state->parts[p]) sink(T(x));
      return;
    }
    state->produce(p, sink);
  }

  /// Label of the pipeline extended by step `name`.
  std::string ChainLabel(const std::string& name) const {
    if (!state_ || state_->materialized || state_->label.empty()) return name;
    if (state_->label.size() > 160) return state_->label;  // Cap runaway chains.
    return state_->label + "|" + name;
  }

  /// Root-partition-size function for a node chained onto this dataset.
  std::function<size_t(size_t)> InputSizeFn() const {
    auto parent = state_;
    return [parent](size_t p) {
      if (!parent) return size_t{0};
      return parent->materialized ? parent->parts[p].size()
                                  : parent->input_size(p);
    };
  }

  /// Executes the fused pipeline as one stage and caches the result.
  /// Pipelines are pure (functors over immutable parents), so attempts are
  /// re-runnable: each buffers into its own output vector and the executor
  /// publishes exactly one per partition. Throws StageError on stage
  /// failure (caught at the public API boundaries).
  ///
  /// Range-splittable pipelines run on the morsel scheduler: every
  /// ctx->morsel_rows() root rows of a partition become one independently
  /// scheduled morsel, and the partition's cache is the concatenation of
  /// its morsel outputs in row order — bit-identical to one streaming pass
  /// (element-wise steps preserve per-row output order). Non-splittable
  /// pipelines run one task per partition.
  void Force() const {
    State& s = *state_;
    if (s.materialized) return;
    const std::string stage_name = s.label.empty() ? "stage" : s.label;
    Result<std::vector<std::vector<T>>> produced = Status::OK();
    if (RangeStreamable()) {
      produced = StageExecutor(s.ctx).RunMorsels<std::vector<T>>(
          stage_name, s.num_partitions,
          [&](size_t p) { return s.split_rows(p); },
          [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
            std::vector<T> piece;
            s.produce_range(p, begin, end,
                            [&](T&& x) { piece.push_back(std::move(x)); });
            tc.records_in = end - begin;
            tc.records_out = piece.size();
            return piece;
          },
          [](size_t, std::vector<std::vector<T>>&& pieces) {
            size_t total = 0;
            for (const auto& piece : pieces) total += piece.size();
            std::vector<T> slot;
            slot.reserve(total);
            for (auto& piece : pieces) {
              slot.insert(slot.end(), std::make_move_iterator(piece.begin()),
                          std::make_move_iterator(piece.end()));
            }
            return slot;
          });
    } else {
      produced = StageExecutor(s.ctx).RunProducing<std::vector<T>>(
          stage_name, s.num_partitions, [&](size_t p, TaskContext& tc) {
            std::vector<T> slot;
            s.produce(p, [&](T&& x) { slot.push_back(std::move(x)); });
            tc.records_in = s.input_size ? s.input_size(p) : 0;
            tc.records_out = slot.size();
            return slot;
          });
    }
    if (!produced.ok()) throw StageError(produced.status());
    s.parts = std::move(*produced);
    s.produce = nullptr;
    s.produce_range = nullptr;
    s.input_size = nullptr;
    s.split_rows = nullptr;
    s.materialized = true;
  }

  std::shared_ptr<State> state_;
};

/// Read-only partitions over records someone else owns. The operators
/// that only read their input rows (dictionary encoding, the columnar
/// kernels, the inequality joins, table profiling) run their stages over
/// a view, so detection reads a table where it lives instead of copying
/// it into a Dataset first. Whoever owns the records must outlive the
/// view.
///
/// A record's position is its index counted across the partitions in
/// order: the one row address of detection (codes, blocks, join pairs and
/// violation cells all carry it).
template <typename T>
class PartitionView {
 public:
  PartitionView() = default;

  /// Views `partitions` as they are. No stage runs, and the records are
  /// not counted as read.
  PartitionView(ExecutionContext* ctx,
                const std::vector<std::vector<T>>& partitions)
      : ctx_(ctx), parts_(partitions.begin(), partitions.end()) {}

  /// Views the partitions of `data`, forcing it. Implicit, so every
  /// operator that reads a view also reads a dataset.
  PartitionView(const Dataset<T>& data)
      : PartitionView(data.context(), data.partitions()) {}

  /// `items` cut into ctx->default_partitions() contiguous spans on the
  /// boundaries Dataset::FromVector uses, so positions within a partition,
  /// and every order derived from them, match a dataset FromVector built
  /// from the same records. Counts the records as read, as FromVector does.
  static PartitionView Split(ExecutionContext* ctx, std::span<const T> items) {
    PartitionView view;
    view.ctx_ = ctx;
    const size_t num_partitions =
        std::max<size_t>(1, ctx->default_partitions());
    const size_t per =
        Dataset<T>::PartitionSize(items.size(), num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      const size_t begin = std::min(items.size(), p * per);
      const size_t end = std::min(items.size(), begin + per);
      view.parts_.push_back(items.subspan(begin, end - begin));
    }
    view.first_ = items.data();
    ctx->metrics().AddRecordsRead(items.size());
    return view;
  }

  ExecutionContext* context() const { return ctx_; }
  const std::vector<std::span<const T>>& partitions() const { return parts_; }

  size_t Count() const {
    size_t n = 0;
    for (const auto& part : parts_) n += part.size();
    return n;
  }

  /// Position of partition p's first record.
  size_t Begin(size_t p) const {
    size_t pos = 0;
    for (size_t q = 0; q < p; ++q) pos += parts_[q].size();
    return pos;
  }

  /// A view Split cut from one vector turns position `pos` into an offset
  /// from its first record, data(); data() is null for a view of separate
  /// partition vectors, which resolves positions itself.
  const T& at(size_t pos) const { return first_[pos]; }
  const T* data() const { return first_; }

  /// Runs `body(p, tc)` for every partition index as one named stage on
  /// the StageExecutor and returns the per-partition results, indexed by
  /// partition. Buffered outputs make the stage retryable and
  /// speculation-capable. Throws StageError when the stage fails (caught
  /// at public boundaries).
  template <typename U, typename F>
  std::vector<U> RunStageProducing(const std::string& name, F body) const {
    if (ctx_ == nullptr) return {};
    auto result = StageExecutor(ctx_).RunProducing<U>(
        name, parts_.size(), [&](size_t p, TaskContext& tc) {
          tc.records_in = parts_[p].size();
          return body(p, tc);
        });
    if (!result.ok()) throw StageError(result.status());
    return std::move(*result);
  }

  /// Morsel form of RunStageProducing: `body(p, begin, end, tc)` processes
  /// units [begin, end) of the `units_of(p)` units of partition p and
  /// returns a partial U; `merge(p, pieces)` folds the partials in
  /// ascending unit order into partition p's result. Throws StageError
  /// when the stage fails.
  template <typename U, typename RowsF, typename F, typename M>
  std::vector<U> RunStageMorsels(const std::string& name, RowsF units_of,
                                 F body, M merge) const {
    if (ctx_ == nullptr) return {};
    auto result = StageExecutor(ctx_).RunMorsels<U>(
        name, parts_.size(),
        [&](size_t p) -> size_t { return units_of(p); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          return body(p, begin, end, tc);
        },
        [&](size_t p, std::vector<U>&& pieces) {
          return merge(p, std::move(pieces));
        });
    if (!result.ok()) throw StageError(result.status());
    return std::move(*result);
  }

 private:
  ExecutionContext* ctx_ = nullptr;
  std::vector<std::span<const T>> parts_;
  const T* first_ = nullptr;
};

namespace dataflow_internal {

/// Hash-shuffles key-value records into `num_out` buckets. The map side
/// consumes `ds`'s fused pipeline directly (no materialization of the
/// upstream dataset); the merge side concatenates buckets per output
/// partition. Both sides run as named stages. Returns per-output-partition
/// record vectors.
template <typename K, typename V, typename Hash>
std::vector<std::vector<std::pair<K, V>>> ShuffleByKey(
    const Dataset<std::pair<K, V>>& ds, size_t num_out, const Hash& hash,
    const std::string& stage_prefix) {
  ExecutionContext* ctx = ds.context();
  const size_t num_in = ds.num_partitions();
  StageExecutor executor(ctx);
  // Registry handles resolved driver-side; the per-task cost below is one
  // relaxed atomic on the map side and one CAS on the merge side.
  Counter& shuffle_bytes =
      MetricsRegistry::Instance().GetCounter("dataflow.shuffle_bytes");
  Gauge& peak_partition_bytes =
      MetricsRegistry::Instance().GetGauge("dataflow.peak_partition_bytes");
  // buckets[input_partition][output_partition]; each map task returns its
  // bucket row as the attempt's private buffer (pipelines are pure, so a
  // retried or duplicated attempt re-streams the same records).
  const std::string map_label =
      ds.materialized() || ds.pipeline_label().empty()
          ? stage_prefix + ":map"
          : ds.pipeline_label() + "|" + stage_prefix + ":map";
  using BucketRow = std::vector<std::vector<std::pair<K, V>>>;
  Result<std::vector<BucketRow>> buckets_result = Status::OK();
  if (ds.RangeStreamable()) {
    // Morsel-driven map side: each morsel hashes its root-row range into a
    // private bucket row; the driver concatenates bucket rows in row-range
    // order, so every bucket's record order equals the whole-partition
    // streaming pass and the shuffle output is bit-identical.
    buckets_result = executor.RunMorsels<BucketRow>(
        map_label, num_in, [&](size_t p) { return ds.SplitRows(p); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          BucketRow row(num_out);
          ds.StreamPartitionRange(p, begin, end, [&](std::pair<K, V>&& kv) {
            size_t target = hash(kv.first) % num_out;
            row[target].push_back(std::move(kv));
            ++tc.records_out;
          });
          tc.records_in = end - begin;
          tc.shuffled_records = tc.records_out;
          shuffle_bytes.Add(tc.records_out * sizeof(std::pair<K, V>));
          return row;
        },
        [&](size_t, std::vector<BucketRow>&& pieces) {
          BucketRow row(num_out);
          for (auto& piece : pieces) {
            for (size_t q = 0; q < num_out; ++q) {
              row[q].insert(row[q].end(),
                            std::make_move_iterator(piece[q].begin()),
                            std::make_move_iterator(piece[q].end()));
            }
          }
          return row;
        });
  } else {
    buckets_result = executor.RunProducing<BucketRow>(
        map_label, num_in, [&](size_t p, TaskContext& tc) {
          BucketRow row(num_out);
          ds.StreamPartition(p, [&](std::pair<K, V>&& kv) {
            size_t target = hash(kv.first) % num_out;
            row[target].push_back(std::move(kv));
            ++tc.records_out;
          });
          tc.records_in = ds.InputSize(p);
          tc.shuffled_records = tc.records_out;
          shuffle_bytes.Add(tc.records_out * sizeof(std::pair<K, V>));
          return row;
        });
  }
  if (!buckets_result.ok()) throw StageError(buckets_result.status());
  auto& buckets = *buckets_result;
  auto merged = executor.RunProducing<std::vector<std::pair<K, V>>>(
      stage_prefix + ":merge", num_out, [&](size_t q, TaskContext& tc) {
        size_t total = 0;
        for (size_t p = 0; p < num_in; ++p) total += buckets[p][q].size();
        std::vector<std::pair<K, V>> slot;
        slot.reserve(total);
        for (size_t p = 0; p < num_in; ++p) {
          const auto& b = buckets[p][q];
          slot.insert(slot.end(), b.begin(), b.end());
        }
        tc.records_in = total;
        tc.records_out = total;
        peak_partition_bytes.UpdateMax(static_cast<int64_t>(
            total * sizeof(std::pair<K, V>)));
        return slot;
      });
  if (!merged.ok()) throw StageError(merged.status());
  return std::move(*merged);
}

}  // namespace dataflow_internal

/// Groups values by key with a hash shuffle: Spark's groupByKey. A shuffle
/// boundary: forces (and fuses with) the upstream pipeline's map side.
template <typename K, typename V, typename Hash = std::hash<K>>
Dataset<std::pair<K, std::vector<V>>> GroupByKey(
    const Dataset<std::pair<K, V>>& ds, size_t num_partitions = 0,
    const Hash& hash = Hash()) {
  ExecutionContext* ctx = ds.context();
  if (num_partitions == 0) num_partitions = std::max<size_t>(1, ds.num_partitions());
  auto shuffled =
      dataflow_internal::ShuffleByKey(ds, num_partitions, hash, "groupByKey");
  // Shuffle outputs are treated as immutable blocks (read-only below), so
  // a retried or speculative attempt re-reads the same input.
  auto out = StageExecutor(ctx).RunProducing<
      std::vector<std::pair<K, std::vector<V>>>>(
      "groupByKey:reduce", num_partitions, [&](size_t q, TaskContext& tc) {
        std::unordered_map<K, std::vector<V>, Hash> groups(16, hash);
        tc.records_in = shuffled[q].size();
        for (const auto& kv : shuffled[q]) {
          groups[kv.first].push_back(kv.second);
        }
        std::vector<std::pair<K, std::vector<V>>> slot;
        slot.reserve(groups.size());
        for (auto& g : groups) {
          slot.emplace_back(g.first, std::move(g.second));
        }
        tc.records_out = slot.size();
        return slot;
      });
  if (!out.ok()) throw StageError(out.status());
  return Dataset<std::pair<K, std::vector<V>>>(ctx, std::move(*out));
}

/// Combines values per key with `reduce`: Spark's reduceByKey. `reduce`
/// must be associative and commutative; it is applied map-side first so the
/// shuffle moves at most one record per key per partition. A shuffle
/// boundary.
template <typename K, typename V, typename F, typename Hash = std::hash<K>>
Dataset<std::pair<K, V>> ReduceByKey(const Dataset<std::pair<K, V>>& ds,
                                     F reduce, size_t num_partitions = 0,
                                     const Hash& hash = Hash()) {
  ExecutionContext* ctx = ds.context();
  // Map-side combine, fused into the shuffle's map stage.
  auto combined = ds.template MapPartitions<std::pair<K, V>>(
      [reduce, hash](const std::vector<std::pair<K, V>>& part) {
        std::unordered_map<K, V, Hash> acc(16, hash);
        for (const auto& kv : part) {
          auto it = acc.find(kv.first);
          if (it == acc.end()) {
            acc.emplace(kv.first, kv.second);
          } else {
            it->second = reduce(it->second, kv.second);
          }
        }
        std::vector<std::pair<K, V>> out;
        out.reserve(acc.size());
        for (auto& kv : acc) out.emplace_back(kv.first, std::move(kv.second));
        return out;
      },
      "combine");
  if (num_partitions == 0) num_partitions = std::max<size_t>(1, ds.num_partitions());
  auto shuffled = dataflow_internal::ShuffleByKey(combined, num_partitions,
                                                  hash, "reduceByKey");
  auto out = StageExecutor(ctx).RunProducing<std::vector<std::pair<K, V>>>(
      "reduceByKey:reduce", num_partitions, [&](size_t q, TaskContext& tc) {
        std::unordered_map<K, V, Hash> acc(16, hash);
        tc.records_in = shuffled[q].size();
        for (const auto& kv : shuffled[q]) {
          auto it = acc.find(kv.first);
          if (it == acc.end()) {
            acc.emplace(kv.first, kv.second);
          } else {
            it->second = reduce(it->second, kv.second);
          }
        }
        std::vector<std::pair<K, V>> slot;
        slot.reserve(acc.size());
        for (auto& kv : acc) slot.emplace_back(kv.first, std::move(kv.second));
        tc.records_out = slot.size();
        return slot;
      });
  if (!out.ok()) throw StageError(out.status());
  return Dataset<std::pair<K, V>>(ctx, std::move(*out));
}

/// Inner hash join on key: Spark's join. A shuffle boundary on both inputs.
template <typename K, typename V, typename W, typename Hash = std::hash<K>>
Dataset<std::pair<K, std::pair<V, W>>> Join(const Dataset<std::pair<K, V>>& a,
                                            const Dataset<std::pair<K, W>>& b,
                                            size_t num_partitions = 0,
                                            const Hash& hash = Hash()) {
  ExecutionContext* ctx = a.context();
  if (num_partitions == 0) num_partitions = std::max<size_t>(1, a.num_partitions());
  auto left = dataflow_internal::ShuffleByKey(a, num_partitions, hash, "join");
  auto right = dataflow_internal::ShuffleByKey(b, num_partitions, hash, "join");
  auto out = StageExecutor(ctx).RunProducing<
      std::vector<std::pair<K, std::pair<V, W>>>>(
      "join:probe", num_partitions, [&](size_t q, TaskContext& tc) {
        std::unordered_map<K, std::vector<V>, Hash> build(16, hash);
        tc.records_in = left[q].size() + right[q].size();
        for (const auto& kv : left[q]) build[kv.first].push_back(kv.second);
        std::vector<std::pair<K, std::pair<V, W>>> slot;
        for (const auto& kw : right[q]) {
          auto it = build.find(kw.first);
          if (it == build.end()) continue;
          for (const auto& v : it->second) {
            slot.emplace_back(kw.first, std::make_pair(v, kw.second));
          }
        }
        tc.records_out = slot.size();
        return slot;
      });
  if (!out.ok()) throw StageError(out.status());
  return Dataset<std::pair<K, std::pair<V, W>>>(ctx, std::move(*out));
}

/// Groups two keyed datasets on the same key — the paper's CoBlock enhancer
/// maps onto this (Spark's cogroup). Keys absent from one side produce an
/// empty bag on that side. A shuffle boundary on both inputs.
template <typename K, typename V, typename W, typename Hash = std::hash<K>>
Dataset<std::pair<K, std::pair<std::vector<V>, std::vector<W>>>> CoGroup(
    const Dataset<std::pair<K, V>>& a, const Dataset<std::pair<K, W>>& b,
    size_t num_partitions = 0, const Hash& hash = Hash()) {
  ExecutionContext* ctx = a.context();
  if (num_partitions == 0) num_partitions = std::max<size_t>(1, a.num_partitions());
  auto left = dataflow_internal::ShuffleByKey(a, num_partitions, hash, "cogroup");
  auto right = dataflow_internal::ShuffleByKey(b, num_partitions, hash, "cogroup");
  using Bags = std::pair<std::vector<V>, std::vector<W>>;
  auto out = StageExecutor(ctx).RunProducing<std::vector<std::pair<K, Bags>>>(
      "cogroup:merge", num_partitions, [&](size_t q, TaskContext& tc) {
        std::unordered_map<K, Bags, Hash> groups(16, hash);
        tc.records_in = left[q].size() + right[q].size();
        for (const auto& kv : left[q]) {
          groups[kv.first].first.push_back(kv.second);
        }
        for (const auto& kw : right[q]) {
          groups[kw.first].second.push_back(kw.second);
        }
        std::vector<std::pair<K, Bags>> slot;
        slot.reserve(groups.size());
        for (auto& g : groups) slot.emplace_back(g.first, std::move(g.second));
        tc.records_out = slot.size();
        return slot;
      });
  if (!out.ok()) throw StageError(out.status());
  return Dataset<std::pair<K, Bags>>(ctx, std::move(*out));
}

}  // namespace bigdansing

#endif  // BIGDANSING_DATAFLOW_DATASET_H_
