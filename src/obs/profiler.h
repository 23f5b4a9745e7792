#ifndef BIGDANSING_OBS_PROFILER_H_
#define BIGDANSING_OBS_PROFILER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace bigdansing {

/// Immutable description of what a worker is currently executing. Interned
/// by the Profiler (one instance per distinct (stage, kind) pair, leaked
/// for the process lifetime), so publishing an activity is a single
/// pointer store and the sampler can dereference without synchronizing
/// with the publisher's stack frame.
struct ActivityDesc {
  std::string stage;  // stage name ("rule:phi1:detect") or "(threadpool)"
  std::string kind;   // work-unit kind: "task", "morsel", "run"
};

/// One thread's published current activity. Writers are the owning thread
/// only (ScopedActivity); the sampler thread reads concurrently through
/// the atomics, so mid-flight observation is race-free by construction.
/// Slots are heap-allocated once per thread and never freed — a sampler
/// tick may legally observe the slot of a thread that already exited (its
/// desc is cleared to null on thread teardown).
struct ActivitySlot {
  std::atomic<const ActivityDesc*> desc{nullptr};
};

/// Signal-free sampling profiler: a dedicated sampler thread wakes at the
/// configured frequency and walks every registered activity slot. Each
/// observation of a non-null activity adds one sample to that activity's
/// folded-stack count; a tick during which no thread published anything
/// counts one "(idle)" sample, so the output distinguishes "nothing ran"
/// from "work ran unattributed". No signals, no stack unwinding: workers
/// cooperatively publish (stage, kind) via ScopedActivity and the sampler
/// only reads atomics, which keeps the hook cheap enough for morsel
/// granularity and the whole plane TSan-clean.
class Profiler {
 public:
  static Profiler& Instance();

  /// Interns an immutable activity descriptor; repeated calls with the
  /// same pair return the same pointer. Call once per stage execution
  /// (driver side), not per morsel.
  const ActivityDesc* Intern(const std::string& stage,
                             const std::string& kind);

  /// Starts the sampler thread at `hz` samples/second (clamped to
  /// [1, 10000]). Idempotent while running (keeps the original rate).
  void Start(double hz);

  /// Stops and joins the sampler thread. Sample counts are retained.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  double hz() const;

  /// Total sampler observations so far (attributed + idle).
  uint64_t TotalSamples() const;

  /// Flamegraph folded-stack rendering, one line per activity:
  ///   bigdansing;<stage>;<kind> <count>
  /// plus a "bigdansing;(idle) <count>" line for idle ticks. Lines are
  /// sorted by count descending so the hottest stage reads first.
  std::string FoldedStacks() const;

  void ResetSamples();

  /// BD_PROFILE_HZ when set to a positive number, else 97 (an off-beat
  /// prime, so the sampler does not alias with millisecond-periodic work).
  static double DefaultHz();

  /// Starts the profiler when BD_PROFILE_HZ or BD_PROFILE_FOLDED is set
  /// (rate from DefaultHz()). Safe to call repeatedly.
  static void StartFromEnv();

  /// Writes FoldedStacks() to the path named by BD_PROFILE_FOLDED ("-" or
  /// "stdout" print instead); no-op when the variable is unset. Returns
  /// false on I/O failure.
  static bool WriteFoldedFromEnv();

 private:
  friend class ScopedActivity;
  friend ActivitySlot* ThisThreadActivitySlot();

  Profiler() = default;

  void SamplerLoop();

  /// Registers a freshly allocated (leaked) slot for a new thread.
  ActivitySlot* RegisterSlot();

  mutable std::mutex intern_mu_;
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<ActivityDesc>>
      interned_;

  mutable std::mutex slots_mu_;
  std::vector<ActivitySlot*> slots_;

  mutable std::mutex samples_mu_;
  std::map<const ActivityDesc*, uint64_t> samples_;
  uint64_t idle_samples_ = 0;
  uint64_t total_samples_ = 0;

  mutable std::mutex control_mu_;  // guards start/stop and hz_
  std::condition_variable wake_;
  std::thread sampler_;
  double hz_ = 0.0;
  std::atomic<bool> running_{false};
};

/// The calling thread's activity slot (registered on first use, cleared
/// automatically when the thread exits).
ActivitySlot* ThisThreadActivitySlot();

/// RAII publication of the calling thread's current activity. Nests:
/// construction saves the previous activity and destruction restores it,
/// so a morsel body publishing its stage overlays the thread pool's
/// generic "run" activity and pops back on exit.
class ScopedActivity {
 public:
  explicit ScopedActivity(const ActivityDesc* desc);
  ~ScopedActivity();

  ScopedActivity(const ScopedActivity&) = delete;
  ScopedActivity& operator=(const ScopedActivity&) = delete;

 private:
  ActivitySlot* slot_;
  const ActivityDesc* prev_desc_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_OBS_PROFILER_H_
