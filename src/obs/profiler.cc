#include "obs/profiler.h"

#include <algorithm>
#include <chrono>

#include "common/metrics_registry.h"

namespace bigdansing {

Profiler& Profiler::Instance() {
  static Profiler* instance = new Profiler();  // Leaked: safe at exit.
  return *instance;
}

const ActivityDesc* Profiler::Intern(const std::string& stage,
                                     const std::string& kind) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  auto& slot = interned_[{stage, kind}];
  if (!slot) {
    slot = std::make_unique<ActivityDesc>();
    slot->stage = stage;
    slot->kind = kind;
  }
  return slot.get();
}

ActivitySlot* Profiler::RegisterSlot() {
  // Leaked deliberately: the sampler may observe the slot after its thread
  // exited, so slot storage must outlive every thread.
  ActivitySlot* slot = new ActivitySlot();
  std::lock_guard<std::mutex> lock(slots_mu_);
  slots_.push_back(slot);
  return slot;
}

ActivitySlot* ThisThreadActivitySlot() {
  // The holder's destructor clears the published activity when the thread
  // exits, so dead threads never count as "active" in later samples.
  struct Holder {
    ActivitySlot* slot = Profiler::Instance().RegisterSlot();
    ~Holder() { slot->desc.store(nullptr, std::memory_order_release); }
  };
  thread_local Holder holder;
  return holder.slot;
}

void Profiler::Start(double hz) {
  std::lock_guard<std::mutex> lock(control_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  hz_ = std::clamp(hz, 1.0, 10000.0);
  running_.store(true, std::memory_order_release);
  sampler_ = std::thread([this] { SamplerLoop(); });
  MetricsRegistry::Instance().GetGauge("profiler.running").Set(1);
}

void Profiler::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (!running_.load(std::memory_order_acquire)) return;
    running_.store(false, std::memory_order_release);
    wake_.notify_all();
    to_join = std::move(sampler_);
  }
  if (to_join.joinable()) to_join.join();
  MetricsRegistry::Instance().GetGauge("profiler.running").Set(0);
}

double Profiler::hz() const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return hz_;
}

void Profiler::SamplerLoop() {
  Counter& sample_counter =
      MetricsRegistry::Instance().GetCounter("profiler.samples");
  const auto period = std::chrono::duration<double>(1.0 / hz());
  std::unique_lock<std::mutex> control(control_mu_);
  while (running_.load(std::memory_order_acquire)) {
    // Sleep interruptibly so Stop() never waits a full period.
    wake_.wait_for(control, period, [this] {
      return !running_.load(std::memory_order_acquire);
    });
    if (!running_.load(std::memory_order_acquire)) return;
    control.unlock();

    // Walk every slot; acquire pairs with the publisher's release store,
    // so the interned descriptor's strings are fully visible.
    size_t active = 0;
    {
      std::lock_guard<std::mutex> slots(slots_mu_);
      std::lock_guard<std::mutex> samples(samples_mu_);
      for (ActivitySlot* slot : slots_) {
        const ActivityDesc* desc = slot->desc.load(std::memory_order_acquire);
        if (desc == nullptr) continue;
        ++samples_[desc];
        ++total_samples_;
        ++active;
      }
      if (active == 0) {
        ++idle_samples_;
        ++total_samples_;
      }
    }
    sample_counter.Add(active == 0 ? 1 : active);

    control.lock();
  }
}

uint64_t Profiler::TotalSamples() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return total_samples_;
}

std::string Profiler::FoldedStacks() const {
  std::vector<std::pair<std::string, uint64_t>> lines;
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    lines.reserve(samples_.size() + 1);
    for (const auto& [desc, count] : samples_) {
      lines.emplace_back("bigdansing;" + desc->stage + ";" + desc->kind,
                         count);
    }
    if (idle_samples_ > 0) {
      lines.emplace_back("bigdansing;(idle)", idle_samples_);
    }
  }
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::string out;
  for (const auto& [frames, count] : lines) {
    out += frames + " " + std::to_string(count) + "\n";
  }
  return out;
}

void Profiler::ResetSamples() {
  std::lock_guard<std::mutex> lock(samples_mu_);
  samples_.clear();
  idle_samples_ = 0;
  total_samples_ = 0;
}

ScopedActivity::ScopedActivity(const ActivityDesc* desc)
    : slot_(ThisThreadActivitySlot()),
      prev_desc_(slot_->desc.load(std::memory_order_relaxed)) {
  slot_->desc.store(desc, std::memory_order_release);
}

ScopedActivity::~ScopedActivity() {
  slot_->desc.store(prev_desc_, std::memory_order_release);
}

}  // namespace bigdansing
