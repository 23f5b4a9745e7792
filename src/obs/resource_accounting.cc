#include "obs/resource_accounting.h"

#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/metrics_registry.h"

namespace bigdansing {
namespace {

/// Plain (non-atomic) per-thread counters: only the owning thread writes
/// and only the owning thread reads, so the hot path is two increments.
/// Trivially destructible so allocation during thread teardown stays safe.
thread_local uint64_t t_alloc_bytes = 0;
thread_local uint64_t t_alloc_count = 0;

inline void NoteAllocation(std::size_t size) {
  t_alloc_bytes += static_cast<uint64_t>(size);
  ++t_alloc_count;
}

}  // namespace

ThreadAllocCounters ThreadAllocations() {
  return ThreadAllocCounters{t_alloc_bytes, t_alloc_count};
}

uint64_t CurrentRssBytes() {
#if defined(__linux__)
  // statm field 2 is resident pages. The file is opened once and each call
  // is one small pread of it, cheap enough for every stage boundary.
  static const int fd = open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[128];
  const ssize_t n = pread(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return 0;
  buf[n] = '\0';
  char* total_end = nullptr;
  std::strtoull(buf, &total_end, 10);  // field 1: total program size
  char* resident_end = nullptr;
  const unsigned long long resident =
      std::strtoull(total_end, &resident_end, 10);
  if (total_end == buf || resident_end == total_end) return 0;
  static const long page = sysconf(_SC_PAGESIZE);
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

StageResourceProbe::StageResourceProbe()
    : rss_before_(static_cast<int64_t>(CurrentRssBytes())),
      steals_counter_(
          &MetricsRegistry::Instance().GetCounter("threadpool.steals")) {
  steals_before_ = steals_counter_->Value();
}

int64_t StageResourceProbe::RssDeltaBytes() const {
  return static_cast<int64_t>(CurrentRssBytes()) - rss_before_;
}

uint64_t StageResourceProbe::StealsDelta() const {
  return steals_counter_->Value() - steals_before_;
}

}  // namespace bigdansing

// ---------------------------------------------------------------------------
// Counting allocator hook: replace the global operator new family so every
// heap allocation in the process is attributed to its calling thread. The
// replacements forward to malloc/free (never back into operator new), so
// there is no recursion, and the sanitizers' malloc interceptors still see
// every allocation. Deletes are replaced too so new/delete stay a matched
// malloc/free pair.
// ---------------------------------------------------------------------------

namespace {

void* CountedAlloc(std::size_t size) {
  bigdansing::NoteAllocation(size);
  // malloc(0) may return null legally; operator new must not.
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  bigdansing::NoteAllocation(size);
  void* p = nullptr;
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(alignment)))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(alignment)))
    return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
