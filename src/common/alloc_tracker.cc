#include "common/alloc_tracker.h"

#include <cstdlib>
#include <new>

namespace pilote {
namespace alloc {
namespace internal {

ThreadCounters& Counters() {
  // Trivially-constructible thread_local: no guard variable, no
  // registration, safe to touch from the allocation hook at any point in
  // the thread's lifetime.
  static thread_local ThreadCounters counters;
  return counters;
}

namespace {

// One relaxed load + branch when disabled; two thread-local increments
// when enabled. Must stay allocation-free and lock-free: it runs inside
// operator new.
inline void NoteAllocation(std::size_t size) {
  if (tracking_enabled.load(std::memory_order_relaxed)) {
    ThreadCounters& counters = Counters();
    counters.count += 1;
    counters.bytes += static_cast<int64_t>(size);
  }
}

void* AllocateOrThrow(std::size_t size) {
  NoteAllocation(size);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateNoThrow(std::size_t size) noexcept {
  NoteAllocation(size);
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* AllocateAlignedOrThrow(std::size_t size, std::size_t alignment) {
  NoteAllocation(size);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace
}  // namespace internal

void SetTrackingEnabled(bool enabled) {
  internal::tracking_enabled.store(enabled, std::memory_order_relaxed);
}

ThreadStats CurrentThreadStats() {
  const internal::ThreadCounters& counters = internal::Counters();
  return ThreadStats{counters.count, counters.bytes};
}

AllocationScope::AllocationScope() : start_(CurrentThreadStats()) {}

int64_t AllocationScope::count() const {
  return CurrentThreadStats().count - start_.count;
}

int64_t AllocationScope::bytes() const {
  return CurrentThreadStats().bytes - start_.bytes;
}

}  // namespace alloc
}  // namespace pilote

// ---------------------------------------------------------------------------
// Global operator new/delete replacement (the runtime side of the hot-path
// discipline). The full replaceable family is provided so every allocation
// is funneled through malloc and counted symmetrically; deletes pass
// through to free() uncounted (see the header for why).
// ---------------------------------------------------------------------------

void* operator new(std::size_t size) {
  return pilote::alloc::internal::AllocateOrThrow(size);
}

void* operator new[](std::size_t size) {
  return pilote::alloc::internal::AllocateOrThrow(size);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return pilote::alloc::internal::AllocateNoThrow(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return pilote::alloc::internal::AllocateNoThrow(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  return pilote::alloc::internal::AllocateAlignedOrThrow(
      size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  return pilote::alloc::internal::AllocateAlignedOrThrow(
      size, static_cast<std::size_t>(alignment));
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
