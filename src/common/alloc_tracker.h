#ifndef PILOTE_COMMON_ALLOC_TRACKER_H_
#define PILOTE_COMMON_ALLOC_TRACKER_H_

#include <atomic>
#include <cstdint>

namespace pilote {
namespace alloc {

// Runtime allocation accounting for the hot-path discipline contract
// (static side: src/common/hot_path.h + pilote_lint --stage hotpath).
//
// alloc_tracker.cc replaces the global `operator new`/`operator delete`
// family: every heap allocation in the process is routed through one
// relaxed-load gate and, when tracking is enabled, bumps two plain
// thread-local counters (allocation count and requested bytes). The
// disabled cost is one relaxed atomic load and a predictable branch per
// allocation — the same contract as obs::Enabled() and the failpoint
// registry. No locks, no heap use, no syscalls inside the hook, so it is
// safe from static initialization onward and under every sanitizer.
//
// Enablement mirrors obs/metrics.h: tracking is off until
// SetTrackingEnabled / ScopedTracking arm it programmatically (ProfileEdge,
// bench_serving, bench_alloc_stats, perfbench and the allocation-pin tests
// use the scoped form).
//
// Measurement is per-thread by design: AllocationScope captures the
// calling thread's counters and reports the delta, so a worker measuring
// its own flush (serve::BatchingEngine::ProcessBatch) is never polluted by
// concurrent ingest threads. Deallocations are deliberately not counted —
// the discipline being enforced is "how often does the steady state hit
// the allocator", not live-heap accounting.
//
// Linking note: the replacement operators live in alloc_tracker.o inside
// the static pilote_common archive, which the linker only pulls in when
// some symbol of this header is referenced. Every measuring call site
// (AllocationScope, TrackingEnabled) is such a reference, so any binary
// that can observe counts also has the hooks installed.

namespace internal {

// The gate. Constant-initialized so `operator new` calls that run before
// any static initializer see a well-defined (disabled) state.
inline std::atomic<bool> tracking_enabled{false};

// Thread-local allocation counters, written by the operator new hook.
struct ThreadCounters {
  int64_t count = 0;
  int64_t bytes = 0;
};

ThreadCounters& Counters();

}  // namespace internal

// True when allocation tracking is armed.
inline bool TrackingEnabled() {
  return internal::tracking_enabled.load(std::memory_order_relaxed);
}

// Programmatic arm/disarm.
void SetTrackingEnabled(bool enabled);

// Forces tracking on for a scope and restores the previous state.
class ScopedTracking {
 public:
  ScopedTracking() : previous_(TrackingEnabled()) { SetTrackingEnabled(true); }
  ~ScopedTracking() { SetTrackingEnabled(previous_); }

  ScopedTracking(const ScopedTracking&) = delete;
  ScopedTracking& operator=(const ScopedTracking&) = delete;

 private:
  bool previous_;
};

// Allocations observed by the calling thread since tracking was enabled.
struct ThreadStats {
  int64_t count = 0;
  int64_t bytes = 0;
};

ThreadStats CurrentThreadStats();

// Delta-measures the calling thread's allocations across a region:
//
//   alloc::AllocationScope scope;
//   ... hot path under test ...
//   PILOTE_METRIC_HISTOGRAM("serve/batch_allocs", double(scope.count()));
//
// Counts are zero (not garbage) when tracking is disabled. Scopes nest
// freely: each one is an independent start snapshot.
class AllocationScope {
 public:
  AllocationScope();

  int64_t count() const;
  int64_t bytes() const;

 private:
  ThreadStats start_;
};

}  // namespace alloc
}  // namespace pilote

#endif  // PILOTE_COMMON_ALLOC_TRACKER_H_
