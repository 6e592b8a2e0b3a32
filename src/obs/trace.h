#ifndef PILOTE_OBS_TRACE_H_
#define PILOTE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace pilote {
namespace obs {

// Scoped trace spans:
//
//   void Train() {
//     PILOTE_TRACE_SPAN("trainer/train");
//     for (...) {
//       PILOTE_TRACE_SPAN("trainer/epoch");
//       ...
//     }
//   }
//
// Spans nest through a thread-local stack and aggregate per span name
// (execution count, total wall time, self time = total minus nested span
// time). Aggregates feed the flat profile in obs::CaptureSnapshot; once
// StartTraceCapture has run (the bench --trace-out flag calls it), every
// span additionally records one Chrome `trace_event` for chrome://tracing /
// Perfetto.
//
// Disabled cost (obs::Enabled() false): one relaxed atomic load and a
// branch per span entry — spans are safe to leave in hot-ish paths like
// the per-epoch trainer loop, though per-GEMM-call granularity should use
// counters instead.

namespace internal {

// Aggregate across all executions of one span NAME (sites sharing a name
// share the aggregate). Monotonic nanosecond clock.
struct SpanStats {
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> total_ns{0};
  std::atomic<int64_t> child_ns{0};
};

// One static instance per PILOTE_TRACE_SPAN site; resolves name -> shared
// SpanStats exactly once (thread-safe via static-local initialization).
class SpanSite {
 public:
  explicit SpanSite(const char* name);

  const char* name() const { return name_; }
  SpanStats* stats() const { return stats_; }

 private:
  const char* name_;
  SpanStats* stats_;
};

// RAII span execution. Captures enablement at entry, so a span that
// straddles a SetEnabled flip stays internally consistent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const SpanSite& site);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const SpanSite* site_ = nullptr;  // null when recording is disabled
  ScopedSpan* parent_ = nullptr;
  int64_t start_ns_ = 0;
};

}  // namespace internal

// Per-name flat profile rows, sorted by total time descending.
std::vector<SpanSample> SpanProfile();

// Zeroes all span aggregates and drops buffered trace events.
void ResetSpansForTesting();

// Starts buffering Chrome trace events (--trace-out=path does this and
// also writes the file at process exit).
void StartTraceCapture();
bool TraceCaptureActive();

// One buffered Chrome trace_event ("ph":"X"); timestamps are microseconds
// since the first captured event.
struct TraceEvent {
  const char* name;
  int64_t ts_us;
  int64_t dur_us;
  uint64_t tid;
};

// Snapshot of the buffered events (copy; capture keeps running).
std::vector<TraceEvent> CapturedTraceEvents();

// Writes the buffered events as Chrome trace_event JSON (load in
// chrome://tracing or https://ui.perfetto.dev). --trace-out=path calls
// this at process exit.
Status WriteChromeTrace(const std::string& path);

}  // namespace obs
}  // namespace pilote

// Aggregates the enclosed scope under `name` (a string literal or a pointer
// whose value never changes at this site) and nests within any enclosing
// span on this thread.
#define PILOTE_TRACE_SPAN(name)                                           \
  static const ::pilote::obs::internal::SpanSite PILOTE_OBS_CONCAT(       \
      pilote_obs_span_site_, __LINE__){name};                             \
  const ::pilote::obs::internal::ScopedSpan PILOTE_OBS_CONCAT(            \
      pilote_obs_span_, __LINE__){                                        \
      PILOTE_OBS_CONCAT(pilote_obs_span_site_, __LINE__)}

#endif  // PILOTE_OBS_TRACE_H_
