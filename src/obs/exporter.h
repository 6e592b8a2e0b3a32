#ifndef PILOTE_OBS_EXPORTER_H_
#define PILOTE_OBS_EXPORTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace pilote {
namespace obs {

// Background telemetry exporter: a thread that every `interval_ms` captures
// the registries and appends one JSON object to `<output_prefix>.jsonl`
// describing that tick's window:
//
//   tick, uptime_s, window_s   tick number, seconds since construction,
//                              seconds since the previous tick
//   counters    {"series":{"delta":d,"rate_per_s":r}} — events this tick
//   gauges      {"series":v} — instantaneous values
//   histograms  {"series":{count,sum,min,max,p50,p95,p99,p999}} — the
//               recordings of this tick (obs::Delta of two captures)
//   failpoints  {"name":{armed,hits,fires}} — cumulative
//   exemplars   [ ... ] — the slow-window exemplar ring (obs/exemplar.h)
//
// The exporter keeps only its previous capture. The first tick is the
// baseline: its deltas are the cumulative values and its window_s is 0
// (rates 0). A wider window is a longer interval.
//
// Lifecycle: Start() launches the thread, Stop() (idempotent; also run by
// the destructor) joins it and performs one final tick so even runs shorter
// than an interval leave a record. Start/Stop are control-plane calls from
// one thread; the tick path never touches serving state beyond the
// lock-free registries, so ingest threads are never blocked.
struct TelemetryOptions {
  std::string output_prefix;
  int64_t interval_ms = 1000;
};

class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryOptions options);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  // kFailedPrecondition when already running; kInvalidArgument for a bad
  // interval or empty output prefix.
  Status Start() PILOTE_EXCLUDES(mutex_);

  // Signals the thread, joins it, runs a final tick. Safe to call twice.
  void Stop() PILOTE_EXCLUDES(mutex_, tick_mutex_);

  // Captures and appends one record immediately (also the final flush in
  // Stop, and what tests call to avoid timing dependence).
  Status TickNow() PILOTE_EXCLUDES(mutex_, tick_mutex_);

  int64_t ticks_completed() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  const TelemetryOptions& options() const { return options_; }

 private:
  void Loop() PILOTE_EXCLUDES(mutex_, tick_mutex_);

  const TelemetryOptions options_;
  const std::chrono::steady_clock::time_point start_time_;

  Mutex mutex_;
  CondVar stop_cv_;
  bool stop_requested_ PILOTE_GUARDED_BY(mutex_) = false;
  bool running_ PILOTE_GUARDED_BY(mutex_) = false;
  // unguarded: written in Start, joined in Stop; control-plane calls are
  // serialized by the caller.
  std::thread thread_;
  // Serializes ticks (the loop's, Stop's final one and manual ones); held
  // across capture and file I/O, which mutex_ never is.
  Mutex tick_mutex_;
  MetricsSnapshot previous_ PILOTE_GUARDED_BY(tick_mutex_);
  double previous_uptime_s_ PILOTE_GUARDED_BY(tick_mutex_) = 0.0;
  std::atomic<int64_t> ticks_{0};
};

// Process-wide exporter, the --telemetry-out surface. Start enables
// metric recording, launches the exporter and registers an atexit stop;
// kFailedPrecondition if one is already running. Stop runs the final tick
// and deletes the exporter, so a GlobalTelemetry() pointer is valid only
// until then.
Status StartGlobalTelemetry(const TelemetryOptions& options);
void StopGlobalTelemetry();
TelemetryExporter* GlobalTelemetry();

}  // namespace obs
}  // namespace pilote

#endif  // PILOTE_OBS_EXPORTER_H_
