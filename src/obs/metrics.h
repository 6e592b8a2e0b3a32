#ifndef PILOTE_OBS_METRICS_H_
#define PILOTE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace pilote {
namespace obs {

// Process-wide metrics: named counters, gauges and fixed-bucket latency
// histograms behind a single registry. The recording fast path is
// lock-free (relaxed atomics on pre-registered handles) and performs no
// heap allocation; registration (name -> handle) takes a mutex but runs
// once per instrumentation site via a function-local static.
//
// Everything is gated on Enabled(): until SetEnabled(true) (or a bench's
// --metrics-json / --trace-out / --telemetry-out flag, which calls it),
// every PILOTE_METRIC_* macro below is one relaxed atomic load and a
// predictable branch — the same disabled cost contract as
// common/numerics_guard.h.

namespace internal {

inline std::atomic<bool> runtime_enabled{false};

}  // namespace internal

// Runtime opt-in/out; the one switch behind Enabled().
void SetEnabled(bool enabled);

inline bool Enabled() {
  return internal::runtime_enabled.load(std::memory_order_relaxed);
}

// Force-enables recording for a scope (e.g. a test reading back its own
// recordings).
class ScopedEnable {
 public:
  ScopedEnable()
      : previous_(internal::runtime_enabled.load(std::memory_order_relaxed)) {
    SetEnabled(true);
  }
  ~ScopedEnable() { SetEnabled(previous_); }

  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

// Monotonically increasing event count (GEMM calls, pairs sampled, ...).
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-written instantaneous value (support-set bytes, learning rate, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Frozen view of one histogram (or the difference of two views); all
// percentile math happens here so the live object stays write-only.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;
  std::vector<int64_t> buckets;

  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  // Linear interpolation inside the containing log-spaced bucket;
  // q in [0, 1]. Returns 0 when the snapshot is empty.
  double Percentile(double q) const;
};

// Bucketwise `after - before`: the recordings that happened between the two
// snapshots of the SAME histogram. min/max are re-derived from the bucket
// edges (the originals cannot be subtracted).
HistogramSnapshot Delta(const HistogramSnapshot& before,
                        const HistogramSnapshot& after);

// Fixed-bucket latency/value histogram. Buckets are log-spaced (factor
// 2^(1/4) per bucket) spanning [1e-7, ~1e5); values outside clamp to the
// first/last bucket. Recording is a handful of relaxed atomic ops.
class Histogram {
 public:
  // 4 buckets per power of two across 40 octaves.
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kNumBuckets = 160;
  static constexpr double kFirstBound = 1e-7;

  Histogram();

  void Record(double value);

  HistogramSnapshot Snapshot() const;
  void Reset();

  // Lower edge of bucket i (upper edge of bucket i-1).
  static double BucketLowerBound(int i);
  static int BucketIndex(double value);

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Raw float64 bits; updated via CAS so min/max stay exact.
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
};

// `labels` is the pre-rendered Prometheus-style label pair list without
// braces (`stage="predict"`); empty for unlabeled metrics. Samples of a
// labeled family carry the family name plus one labels string per slot.
struct CounterSample {
  std::string name;
  std::string labels;
  int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string labels;
  double value = 0.0;
};

// Carries the full bucket view; renderers derive p50/p95/p99/p999 from it
// (HistogramSnapshot::Percentile), so a sample can also be diffed against
// an earlier capture of the same series (obs::Delta).
struct HistogramSample {
  std::string name;
  std::string labels;
  HistogramSnapshot snapshot;
};

// One span name aggregated over all executions (see obs/trace.h).
struct SpanSample {
  std::string name;
  int64_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;  // total minus time spent in nested spans
};

// Activity of one fault-injection site (mirrors fail::FailpointStats;
// merged into the snapshot by obs::CaptureSnapshot so chaos runs ship one
// telemetry artifact instead of a metrics JSON plus a failpoint JSON).
struct FailpointSample {
  std::string name;
  bool armed = false;
  int64_t hits = 0;
  int64_t fires = 0;
};

// Point-in-time view of every registered metric (spans and failpoint stats
// are merged in by obs::CaptureSnapshot in obs/export.h; labeled-family
// samples by the family registry in obs/labels.h).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanSample> spans;
  std::vector<FailpointSample> failpoints;
};

// Name -> metric map. Handles returned by Get* are stable for the process
// lifetime (never invalidated, not even by ResetForTesting), so callers
// cache them in function-local statics and record lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name) PILOTE_EXCLUDES(mutex_);
  Gauge& GetGauge(const std::string& name) PILOTE_EXCLUDES(mutex_);
  Histogram& GetHistogram(const std::string& name) PILOTE_EXCLUDES(mutex_);

  // Counters/gauges/histograms only; spans live in the trace registry.
  MetricsSnapshot Snapshot() const PILOTE_EXCLUDES(mutex_);

  // Zeroes every registered metric IN PLACE; handles stay valid.
  void ResetForTesting() PILOTE_EXCLUDES(mutex_);

 private:
  MetricsRegistry() = default;

  // The maps are guarded; the pointees they own are lock-free metric
  // objects whose handles legitimately outlive the lock.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PILOTE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      PILOTE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PILOTE_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace pilote

#define PILOTE_OBS_CONCAT_INNER(a, b) a##b
#define PILOTE_OBS_CONCAT(a, b) PILOTE_OBS_CONCAT_INNER(a, b)

// Adds `delta` to the counter `name`. When disabled: one relaxed load and a
// branch; the metric is not even registered. `name` must be a string whose
// value is identical on every execution of the site (typically a literal).
#define PILOTE_METRIC_COUNT(name, delta)                                    \
  do {                                                                      \
    if (::pilote::obs::Enabled()) {                                         \
      static ::pilote::obs::Counter& PILOTE_OBS_CONCAT(pilote_obs_c_,       \
                                                       __LINE__) =          \
          ::pilote::obs::MetricsRegistry::Global().GetCounter(name);        \
      PILOTE_OBS_CONCAT(pilote_obs_c_, __LINE__).Add(delta);                \
    }                                                                       \
  } while (0)

#define PILOTE_METRIC_GAUGE_SET(name, value)                                \
  do {                                                                      \
    if (::pilote::obs::Enabled()) {                                         \
      static ::pilote::obs::Gauge& PILOTE_OBS_CONCAT(pilote_obs_g_,         \
                                                     __LINE__) =            \
          ::pilote::obs::MetricsRegistry::Global().GetGauge(name);          \
      PILOTE_OBS_CONCAT(pilote_obs_g_, __LINE__).Set(value);                \
    }                                                                       \
  } while (0)

#define PILOTE_METRIC_HISTOGRAM(name, value)                                \
  do {                                                                      \
    if (::pilote::obs::Enabled()) {                                         \
      static ::pilote::obs::Histogram& PILOTE_OBS_CONCAT(pilote_obs_h_,     \
                                                         __LINE__) =        \
          ::pilote::obs::MetricsRegistry::Global().GetHistogram(name);      \
      PILOTE_OBS_CONCAT(pilote_obs_h_, __LINE__).Record(value);             \
    }                                                                       \
  } while (0)

#endif  // PILOTE_OBS_METRICS_H_
