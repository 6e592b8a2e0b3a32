#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/macros.h"
#include "obs/exporter.h"

namespace pilote {
namespace obs {

namespace internal {

// hotpath-ok: one-time process init behind a function-local static; the
// exporter machinery it may start is never reached from serve steady state
bool InitFromEnvironment() {
  // A telemetry destination both enables the instrumentation and starts
  // the streaming exporter, for ANY pilote binary — not just the benches
  // that route flags through ConsumeMetricsFlags. Runs once (this function
  // backs a function-local static); the exporter start path never reads
  // Enabled() on this thread, so the in-progress static cannot re-enter.
  if (std::getenv("PILOTE_TELEMETRY_OUT") != nullptr) {
    MaybeStartTelemetryFromEnv();
    return true;
  }
  const char* metrics = std::getenv("PILOTE_METRICS");
  if (metrics != nullptr && std::strcmp(metrics, "0") != 0) return true;
  // A trace destination likewise implies the instrumentation must run.
  return std::getenv("PILOTE_TRACE_OUT") != nullptr;
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::runtime_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram() { Reset(); }

double Histogram::BucketLowerBound(int i) {
  PILOTE_CHECK_GE(i, 0);
  PILOTE_CHECK_LE(i, kNumBuckets);
  return kFirstBound *
         std::exp2(static_cast<double>(i) / kBucketsPerOctave);
}

int Histogram::BucketIndex(double value) {
  if (!(value > kFirstBound)) return 0;  // also catches NaN
  const int i = static_cast<int>(
      std::log2(value / kFirstBound) * kBucketsPerOctave);
  return std::min(i, kNumBuckets - 1);
}

void Histogram::Record(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
  uint64_t bits = min_bits_.load(std::memory_order_relaxed);
  while (value < std::bit_cast<double>(bits) &&
         !min_bits_.compare_exchange_weak(bits, std::bit_cast<uint64_t>(value),
                                          std::memory_order_relaxed)) {
  }
  bits = max_bits_.load(std::memory_order_relaxed);
  while (value > std::bit_cast<double>(bits) &&
         !max_bits_.compare_exchange_weak(bits, std::bit_cast<uint64_t>(value),
                                          std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.buckets.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    snapshot.buckets[static_cast<size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  if (snapshot.count > 0) {
    snapshot.min =
        std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
    snapshot.max =
        std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  }
  return snapshot;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  min_bits_.store(std::bit_cast<uint64_t>(kInf), std::memory_order_relaxed);
  max_bits_.store(std::bit_cast<uint64_t>(-kInf), std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double q) const {
  PILOTE_CHECK(q >= 0.0 && q <= 1.0) << "percentile quantile " << q;
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      const double lo = Histogram::BucketLowerBound(static_cast<int>(i));
      const double hi = Histogram::BucketLowerBound(static_cast<int>(i) + 1);
      const double frac =
          std::clamp((target - seen) / in_bucket, 0.0, 1.0);
      const double value = lo + frac * (hi - lo);
      // Observed extremes are exact; never report beyond them.
      return std::clamp(value, min, max);
    }
    seen += in_bucket;
  }
  return max;
}

HistogramSnapshot Delta(const HistogramSnapshot& before,
                        const HistogramSnapshot& after) {
  PILOTE_CHECK_EQ(before.buckets.size(), after.buckets.size());
  HistogramSnapshot delta;
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  delta.buckets.resize(after.buckets.size());
  int first = -1;
  int last = -1;
  for (size_t i = 0; i < after.buckets.size(); ++i) {
    delta.buckets[i] = after.buckets[i] - before.buckets[i];
    PILOTE_CHECK_GE(delta.buckets[i], 0)
        << "Delta requires snapshots of the same histogram, in order";
    if (delta.buckets[i] > 0) {
      if (first < 0) first = static_cast<int>(i);
      last = static_cast<int>(i);
    }
  }
  if (first >= 0) {
    // The original min/max cannot be subtracted; approximate from the
    // populated bucket range (and never beyond the after-snapshot extremes,
    // which bound everything the delta can contain).
    delta.min = first == 0 ? after.min
                           : std::max(Histogram::BucketLowerBound(first),
                                      after.min);
    delta.max = std::min(Histogram::BucketLowerBound(last + 1), after.max);
  }
  return delta;
}

// ------------------------------------------------------------- Registry

// hotpath-ok: process-lifetime singleton, allocates on first call only
MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so instrumentation in static destructors stays safe.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, /*labels=*/"", counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, /*labels=*/"", gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back({name, /*labels=*/"", histogram->Snapshot()});
  }
  return snapshot;
}

void MetricsRegistry::ResetForTesting() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace obs
}  // namespace pilote
