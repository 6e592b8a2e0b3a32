#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pilote {
namespace obs {
namespace {

// Every test runs against the process-global registry, so each starts from
// zeroed metrics and span aggregates (handles stay valid by contract).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTesting();
    ResetSpansForTesting();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    MetricsRegistry::Global().ResetForTesting();
    ResetSpansForTesting();
  }
};

TEST_F(ObsTest, CounterAddsAndResets) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test/counter");
  counter.Add(3);
  counter.Increment();
  EXPECT_EQ(counter.value(), 4);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST_F(ObsTest, GaugeKeepsLastValue) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge("test/gauge");
  gauge.Set(1.5);
  gauge.Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.25);
}

TEST_F(ObsTest, RegistryHandlesAreStable) {
  Counter& first = MetricsRegistry::Global().GetCounter("test/stable");
  first.Add(7);
  Counter& second = MetricsRegistry::Global().GetCounter("test/stable");
  EXPECT_EQ(&first, &second);
  MetricsRegistry::Global().ResetForTesting();
  // Reset zeroes in place: the handle must survive and keep recording.
  first.Add(2);
  EXPECT_EQ(second.value(), 2);
}

TEST_F(ObsTest, HistogramTracksCountSumMinMax) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test/hist");
  hist.Record(0.001);
  hist.Record(0.004);
  hist.Record(0.016);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 0.021);
  EXPECT_DOUBLE_EQ(snap.min, 0.001);
  EXPECT_DOUBLE_EQ(snap.max, 0.016);
  EXPECT_NEAR(snap.Mean(), 0.007, 1e-12);
}

TEST_F(ObsTest, BucketEdgesAreMonotonic) {
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_LT(Histogram::BucketLowerBound(i - 1),
              Histogram::BucketLowerBound(i));
  }
  // Each value lands in the bucket whose [lower, upper) range contains it.
  for (double v : {1e-6, 3.7e-4, 0.01, 1.0, 123.0}) {
    const int i = Histogram::BucketIndex(v);
    EXPECT_GE(v, Histogram::BucketLowerBound(i));
    EXPECT_LT(v, Histogram::BucketLowerBound(i + 1));
  }
}

TEST_F(ObsTest, PercentilesOrderedAndClampedToObservedRange) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test/pct");
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i) * 1e-3);
  HistogramSnapshot snap = hist.Snapshot();
  const double p50 = snap.Percentile(0.50);
  const double p95 = snap.Percentile(0.95);
  const double p99 = snap.Percentile(0.99);
  EXPECT_LE(snap.min, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, snap.max);
  // Uniform 1ms..1000ms: the median must land in the right neighborhood
  // (log-bucket interpolation, so allow one bucket ratio ~19% of slack).
  EXPECT_NEAR(p50, 0.5, 0.12);
  EXPECT_NEAR(p95, 0.95, 0.2);
}

TEST_F(ObsTest, TailPercentileResolvedAtBucketResolution) {
  // 500 fast windows at 1ms and one straggler at 500ms (the straggler is
  // ~0.2% of the population, so the 0.999 rank falls past the fast mass):
  // p999 must land on the straggler within one log-bucket ratio (4
  // buckets/octave, so the relative error of any in-bucket value is
  // bounded by 2^(1/4) ~ 1.19), while p99 stays with the fast mass.
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test/pct");
  for (int i = 0; i < 500; ++i) hist.Record(0.001);
  hist.Record(0.5);
  HistogramSnapshot snap = hist.Snapshot();
  const double p99 = snap.Percentile(0.99);
  const double p999 = snap.Percentile(0.999);
  EXPECT_LT(p99, 0.002);
  EXPECT_GE(p999, 0.5 / std::pow(2.0, 0.25));
  EXPECT_LE(p999, 0.5);
  // p999 is clamped to the observed max, never extrapolated past it.
  EXPECT_LE(p999, snap.max);
}

TEST_F(ObsTest, EmptyHistogramPercentileIsZero) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test/empty");
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 0.0);
}

TEST_F(ObsTest, DeltaIsolatesRecordingsBetweenSnapshots) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test/delta");
  hist.Record(1.0);
  hist.Record(2.0);
  HistogramSnapshot before = hist.Snapshot();
  hist.Record(0.25);
  hist.Record(0.5);
  HistogramSnapshot delta = Delta(before, hist.Snapshot());
  EXPECT_EQ(delta.count, 2);
  EXPECT_DOUBLE_EQ(delta.sum, 0.75);
  // Re-derived min/max bound the in-between recordings.
  EXPECT_LE(delta.min, 0.25);
  EXPECT_GE(delta.max, 0.5);
  EXPECT_LE(delta.max, 2.0);
}

TEST_F(ObsTest, ConcurrentRecordingLosesNothing) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test/mt_counter");
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test/mt_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        hist.Record(1e-3 * static_cast<double>(t + 1));
        PILOTE_METRIC_COUNT("test/mt_macro", 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1e-3);
  EXPECT_DOUBLE_EQ(snap.max, 8e-3);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("test/mt_macro").value(),
      kThreads * kPerThread);
}

TEST_F(ObsTest, ConcurrentSpansAggregateAllExecutions) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        PILOTE_TRACE_SPAN("test/mt_span");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const SpanSample& s : SpanProfile()) {
    if (s.name == "test/mt_span") {
      EXPECT_EQ(s.count, kThreads * kPerThread);
      return;
    }
  }
  FAIL() << "span not found in profile";
}

TEST_F(ObsTest, SpansNestAndSelfTimeExcludesChildren) {
  {
    PILOTE_TRACE_SPAN("test/outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      PILOTE_TRACE_SPAN("test/inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  double outer_total = 0.0, outer_self = 0.0, inner_total = 0.0;
  for (const SpanSample& s : SpanProfile()) {
    if (s.name == "test/outer") {
      EXPECT_EQ(s.count, 1);
      outer_total = s.total_seconds;
      outer_self = s.self_seconds;
    } else if (s.name == "test/inner") {
      EXPECT_EQ(s.count, 1);
      inner_total = s.total_seconds;
    }
  }
  EXPECT_GE(inner_total, 0.015);
  EXPECT_GE(outer_total, inner_total);
  // Self time is the outer span minus the nested one.
  EXPECT_NEAR(outer_self, outer_total - inner_total, 1e-9);
  EXPECT_LT(outer_self, outer_total);
}

TEST_F(ObsTest, DisabledRecordingIsANoOp) {
  SetEnabled(false);
  PILOTE_METRIC_COUNT("test/disabled_counter", 5);
  PILOTE_METRIC_HISTOGRAM("test/disabled_hist", 1.0);
  { PILOTE_TRACE_SPAN("test/disabled_span"); }
  SetEnabled(true);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("test/disabled_counter").value(),
      0);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetHistogram("test/disabled_hist")
                .Snapshot()
                .count,
            0);
  for (const SpanSample& s : SpanProfile()) {
    EXPECT_NE(s.name, "test/disabled_span");
  }
}

TEST_F(ObsTest, ScopedEnableRestoresPreviousState) {
  SetEnabled(false);
  {
    ScopedEnable enable;
    EXPECT_TRUE(Enabled());
    PILOTE_METRIC_COUNT("test/scoped_counter", 1);
  }
  EXPECT_FALSE(Enabled());
  SetEnabled(true);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("test/scoped_counter").value(), 1);
}

TEST_F(ObsTest, JsonExporterCarriesAllKinds) {
  MetricsRegistry::Global().GetCounter("test/export_counter").Add(42);
  MetricsRegistry::Global().GetGauge("test/export_gauge").Set(3.5);
  MetricsRegistry::Global().GetHistogram("test/export_hist").Record(0.125);
  { PILOTE_TRACE_SPAN("test/export_span"); }

  MetricsSnapshot snapshot = CaptureSnapshot();
  const std::string json = ToJson(snapshot);
  EXPECT_NE(json.find("\"test/export_counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test/export_gauge\":3.5"), std::string::npos);
  EXPECT_NE(json.find("\"test/export_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"test/export_span\""), std::string::npos);
}

TEST_F(ObsTest, WriteMetricsJsonProducesParseableFile) {
  MetricsRegistry::Global().GetCounter("test/file_counter").Add(1);
  const std::string path = ::testing::TempDir() + "/obs_test_metrics.json";
  ASSERT_TRUE(WriteMetricsJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    body.append(buffer, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"counters\""), std::string::npos);
  EXPECT_NE(body.find("test/file_counter"), std::string::npos);
}

TEST_F(ObsTest, TraceCaptureBuffersChromeEvents) {
  StartTraceCapture();
  ASSERT_TRUE(TraceCaptureActive());
  {
    PILOTE_TRACE_SPAN("test/trace_event");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool found = false;
  for (const TraceEvent& event : CapturedTraceEvents()) {
    if (std::string(event.name) == "test/trace_event") {
      found = true;
      EXPECT_GE(event.dur_us, 0);
    }
  }
  EXPECT_TRUE(found);

  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    body.append(buffer, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"test/trace_event\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace pilote
