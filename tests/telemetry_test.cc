// Streaming-telemetry-plane tests: labeled metric families, the
// slow-window exemplar ring, and the background TelemetryExporter running
// concurrently with serving ingest (the suite CI runs under TSan). The
// end-to-end test is the acceptance drill: exporter thread + multi-threaded
// ingest + a mid-ingest worker stall + a failpoint-rejected update,
// asserting that the per-tick JSONL records add up to every request with a
// tail quantile, stage/end-to-end latency consistency, a captured exemplar,
// and the failpoint's fires in the stream.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/cloud.h"
#include "data/dataset.h"
#include "obs/exemplar.h"
#include "obs/export.h"
#include "obs/exporter.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace pilote {
namespace obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTesting();
    FamilyRegistry::Global().ResetForTesting();
    SlowWindows().ResetForTesting();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    MetricsRegistry::Global().ResetForTesting();
    FamilyRegistry::Global().ResetForTesting();
    SlowWindows().ResetForTesting();
  }
};

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  std::string body;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    body.append(buffer, n);
  }
  std::fclose(f);
  return body;
}

std::vector<std::string> SplitLines(const std::string& body) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t end = body.find('\n'); end != std::string::npos;
       start = end + 1, end = body.find('\n', start)) {
    lines.push_back(body.substr(start, end - start));
  }
  return lines;
}

// The number right after the first `key` at or after `from` in `line`;
// -1 when `key` is absent.
double NumberAfter(const std::string& line, const std::string& key,
                   size_t from = 0) {
  const size_t at = line.find(key, from);
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + key.size(), nullptr);
}

// ------------------------------------------------------- metric families

TEST_F(TelemetryTest, FamilySlotsAreSharedAcrossRegistrations) {
  CounterFamily a = FamilyRegistry::Global().GetCounterFamily(
      "test/family_total", "reason", {"x", "y"});
  // A second site registering an overlapping value subset sees the same
  // underlying slots, in ITS requested order.
  CounterFamily b = FamilyRegistry::Global().GetCounterFamily(
      "test/family_total", "reason", {"y", "z"});
  a.At(1).Add(4);  // reason=y through site a
  EXPECT_EQ(b.At(0).value(), 4);  // reason=y through site b
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);
}

TEST_F(TelemetryTest, FamilySamplesCarryRenderedLabels) {
  GaugeFamily shard = FamilyRegistry::Global().GetGaugeFamily(
      "test/shard_sessions", "shard", {"0", "1"});
  shard.At(0).Set(2.0);
  shard.At(1).Set(7.0);
  MetricsSnapshot snapshot;
  FamilyRegistry::Global().AppendTo(&snapshot);
  // Family registrations are process-wide and permanent, so other tests'
  // families share the snapshot: keep only this test's series.
  std::vector<GaugeSample> gauges;
  std::copy_if(snapshot.gauges.begin(), snapshot.gauges.end(),
               std::back_inserter(gauges), [](const GaugeSample& gauge) {
                 return gauge.name == "test/shard_sessions";
               });
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[0].labels, "shard=\"0\"");
  EXPECT_DOUBLE_EQ(gauges[0].value, 2.0);
  EXPECT_EQ(gauges[1].labels, "shard=\"1\"");
  EXPECT_DOUBLE_EQ(gauges[1].value, 7.0);
}

TEST_F(TelemetryTest, RenderLabelEscapesQuotesAndBackslashes) {
  EXPECT_EQ(RenderLabel("k", "plain"), "k=\"plain\"");
  EXPECT_EQ(RenderLabel("k", "a\"b\\c"), "k=\"a\\\"b\\\\c\"");
}

TEST_F(TelemetryTest, FamilyResetZeroesInPlaceAndViewsSurvive) {
  HistogramFamily stage = FamilyRegistry::Global().GetHistogramFamily(
      "test/stage_ms", "stage", {"predict"});
  stage.At(0).Record(1.0);
  FamilyRegistry::Global().ResetForTesting();
  EXPECT_EQ(stage.At(0).Snapshot().count, 0);
  stage.At(0).Record(2.0);
  EXPECT_EQ(stage.At(0).Snapshot().count, 1);
}

// -------------------------------------------------------- exemplar ring

TEST_F(TelemetryTest, ExemplarRingOverwritesOldestAndCountsRecords) {
  ExemplarRing ring(/*capacity=*/4);
  for (uint64_t i = 0; i < 6; ++i) {
    SlowWindowExemplar e;
    e.session_id = i;
    e.total_ms = static_cast<double>(i);
    ring.Record(e);
  }
  EXPECT_EQ(ring.recorded(), 6);
  std::vector<SlowWindowExemplar> snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  // The surviving slots are the four most recent captures (sequence 2..5).
  for (const SlowWindowExemplar& e : snapshot) {
    EXPECT_GE(e.sequence, 2u);
    EXPECT_LE(e.sequence, 5u);
    EXPECT_EQ(e.session_id, e.sequence);
  }
  ring.ResetForTesting();
  EXPECT_EQ(ring.recorded(), 0);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST_F(TelemetryTest, ExemplarRingIsSafeUnderConcurrentRecordAndSnapshot) {
  ExemplarRing ring(/*capacity=*/8);
  std::atomic<bool> stop{false};
  std::thread reader([&stop, &ring] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const SlowWindowExemplar& e : ring.Snapshot()) {
        // Every writer records stages summing to total_ms; a torn slot
        // that slipped past the seqlock would break the sum.
        EXPECT_DOUBLE_EQ(
            e.total_ms, e.queue_wait_ms + e.batch_wait_ms + e.predict_ms);
        EXPECT_EQ(e.session_id, static_cast<uint64_t>(e.total_ms));
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&ring, t] {
      for (int i = 0; i < 2000; ++i) {
        const double stage = static_cast<double>(t * 2000 + i);
        SlowWindowExemplar e;
        e.session_id = static_cast<uint64_t>(3.0 * stage);
        e.queue_wait_ms = stage;
        e.batch_wait_ms = stage;
        e.predict_ms = stage;
        e.total_ms = 3.0 * stage;
        ring.Record(e);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(ring.recorded(), 0);
  EXPECT_LE(ring.Snapshot().size(), ring.capacity());
}

// ------------------------------------------------------------- exporter

TEST_F(TelemetryTest, TickNowAppendsOneDeltaRecordPerTick) {
  Counter& events = MetricsRegistry::Global().GetCounter("test/events_total");
  Histogram& lat = MetricsRegistry::Global().GetHistogram("test/lat_ms");
  events.Add(5);
  lat.Record(3.0);

  TelemetryOptions options;
  options.output_prefix = ::testing::TempDir() + "/telemetry_ticknow";
  options.interval_ms = 60000;  // never fires on its own; ticks are manual
  std::remove((options.output_prefix + ".jsonl").c_str());
  TelemetryExporter exporter(options);
  ASSERT_TRUE(exporter.TickNow().ok());  // baseline: the cumulative values
  events.Add(7);
  lat.Record(4.0);
  ASSERT_TRUE(exporter.TickNow().ok());
  ASSERT_TRUE(exporter.TickNow().ok());  // nothing recorded since the last
  EXPECT_EQ(exporter.ticks_completed(), 3);

  // One appended record per tick, each holding only its own tick's delta:
  // a third record reading 7 (or 12) would mean the previous capture did
  // not advance.
  const std::vector<std::string> lines =
      SplitLines(ReadFileOrEmpty(options.output_prefix + ".jsonl"));
  ASSERT_EQ(lines.size(), 3u);
  const std::string delta = "\"test/events_total\":{\"delta\":";
  const std::string count = "\"test/lat_ms\":{\"count\":";
  EXPECT_EQ(NumberAfter(lines[0], delta), 5);
  EXPECT_EQ(NumberAfter(lines[1], delta), 7);
  EXPECT_EQ(NumberAfter(lines[2], delta), 0);
  EXPECT_EQ(NumberAfter(lines[0], count), 1);
  EXPECT_EQ(NumberAfter(lines[1], count), 1);
  EXPECT_EQ(NumberAfter(lines[2], count), 0);
  // The tick-2 histogram window holds only the 4.0 recording.
  EXPECT_GE(NumberAfter(lines[1], "\"p50\":", lines[1].find(count)), 3.5);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(NumberAfter(lines[i], "{\"tick\":"),
              static_cast<double>(i + 1));
  }
  // The baseline has no window to rate over; later rates are per second of
  // their own window.
  EXPECT_EQ(NumberAfter(lines[0], "\"window_s\":"), 0);
  EXPECT_NE(lines[0].find(delta + "5,\"rate_per_s\":0}"), std::string::npos);
  const double window_s = NumberAfter(lines[1], "\"window_s\":");
  ASSERT_GT(window_s, 0.0);
  EXPECT_NEAR(NumberAfter(lines[1], delta + "7,\"rate_per_s\":"),
              7.0 / window_s, 1e-6 * 7.0 / window_s);
}

TEST_F(TelemetryTest, GlobalTelemetryIsExclusiveAndRestartable) {
  TelemetryOptions options;
  options.output_prefix = ::testing::TempDir() + "/telemetry_global";
  options.interval_ms = 50;
  ASSERT_EQ(GlobalTelemetry(), nullptr);
  ASSERT_TRUE(StartGlobalTelemetry(options).ok());
  EXPECT_NE(GlobalTelemetry(), nullptr);
  Status second = StartGlobalTelemetry(options);
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  StopGlobalTelemetry();
  EXPECT_EQ(GlobalTelemetry(), nullptr);
  ASSERT_TRUE(StartGlobalTelemetry(options).ok());
  StopGlobalTelemetry();
}

// ------------------------------------------------- serving integration

using pilote::testing::MakeTestArtifact;

std::shared_ptr<serve::LearnerHandle> MakeHandle(
    const core::PiloteConfig& config) {
  Result<std::shared_ptr<serve::LearnerHandle>> handle =
      serve::LearnerHandle::Create(
          "pretrained", MakeTestArtifact(config.backbone), config);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return handle.value();
}

// The acceptance drill: exporter thread ticking at 5ms while three ingest
// threads push windows through the batching engine. Halfway through, the
// worker is parked for 5ms, so the windows queued behind it define the
// latency tail; one LearnNewClasses is then rejected by the
// "core/learn/begin" failpoint, whose fires the JSONL stream must carry.
TEST_F(TelemetryTest, ExporterRunsConcurrentlyWithServingIngest) {
  fail::ScopedFailpoints failpoints;
  ASSERT_TRUE(fail::FailpointRegistry::Global()
                  .Arm("core/learn/begin", fail::FailpointSpec::Once())
                  .ok());

  TelemetryOptions telemetry;
  telemetry.output_prefix = ::testing::TempDir() + "/telemetry_e2e";
  telemetry.interval_ms = 5;
  std::remove((telemetry.output_prefix + ".jsonl").c_str());
  TelemetryExporter exporter(telemetry);
  ASSERT_TRUE(exporter.Start().ok());

  const core::PiloteConfig config = core::PiloteConfig::Small();
  serve::ServeOptions options;
  options.max_batch = 4;
  options.max_delay_us = 500;
  options.queue_capacity = 256;
  constexpr int kThreads = 3;
  constexpr int kSessions = 4;
  constexpr int kWindowsPerThread = 60;
  std::atomic<int64_t> classified{0};
  std::atomic<int> halfway{0};
  std::atomic<bool> stalled{false};
  {
    serve::SessionManager manager(options);
    std::shared_ptr<serve::LearnerHandle> handle = MakeHandle(config);
    std::vector<serve::SessionId> ids;
    for (int s = 0; s < kSessions; ++s) {
      Result<serve::SessionId> id =
          manager.CreateSession(handle, config.streaming);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }

    std::vector<std::thread> ingest;
    for (int t = 0; t < kThreads; ++t) {
      ingest.emplace_back(
          [&manager, &ids, &config, &classified, &halfway, &stalled, t] {
            Rng rng(100 + t);
            std::vector<std::future<int>> futures;
            for (int w = 0; w < kWindowsPerThread; ++w) {
              if (w == kWindowsPerThread / 2) {
                halfway.fetch_add(1, std::memory_order_acq_rel);
                while (!stalled.load(std::memory_order_acquire)) {
                  std::this_thread::yield();
                }
              }
              const Tensor window = Tensor::RandNormal(
                  Shape::Matrix(1, config.backbone.input_dim), rng);
              while (true) {
                Result<std::future<int>> f = manager.SubmitWindow(
                    ids[static_cast<size_t>((t + w) % kSessions)], window);
                if (f.ok()) {
                  futures.push_back(std::move(f).value());
                  break;
                }
                ASSERT_EQ(f.status().code(), StatusCode::kResourceExhausted);
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
            }
            for (std::future<int>& f : futures) {
              f.get();
              classified.fetch_add(1, std::memory_order_relaxed);
            }
          });
    }

    // Mid-ingest stall: park the worker once every thread is halfway, let
    // the second halves queue behind it, and hold it for 5ms after the
    // first of them arrives.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (halfway.load(std::memory_order_acquire) < kThreads &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    manager.engine().PauseForTesting();
    stalled.store(true, std::memory_order_release);
    while (manager.engine().queue_depth() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    manager.engine().ResumeForTesting();
    for (std::thread& thread : ingest) thread.join();

    // A new class the failpoint rejects before any training starts.
    Rng rng(200);
    const data::Dataset d_new(
        Tensor::RandNormal(Shape::Matrix(8, config.backbone.input_dim), rng),
        std::vector<int>(8, 4));
    Result<core::TrainReport> learned =
        manager.LearnNewClasses(ids.front(), d_new);
    ASSERT_FALSE(learned.ok());
    EXPECT_EQ(learned.status().code(), StatusCode::kIoError);
  }
  exporter.Stop();
  ASSERT_GE(exporter.ticks_completed(), 1);
  const int64_t total = classified.load(std::memory_order_relaxed);
  ASSERT_EQ(total, kThreads * kWindowsPerThread);

  // The per-tick records partition the run: their serve/request_ms counts
  // add up to every classified window, none lost or counted twice between
  // ticks, and every tick that saw requests reports a tail quantile.
  const std::vector<std::string> lines =
      SplitLines(ReadFileOrEmpty(telemetry.output_prefix + ".jsonl"));
  ASSERT_EQ(static_cast<int64_t>(lines.size()), exporter.ticks_completed());
  int64_t recorded = 0;
  for (const std::string& line : lines) {
    const size_t at = line.find("\"serve/request_ms\":{",
                                line.find("\"histograms\":{"));
    if (at == std::string::npos) continue;  // before the first request
    const double count = NumberAfter(line, "\"count\":", at);
    recorded += static_cast<int64_t>(count);
    if (count > 0) {
      const double p99 = NumberAfter(line, "\"p99\":", at);
      const double p999 = NumberAfter(line, "\"p999\":", at);
      EXPECT_GT(p999, 0.0);
      EXPECT_GE(p999, p99);
      EXPECT_LE(p999, NumberAfter(line, "\"max\":", at));
    }
  }
  EXPECT_EQ(recorded, total);

  // Per-stage histograms are sum-consistent with the end-to-end latency:
  // every successful request recorded all three stages, and
  // queue_wait + batch_wait + predict <= request_ms request by request
  // (the stage clock stops at predict_end, the request clock after
  // completion), so the sums obey the same bound.
  HistogramFamily stage_ms = FamilyRegistry::Global().GetHistogramFamily(
      "serve/stage_ms", "stage", {"queue_wait", "batch_wait", "predict"});
  const HistogramSnapshot request =
      MetricsRegistry::Global().GetHistogram("serve/request_ms").Snapshot();
  ASSERT_EQ(request.count, total);
  double stage_sum = 0.0;
  for (size_t s = 0; s < 3; ++s) {
    const HistogramSnapshot snap = stage_ms.At(s).Snapshot();
    EXPECT_EQ(snap.count, total) << "stage slot " << s;
    stage_sum += snap.sum;
  }
  EXPECT_GT(stage_sum, 0.0);
  EXPECT_LE(stage_sum, request.sum * 1.0001 + 0.01);

  // At least one slow-window exemplar was captured for the stalled
  // windows: the 5ms queue wait dominates the tail, so the slowest
  // captured window carries it.
  EXPECT_GE(SlowWindows().recorded(), 1);
  std::vector<SlowWindowExemplar> exemplars = SlowWindows().Snapshot();
  ASSERT_FALSE(exemplars.empty());
  double slowest_ms = 0.0;
  for (const SlowWindowExemplar& e : exemplars) {
    EXPECT_GE(e.total_ms,
              e.queue_wait_ms + e.batch_wait_ms + e.predict_ms - 1e-6);
    slowest_ms = std::max(slowest_ms, e.total_ms);
  }
  EXPECT_GE(slowest_ms, 2.5);

  // The JSONL stream carries the exemplars and, cumulatively, the
  // failpoint's fires.
  const std::string& last = lines.back();
  EXPECT_NE(last.find("\"exemplars\":[{\"sequence\":"), std::string::npos);
  int64_t fires = -1;
  for (const fail::FailpointStats& stats :
       fail::FailpointRegistry::Global().Stats()) {
    if (stats.name == "core/learn/begin") fires = stats.fires;
  }
  EXPECT_GT(fires, 0);
  const size_t learn = last.find("\"core/learn/begin\":{\"armed\":true",
                                 last.find("\"failpoints\":{"));
  ASSERT_NE(learn, std::string::npos);
  EXPECT_EQ(NumberAfter(last, "\"fires\":", learn),
            static_cast<double>(fires));
}

}  // namespace
}  // namespace obs
}  // namespace pilote
