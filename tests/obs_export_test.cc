// Exporter-format tests for obs/export.cc: JSON round trips of labeled
// and unlabeled series, empty-registry output, histogram delta edge cases
// at the export boundary, the unification of failpoint stats into the
// same snapshot and JSON as the metrics, and the bench flag parser.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "obs/export.h"
#include "obs/exporter.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pilote {
namespace obs {
namespace {

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTesting();
    FamilyRegistry::Global().ResetForTesting();
    ResetSpansForTesting();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    MetricsRegistry::Global().ResetForTesting();
    FamilyRegistry::Global().ResetForTesting();
    ResetSpansForTesting();
  }
};

// Must run before any test registers a series: ResetForTesting zeroes
// metrics in place but registrations are permanent by design (handles are
// cached in function-local statics), so a truly empty registry only exists
// at the start of the process.
TEST_F(ObsExportTest, EmptyRegistryProducesWellFormedOutput) {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  FamilyRegistry::Global().AppendTo(&snapshot);
  const std::string json = ToJson(snapshot);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{}"), std::string::npos);
}

TEST_F(ObsExportTest, LabeledSeriesRoundTripThroughJson) {
  CounterFamily degraded = FamilyRegistry::Global().GetCounterFamily(
      "test/degraded_total", "reason", {"deadline", "backpressure"});
  degraded.At(0).Add(3);
  degraded.At(1).Add(5);
  HistogramFamily stage = FamilyRegistry::Global().GetHistogramFamily(
      "test/stage_ms", "stage", {"predict"});
  stage.At(0).Record(2.0);

  MetricsSnapshot snapshot = CaptureSnapshot();
  const std::string json = ToJson(snapshot);
  EXPECT_NE(json.find("\"test/degraded_total{reason=\\\"deadline\\\"}\":3"),
            std::string::npos);
  EXPECT_NE(
      json.find("\"test/degraded_total{reason=\\\"backpressure\\\"}\":5"),
      std::string::npos);
  EXPECT_NE(json.find("\"test/stage_ms{stage=\\\"predict\\\"}\""),
            std::string::npos);
}

TEST_F(ObsExportTest, HistogramDeltaEdgeCasesAtExportBoundary) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test/delta_ms");
  hist.Record(1.0);
  const HistogramSnapshot before = hist.Snapshot();

  // No recordings in between: the delta is empty and exports as a
  // zero-count histogram with p999 present (0, not NaN/garbage).
  HistogramSnapshot empty_delta = Delta(before, hist.Snapshot());
  EXPECT_EQ(empty_delta.count, 0);
  MetricsSnapshot snapshot;
  snapshot.histograms.push_back({"test/delta_ms", "", empty_delta});
  std::string json = ToJson(snapshot);
  EXPECT_NE(json.find("\"count\":0"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":0"), std::string::npos);

  // Recordings in between: the delta carries only those, and the rendered
  // quantiles stay within the delta's observed range.
  hist.Record(8.0);
  hist.Record(8.0);
  HistogramSnapshot delta = Delta(before, hist.Snapshot());
  EXPECT_EQ(delta.count, 2);
  EXPECT_GE(delta.Percentile(0.50), delta.min);
  EXPECT_LE(delta.Percentile(0.999), delta.max);
  EXPECT_GE(delta.Percentile(0.999), delta.Percentile(0.99));
  snapshot.histograms[0].snapshot = delta;
  json = ToJson(snapshot);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":" + JsonNumber(delta.Percentile(0.999))),
            std::string::npos);
}

TEST_F(ObsExportTest, FailpointStatsUnifiedIntoSnapshotAndArtifacts) {
  fail::ScopedFailpoints scope;
  ASSERT_TRUE(fail::FailpointRegistry::Global()
                  .Arm("test/export_fp", fail::FailpointSpec::Always())
                  .ok());

  MetricsSnapshot snapshot = CaptureSnapshot();
  bool found = false;
  for (const FailpointSample& f : snapshot.failpoints) {
    if (f.name == "test/export_fp") {
      found = true;
      EXPECT_TRUE(f.armed);
    }
  }
  ASSERT_TRUE(found) << "failpoint stats not captured into the snapshot";

  // One chaos artifact: the same JSON that carries the metrics carries the
  // failpoint counters.
  const std::string json = ToJson(snapshot);
  EXPECT_NE(json.find("\"failpoints\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test/export_fp\":{\"armed\":true"),
            std::string::npos);
}

// The four observability flags are the process's only diagnostic switches:
// ConsumeMetricsFlags must apply each and hand every other argument back in
// order. Runs last: it leaves trace capture on and registers the at-exit
// metrics and trace writers (both aimed at the test's temp directory).
TEST_F(ObsExportTest, ConsumeMetricsFlagsAppliesOursAndReturnsTheRest) {
  SetEnabled(false);
  ASSERT_FALSE(TraceCaptureActive());
  ASSERT_EQ(GlobalTelemetry(), nullptr);
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> args = {
      "bench",
      "--unknown=1",
      "--metrics-json=" + dir + "/flags_metrics.json",
      "--benchmark_filter=x",
      "--trace-out=" + dir + "/flags_trace.json",
      "--telemetry-out=" + dir + "/flags_telemetry",
      "--telemetry-interval-ms=50",
      "positional"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());

  const int argc =
      ConsumeMetricsFlags(static_cast<int>(argv.size()), argv.data());

  ASSERT_EQ(argc, 4);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "--unknown=1");
  EXPECT_STREQ(argv[2], "--benchmark_filter=x");
  EXPECT_STREQ(argv[3], "positional");
  EXPECT_TRUE(Enabled());
  EXPECT_TRUE(TraceCaptureActive());
  TelemetryExporter* telemetry = GlobalTelemetry();
  ASSERT_NE(telemetry, nullptr);
  EXPECT_EQ(telemetry->options().output_prefix, dir + "/flags_telemetry");
  EXPECT_EQ(telemetry->options().interval_ms, 50);
  StopGlobalTelemetry();
  EXPECT_EQ(GlobalTelemetry(), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace pilote
