#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_tracker.h"
#include "har/feature_extractor.h"
#include "har/preprocessing.h"
#include "har/sensor_simulator.h"
#include "har/window_assembler.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace har {
namespace {

Tensor Denoise(const Tensor& recording, int half_width) {
  Tensor out;
  DenoiseMovingAverageInto(recording, half_width, &out);
  return out;
}

// Streams `recording` through a WindowAssembler and returns one raw
// feature row per completed window.
std::vector<Tensor> AssembleFeatures(const Tensor& recording,
                                     int denoise_half_width) {
  WindowAssembler assembler(kWindowLength, denoise_half_width);
  std::vector<Tensor> rows;
  Tensor features;
  for (int64_t t = 0; t < recording.rows(); ++t) {
    if (assembler.Append(RowAt(recording, t), &features)) {
      rows.push_back(features);
    }
  }
  return rows;
}

TEST(DenoiseTest, ZeroHalfWidthIsIdentity) {
  Tensor recording(Shape::Matrix(10, 3), 2.0f);
  recording(4, 1) = 100.0f;
  Tensor out = Denoise(recording, 0);
  EXPECT_TRUE(AllClose(out, recording, 0.0f, 0.0f));
}

TEST(DenoiseTest, SmoothsASpike) {
  Tensor recording(Shape::Matrix(9, 1), 0.0f);
  recording(4, 0) = 9.0f;
  Tensor out = Denoise(recording, 1);
  EXPECT_FLOAT_EQ(out(4, 0), 3.0f);  // (0 + 9 + 0) / 3
  EXPECT_FLOAT_EQ(out(3, 0), 3.0f);
  EXPECT_FLOAT_EQ(out(2, 0), 0.0f);
}

TEST(DenoiseTest, PreservesConstantSignal) {
  Tensor recording(Shape::Matrix(20, 2), 5.0f);
  Tensor out = Denoise(recording, 3);
  EXPECT_TRUE(AllClose(out, recording));
}

TEST(DenoiseTest, EdgesUseAvailableNeighborhood) {
  Tensor recording(Shape::Matrix(4, 1), {0.0f, 4.0f, 4.0f, 0.0f});
  Tensor out = Denoise(recording, 1);
  EXPECT_FLOAT_EQ(out(0, 0), 2.0f);  // (0 + 4) / 2
  EXPECT_FLOAT_EQ(out(3, 0), 2.0f);
}

TEST(RecordContinuousTest, ProducesRequestedLength) {
  SensorSimulator simulator(1);
  Recording recording = RecordContinuous(simulator, Activity::kWalk, 7);
  EXPECT_EQ(recording.samples.rows(), 7 * kWindowLength);
  EXPECT_EQ(recording.samples.cols(), kNumChannels);
  EXPECT_EQ(recording.activity, Activity::kWalk);
}

TEST(PreprocessTest, EndToEndShapes) {
  SensorSimulator simulator(2);
  Recording recording = RecordContinuous(simulator, Activity::kRun, 5);
  std::vector<Tensor> features =
      AssembleFeatures(recording.samples, /*denoise_half_width=*/1);
  ASSERT_EQ(features.size(), 5u);
  for (const Tensor& row : features) {
    EXPECT_EQ(row.rows(), 1);
    EXPECT_EQ(row.cols(), kNumFeatures);
  }
}

TEST(PreprocessTest, DenoisingReducesVarianceFeatures) {
  // Single-episode recording: within one episode the accelerometer is
  // stationary, so smoothing can only remove high-frequency noise.
  SensorSimulator simulator(3);
  Recording recording = RecordContinuous(simulator, Activity::kStill, 1);
  std::vector<Tensor> raw =
      AssembleFeatures(recording.samples, /*denoise_half_width=*/0);
  std::vector<Tensor> smooth =
      AssembleFeatures(recording.samples, /*denoise_half_width=*/3);
  ASSERT_EQ(raw.size(), 1u);
  ASSERT_EQ(smooth.size(), 1u);
  // Variance of the accelerometer x channel (feature index 1) must drop.
  EXPECT_LT(smooth[0](0, 1), raw[0](0, 1));
}

// The steady-state ingest of the device stream must not touch the heap:
// the window buffer and denoise scratch are allocated at construction, and
// the feature row is written into the caller's tensor, which keeps its
// storage from the first window on.
TEST(WindowAssemblerTest, SteadyStateAppendDoesNotAllocate) {
  SensorSimulator simulator(4);
  Recording recording = RecordContinuous(simulator, Activity::kWalk, 2);
  WindowAssembler assembler(kWindowLength, /*denoise_half_width=*/1);

  // Warm-up window: sizes the feature row and the denoise scratch.
  Tensor features;
  int completed = 0;
  for (int64_t t = 0; t < kWindowLength; ++t) {
    if (assembler.Append(RowAt(recording.samples, t), &features)) ++completed;
  }
  ASSERT_EQ(completed, 1);

  // Slice the next window's samples up front so the measured region is
  // Append only.
  std::vector<Tensor> samples;
  samples.reserve(static_cast<size_t>(kWindowLength));
  for (int64_t t = kWindowLength; t < 2 * kWindowLength; ++t) {
    samples.push_back(RowAt(recording.samples, t));
  }

  alloc::ScopedTracking tracking;
  alloc::AllocationScope scope;
  for (const Tensor& sample : samples) {
    if (assembler.Append(sample, &features)) ++completed;
  }
  EXPECT_EQ(scope.count(), 0) << "steady-state Append allocations regressed";
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(features.cols(), kNumFeatures);
}

}  // namespace
}  // namespace har
}  // namespace pilote
