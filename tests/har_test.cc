#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "har/activity.h"
#include "har/feature_extractor.h"
#include "har/har_dataset.h"
#include "har/sensor_layout.h"
#include "har/sensor_simulator.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace har {
namespace {

// Mean of one channel over a window.
double ChannelMean(const Tensor& window, int channel) {
  double sum = 0.0;
  for (int64_t t = 0; t < window.rows(); ++t) sum += window(t, channel);
  return sum / static_cast<double>(window.rows());
}

double ChannelVar(const Tensor& window, int channel) {
  const double mu = ChannelMean(window, channel);
  double acc = 0.0;
  for (int64_t t = 0; t < window.rows(); ++t) {
    const double d = window(t, channel) - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(window.rows());
}

// Mean over several windows of a per-window statistic.
template <typename Fn>
double MeanOverWindows(SensorSimulator& sim, Activity activity, int count,
                       Fn fn) {
  double total = 0.0;
  for (int i = 0; i < count; ++i) total += fn(sim.GenerateWindow(activity));
  return total / count;
}

// ---------------------------------------------------------------- Activity

TEST(ActivityTest, NamesAndLabelsRoundTrip) {
  for (Activity activity : AllActivities()) {
    EXPECT_EQ(ActivityFromLabel(ActivityLabel(activity)), activity);
  }
  EXPECT_EQ(ActivityName(Activity::kRun), "Run");
  EXPECT_EQ(ActivityName(Activity::kEscooter), "E-scooter");
  EXPECT_EQ(static_cast<int>(AllActivities().size()), kNumActivities);
}

TEST(ActivityDeathTest, BadLabelIsFatal) {
  EXPECT_DEATH(ActivityFromLabel(9), "label");
}

// ---------------------------------------------------------------- Simulator

TEST(SensorSimulatorTest, WindowShape) {
  SensorSimulator sim(1);
  Tensor window = sim.GenerateWindow(Activity::kWalk);
  EXPECT_EQ(window.rows(), kWindowLength);
  EXPECT_EQ(window.cols(), kNumChannels);
}

TEST(SensorSimulatorTest, DeterministicForSeed) {
  SensorSimulator a(42);
  SensorSimulator b(42);
  Tensor wa = a.GenerateWindow(Activity::kRun);
  Tensor wb = b.GenerateWindow(Activity::kRun);
  EXPECT_TRUE(AllClose(wa, wb, 0.0f, 0.0f));
}

TEST(SensorSimulatorTest, EpisodesDifferWithinOneStream) {
  SensorSimulator sim(7);
  Tensor w1 = sim.GenerateWindow(Activity::kWalk);
  Tensor w2 = sim.GenerateWindow(Activity::kWalk);
  EXPECT_FALSE(AllClose(w1, w2));
}

TEST(SensorSimulatorTest, GravityMagnitudeIsPhysical) {
  SensorSimulator sim(3);
  Tensor window = sim.GenerateWindow(Activity::kStill);
  for (int64_t t = 0; t < window.rows(); ++t) {
    const double gx = window(t, kGravity + 0);
    const double gy = window(t, kGravity + 1);
    const double gz = window(t, kGravity + 2);
    EXPECT_NEAR(std::sqrt(gx * gx + gy * gy + gz * gz), 9.81, 0.25);
  }
}

TEST(SensorSimulatorTest, RunIsMoreDynamicThanStill) {
  SensorSimulator sim(4);
  const double run_var = MeanOverWindows(
      sim, Activity::kRun, 20,
      [](const Tensor& w) { return ChannelVar(w, kLinearAcceleration + 2); });
  const double still_var = MeanOverWindows(
      sim, Activity::kStill, 20,
      [](const Tensor& w) { return ChannelVar(w, kLinearAcceleration + 2); });
  EXPECT_GT(run_var, 10.0 * still_var);
}

TEST(SensorSimulatorTest, SpeedOrderingDriveFastestStillSlowest) {
  SensorSimulator sim(5);
  auto mean_speed = [&](Activity a) {
    return MeanOverWindows(sim, a, 20, [](const Tensor& w) {
      return ChannelMean(w, kGpsSpeed);
    });
  };
  const double drive = mean_speed(Activity::kDrive);
  const double scooter = mean_speed(Activity::kEscooter);
  const double run = mean_speed(Activity::kRun);
  const double walk = mean_speed(Activity::kWalk);
  const double still = mean_speed(Activity::kStill);
  EXPECT_GT(drive, scooter);
  EXPECT_GT(scooter, run);
  EXPECT_GT(run, walk);
  EXPECT_GT(walk, still);
}

TEST(SensorSimulatorTest, RunAndWalkOverlapMoreThanRunAndDrive) {
  // The Run/Walk gait ranges are designed to overlap: the gap between
  // their mean dynamics should be far smaller than Run vs Drive's speed
  // gap, relative to spread. A cheap proxy: vertical linear-acc variance.
  SensorSimulator sim(6);
  auto dyn = [&](Activity a) {
    return MeanOverWindows(sim, a, 30, [](const Tensor& w) {
      return ChannelVar(w, kLinearAcceleration + 2);
    });
  };
  const double run = dyn(Activity::kRun);
  const double walk = dyn(Activity::kWalk);
  const double drive = dyn(Activity::kDrive);
  EXPECT_LT(std::abs(run - walk), std::abs(run - drive) * 1.5);
  EXPECT_GT(run, walk);  // but Run is still the more dynamic one
}

TEST(SensorSimulatorTest, DriveDistortsMagnetometer) {
  SensorSimulator sim(8);
  auto mag_x = [&](Activity a) {
    return MeanOverWindows(sim, a, 30, [](const Tensor& w) {
      return ChannelMean(w, kMagnetometer);
    });
  };
  // The car-body offset biases the x-field upward on average.
  EXPECT_GT(mag_x(Activity::kDrive), mag_x(Activity::kStill) + 5.0);
}

// ---------------------------------------------------------------- Drift

TEST(SensorDriftTest, IdentityByDefault) {
  EXPECT_TRUE(SensorDrift{}.IsIdentity());
  SensorDrift drift;
  drift.accel_offset[1] = 0.5;
  EXPECT_FALSE(drift.IsIdentity());
  SensorDrift scaled;
  scaled.gait_amp_scale = 1.2;
  EXPECT_FALSE(scaled.IsIdentity());
}

TEST(SensorDriftTest, ZeroMagnitudeDriftIsBitIdentical) {
  // Installing the identity drift must not perturb the stream at all:
  // same seed, same activities, byte-for-byte identical windows.
  SensorSimulator plain(77);
  SensorSimulator drifted(77);
  drifted.SetDrift(SensorDrift{});
  for (Activity activity : AllActivities()) {
    Tensor a = plain.GenerateWindow(activity);
    Tensor b = drifted.GenerateWindow(activity);
    ASSERT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<size_t>(a.numel())),
              0)
        << ActivityName(activity);
  }
}

TEST(SensorDriftTest, ClearDriftResumesUndriftedStream) {
  // Drift application consumes no randomness, so clearing it resumes the
  // exact undrifted sequence: window k of a simulator that was drifted
  // for windows 0..k-1 matches window k of a never-drifted twin.
  SensorSimulator plain(78);
  SensorSimulator toggled(78);
  SensorDrift drift;
  drift.accel_offset[0] = 2.0;
  toggled.SetDrift(drift);
  for (int i = 0; i < 3; ++i) {
    (void)plain.GenerateWindow(Activity::kWalk);
    (void)toggled.GenerateWindow(Activity::kWalk);
  }
  toggled.ClearDrift();
  Tensor a = plain.GenerateWindow(Activity::kWalk);
  Tensor b = toggled.GenerateWindow(Activity::kWalk);
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0);
}

TEST(SensorDriftTest, RecalibrationOffsetShiftsChannelMeans) {
  SensorDrift drift;
  drift.accel_offset[0] = 1.5;
  drift.gyro_offset[2] = -0.3;
  drift.mag_offset[1] = 8.0;
  drift.baro_offset = 5.0;
  // Same seed on both sides: drift consumes no RNG, so every episode is
  // identical and the mean shift equals the offset exactly (up to float
  // rounding of the per-sample addition).
  SensorSimulator plain(79);
  SensorSimulator drifted(79);
  drifted.SetDrift(drift);
  const int kWindows = 20;
  auto means = [&](SensorSimulator& sim, int channel) {
    return MeanOverWindows(sim, Activity::kStill, kWindows,
                           [channel](const Tensor& w) {
                             return ChannelMean(w, channel);
                           });
  };
  EXPECT_NEAR(means(drifted, kAccelerometer + 0) - means(plain, kAccelerometer + 0),
              1.5, 1e-3);
  EXPECT_NEAR(means(drifted, kGyroscope + 2) - means(plain, kGyroscope + 2),
              -0.3, 1e-3);
  EXPECT_NEAR(means(drifted, kMagnetometer + 1) - means(plain, kMagnetometer + 1),
              8.0, 1e-3);
  EXPECT_NEAR(means(drifted, kBarometer) - means(plain, kBarometer), 5.0,
              1e-3);
}

TEST(SensorDriftTest, NoiseFloorScaleRaisesVariance) {
  SensorDrift drift;
  drift.noise_floor_scale = 3.0;
  SensorSimulator plain(80);
  SensorSimulator drifted(80);
  drifted.SetDrift(drift);
  auto var = [&](SensorSimulator& sim) {
    return MeanOverWindows(sim, Activity::kStill, 30, [](const Tensor& w) {
      return ChannelVar(w, kLinearAcceleration + 0);
    });
  };
  // Identical episodes (same seed, no extra RNG draws), 3x the noise
  // sigma: the linear-acceleration variance must rise clearly.
  EXPECT_GT(var(drifted), 2.0 * var(plain));
}

TEST(SensorDriftTest, GaitShiftMovesAmplitudeAndSpeedInAssertedDirection) {
  SensorDrift drift;
  drift.gait_amp_scale = 2.0;
  drift.speed_scale = 1.6;
  SensorSimulator plain(81);
  SensorSimulator drifted(81);
  drifted.SetDrift(drift);
  const int kWindows = 30;
  auto dyn = [&](SensorSimulator& sim) {
    return MeanOverWindows(sim, Activity::kWalk, kWindows,
                           [](const Tensor& w) {
                             return ChannelVar(w, kLinearAcceleration + 2);
                           });
  };
  auto speed = [&](SensorSimulator& sim) {
    return MeanOverWindows(sim, Activity::kWalk, kWindows,
                           [](const Tensor& w) {
                             return ChannelMean(w, kGpsSpeed);
                           });
  };
  EXPECT_GT(dyn(drifted), 1.5 * dyn(plain));
  EXPECT_GT(speed(drifted), 1.2 * speed(plain));
}

TEST(SensorDriftTest, UserProfileIsDeterministicAndScalesWithSeverity) {
  SensorDrift a = SensorDrift::UserProfile(1234, 1.0);
  SensorDrift b = SensorDrift::UserProfile(1234, 1.0);
  EXPECT_EQ(a.gait_freq_scale, b.gait_freq_scale);
  EXPECT_EQ(a.accel_offset[0], b.accel_offset[0]);
  EXPECT_FALSE(a.IsIdentity());
  EXPECT_TRUE(SensorDrift::UserProfile(1234, 0.0).IsIdentity());
  // Different users get different profiles.
  SensorDrift c = SensorDrift::UserProfile(99, 1.0);
  EXPECT_NE(a.gait_freq_scale, c.gait_freq_scale);
  // Severity shrinks the deviation from identity.
  SensorDrift mild = SensorDrift::UserProfile(1234, 0.1);
  EXPECT_LT(std::abs(mild.gait_freq_scale - 1.0),
            std::abs(a.gait_freq_scale - 1.0));
}

// ---------------------------------------------------------------- Features

TEST(FeatureExtractorTest, OutputLengthAndNames) {
  EXPECT_EQ(kNumFeatures, 80);
  EXPECT_EQ(FeatureNames().size(), 80u);
  EXPECT_EQ(FeatureNames()[0], "acc_x_mean");
  EXPECT_EQ(FeatureNames()[1], "acc_x_var");
  EXPECT_EQ(FeatureNames()[44], "acc_x_jerk_mean");
  EXPECT_EQ(FeatureNames().back(), "yaw_jerk_var");
}

TEST(FeatureExtractorTest, ConstantWindowHasZeroVarianceAndJerk) {
  Tensor window(Shape::Matrix(kWindowLength, kNumChannels), 2.5f);
  Tensor features = ExtractFeatures(window);
  for (int c = 0; c < kNumChannels; ++c) {
    EXPECT_FLOAT_EQ(features[2 * c], 2.5f);      // mean
    EXPECT_FLOAT_EQ(features[2 * c + 1], 0.0f);  // var
  }
  for (int64_t f = 44; f < kNumFeatures; ++f) {
    EXPECT_FLOAT_EQ(features[f], 0.0f);  // jerk stats
  }
}

TEST(FeatureExtractorTest, LinearRampHasConstantJerk) {
  // channel value = t => jerk = kSampleRateHz everywhere, jerk var = 0.
  Tensor window(Shape::Matrix(kWindowLength, kNumChannels));
  for (int64_t t = 0; t < kWindowLength; ++t) {
    for (int c = 0; c < kNumChannels; ++c) {
      window(t, c) = static_cast<float>(t);
    }
  }
  Tensor features = ExtractFeatures(window);
  EXPECT_NEAR(features[44], kSampleRateHz, 1e-2f);  // acc_x jerk mean
  EXPECT_NEAR(features[45], 0.0f, 1e-2f);           // acc_x jerk var
}

TEST(FeatureExtractorTest, KnownMeanVariance) {
  Tensor window(Shape::Matrix(kWindowLength, kNumChannels));
  // Alternate 0/2 in channel 0: mean 1, var 1.
  for (int64_t t = 0; t < kWindowLength; ++t) {
    window(t, 0) = (t % 2 == 0) ? 0.0f : 2.0f;
  }
  Tensor features = ExtractFeatures(window);
  EXPECT_NEAR(features[0], 1.0f, 1e-5f);
  EXPECT_NEAR(features[1], 1.0f, 1e-5f);
}

TEST(FeatureExtractorTest, WrongChannelCountIsFatal) {
  Tensor window(Shape::Matrix(kWindowLength, 5));
  EXPECT_DEATH(ExtractFeatures(window), "CHECK failed");
}

// ---------------------------------------------------------------- Generator

TEST(HarDataGeneratorTest, GenerateShapesAndLabels) {
  HarDataGenerator gen(10);
  data::Dataset ds = gen.Generate(Activity::kRun, 12);
  EXPECT_EQ(ds.size(), 12);
  EXPECT_EQ(ds.num_features(), kNumFeatures);
  for (int64_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds.label(i), ActivityLabel(Activity::kRun));
  }
}

TEST(HarDataGeneratorTest, BalancedCoversAllActivities) {
  HarDataGenerator gen(11);
  data::Dataset ds = gen.GenerateBalanced(4);
  EXPECT_EQ(ds.size(), 4 * kNumActivities);
  for (const auto& [label, count] : ds.ClassCounts()) {
    EXPECT_EQ(count, 4) << "label " << label;
  }
}

TEST(HarDataGeneratorTest, SubsetOfActivities) {
  HarDataGenerator gen(12);
  data::Dataset ds =
      gen.GenerateBalanced(3, {Activity::kWalk, Activity::kRun});
  EXPECT_EQ(ds.size(), 6);
  EXPECT_EQ(ds.Classes(),
            (std::vector<int>{ActivityLabel(Activity::kRun),
                              ActivityLabel(Activity::kWalk)}));
}

TEST(HarDataGeneratorTest, FeaturesSeparateEasyClassesOnAverage) {
  // The GPS-speed mean feature separates Drive from Still in expectation
  // (not pointwise: ~35% of episodes have no GPS fix and read ~0).
  HarDataGenerator gen(13);
  data::Dataset drive = gen.Generate(Activity::kDrive, 40);
  data::Dataset still = gen.Generate(Activity::kStill, 40);
  const int64_t f = 2 * kGpsSpeed;
  double drive_mean = 0.0;
  double still_mean = 0.0;
  for (int64_t i = 0; i < 40; ++i) {
    drive_mean += drive.features()(i, f);
    still_mean += still.features()(i, f);
  }
  EXPECT_GT(drive_mean / 40.0, still_mean / 40.0 + 3.0);
}

TEST(HarDataGeneratorTest, GpsDropoutProducesZeroSpeedDriveWindows) {
  // Some Drive windows must read near-zero speed (no GPS fix) — the
  // realistic failure mode that keeps speed from being a perfect
  // discriminator.
  HarDataGenerator gen(14);
  data::Dataset drive = gen.Generate(Activity::kDrive, 60);
  const int64_t f = 2 * kGpsSpeed;
  int dropouts = 0;
  for (int64_t i = 0; i < 60; ++i) {
    if (drive.features()(i, f) < 1.0f) ++dropouts;
  }
  EXPECT_GT(dropouts, 5);
  EXPECT_LT(dropouts, 40);
}

}  // namespace
}  // namespace har
}  // namespace pilote
