// Tests of the deployment-facing pieces: full-artifact persistence
// (SaveArtifact/LoadArtifact) and the streaming classifier.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "common/alloc_tracker.h"
#include "core/artifact_io.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "core/streaming_classifier.h"
#include "har/har_dataset.h"
#include "har/preprocessing.h"
#include "har/window_assembler.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace pilote {
namespace core {
namespace {

using har::Activity;
using pilote::testing::MustMakeLearner;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class DeploymentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new State;
    state_->config = PiloteConfig::Small();
    state_->config.exemplars_per_class = 30;
    state_->config.pretrain.max_epochs = 8;
    state_->config.pretrain.batches_per_epoch = 48;

    har::HarDataGenerator generator(555);
    state_->d_old = generator.GenerateBalanced(
        100, {Activity::kDrive, Activity::kEscooter, Activity::kStill,
              Activity::kWalk});
    state_->test = generator.GenerateBalanced(
        30, {Activity::kDrive, Activity::kEscooter, Activity::kStill,
             Activity::kWalk});
    CloudPretrainer pretrainer(state_->config);
    Result<CloudPretrainResult> result = pretrainer.Run(state_->d_old);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    state_->artifact = std::move(result.value().artifact);
  }
  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  struct State {
    PiloteConfig config;
    data::Dataset d_old;
    data::Dataset test;
    CloudArtifact artifact;
  };
  static State* state_;
};

DeploymentTest::State* DeploymentTest::state_ = nullptr;

// ------------------------------------------------------------- Artifact IO

TEST_F(DeploymentTest, ArtifactRoundTripPreservesBehaviour) {
  const std::string path = TempPath("pilote_artifact_test.bin");
  ASSERT_TRUE(SaveArtifact(path, state_->artifact).ok());
  Result<CloudArtifact> loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->old_classes, state_->artifact.old_classes);
  EXPECT_EQ(loaded->backbone_config.hidden_dims,
            state_->artifact.backbone_config.hidden_dims);
  EXPECT_EQ(loaded->support.TotalExemplars(),
            state_->artifact.support.TotalExemplars());

  // A learner built from the loaded artifact predicts identically.
  std::unique_ptr<EdgeLearner> original =
      MustMakeLearner("pretrained", state_->artifact, state_->config);
  std::unique_ptr<EdgeLearner> restored =
      MustMakeLearner("pretrained", *loaded, state_->config);
  EXPECT_EQ(original->Predict(state_->test.features()),
            restored->Predict(state_->test.features()));
  std::remove(path.c_str());
}

TEST_F(DeploymentTest, ArtifactLoadRejectsGarbage) {
  const std::string path = TempPath("pilote_artifact_garbage.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "definitely not an artifact";
  }
  Result<CloudArtifact> loaded = LoadArtifact(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST_F(DeploymentTest, ArtifactLoadRejectsTruncation) {
  const std::string path = TempPath("pilote_artifact_trunc.bin");
  ASSERT_TRUE(SaveArtifact(path, state_->artifact).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) * 2 / 3);
  Result<CloudArtifact> loaded = LoadArtifact(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST_F(DeploymentTest, MissingArtifactFileIsIoError) {
  Result<CloudArtifact> loaded = LoadArtifact("/no/such/artifact.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------------------- Streaming

TEST_F(DeploymentTest, StreamingClassifierEmitsOnePredictionPerWindow) {
  std::unique_ptr<EdgeLearner> learner =
      MustMakeLearner("pretrained", state_->artifact, state_->config);
  StreamingClassifier::Options options;
  StreamingClassifier classifier(learner.get(), options);

  EXPECT_FALSE(classifier.CurrentActivity().ok());

  har::SensorSimulator sensors(77);
  har::Recording recording =
      har::RecordContinuous(sensors, Activity::kStill, 3);
  std::vector<int> predictions = classifier.PushBlock(recording.samples);
  EXPECT_EQ(predictions.size(), 3u);
  EXPECT_EQ(classifier.windows_classified(), 3);
  ASSERT_TRUE(classifier.CurrentActivity().ok());
}

TEST_F(DeploymentTest, StreamingClassifierRecognizesActivities) {
  std::unique_ptr<EdgeLearner> learner =
      MustMakeLearner("pretrained", state_->artifact, state_->config);
  StreamingClassifier::Options options;
  options.vote_window = 3;
  StreamingClassifier classifier(learner.get(), options);

  har::SensorSimulator sensors(78);
  har::Recording recording =
      har::RecordContinuous(sensors, Activity::kDrive, 6);
  std::vector<int> predictions = classifier.PushBlock(recording.samples);
  int correct = 0;
  for (int label : predictions) {
    if (label == har::ActivityLabel(Activity::kDrive)) ++correct;
  }
  EXPECT_GE(correct, 4) << "streamed Drive windows misclassified";
}

TEST_F(DeploymentTest, MajorityVoteSuppressesIsolatedFlips) {
  // The same recording through a raw stream (vote_window = 1) and a
  // smoothed one: the raw labels may contain isolated flips, but the
  // smoothed stream must flip no more often.
  std::unique_ptr<EdgeLearner> learner =
      MustMakeLearner("pretrained", state_->artifact, state_->config);
  StreamingClassifier::Options raw_options;
  raw_options.vote_window = 1;
  StreamingClassifier raw_stream(learner.get(), raw_options);
  StreamingClassifier::Options smoothed_options;
  smoothed_options.vote_window = 5;
  StreamingClassifier smoothed_stream(learner.get(), smoothed_options);

  har::SensorSimulator sensors(79);
  har::Recording walk = har::RecordContinuous(sensors, Activity::kWalk, 8);
  std::vector<int> raw = raw_stream.PushBlock(walk.samples);
  std::vector<int> smoothed = smoothed_stream.PushBlock(walk.samples);
  ASSERT_EQ(raw.size(), smoothed.size());

  auto transitions = [](const std::vector<int>& seq) {
    int count = 0;
    for (size_t i = 1; i < seq.size(); ++i) {
      if (seq[i] != seq[i - 1]) ++count;
    }
    return count;
  };
  EXPECT_LE(transitions(smoothed), transitions(raw));
}

TEST_F(DeploymentTest, PushSampleValidatesShape) {
  std::unique_ptr<EdgeLearner> learner =
      MustMakeLearner("pretrained", state_->artifact, state_->config);
  StreamingClassifier classifier(learner.get(), {});
  EXPECT_DEATH(classifier.PushSample(Tensor(Shape::Vector(5))),
               "CHECK failed");
}

TEST_F(DeploymentTest, VoteWindowOneIsRawStream) {
  // With vote_window = 1 every emitted label is the learner's own label
  // for that window's features, assembled exactly as the stream does.
  std::unique_ptr<EdgeLearner> learner =
      MustMakeLearner("pretrained", state_->artifact, state_->config);
  StreamingClassifier::Options options;
  options.vote_window = 1;
  StreamingClassifier classifier(learner.get(), options);
  har::SensorSimulator sensors(80);
  har::Recording recording =
      har::RecordContinuous(sensors, Activity::kEscooter, 4);
  std::vector<int> predictions = classifier.PushBlock(recording.samples);

  har::WindowAssembler assembler(options.window_length,
                                 options.denoise_half_width);
  Tensor features;
  std::vector<int> per_window;
  for (int64_t t = 0; t < recording.samples.rows(); ++t) {
    if (assembler.Append(RowAt(recording.samples, t), &features)) {
      per_window.push_back(learner->Predict(features).front());
    }
  }
  ASSERT_EQ(per_window.size(), 4u);
  EXPECT_EQ(predictions, per_window);
}

TEST_F(DeploymentTest, PushSampleAllocationsStayFlatOverLongStreams) {
  // A device streams for its whole uptime, so every window must cost the
  // allocator the same fixed count: nothing may grow with the number of
  // windows classified (a per-window history would reallocate at each
  // doubling).
  std::unique_ptr<EdgeLearner> learner =
      MustMakeLearner("pretrained", state_->artifact, state_->config);
  StreamingClassifier::Options options;
  StreamingClassifier classifier(learner.get(), options);
  har::SensorSimulator sensors(81);
  har::Recording recording =
      har::RecordContinuous(sensors, Activity::kWalk, 1);
  std::vector<Tensor> samples;
  for (int64_t t = 0; t < recording.samples.rows(); ++t) {
    samples.push_back(RowAt(recording.samples, t));
  }
  auto push_windows = [&classifier, &samples](int windows) {
    for (int w = 0; w < windows; ++w) {
      for (const Tensor& sample : samples) classifier.PushSample(sample);
    }
  };
  alloc::ScopedTracking track_allocs;
  push_windows(3);  // warm-up: scratch buffers and the plan's arena

  alloc::AllocationScope one_window;
  push_windows(1);
  const int64_t per_window = one_window.count();

  constexpr int kWindows = 1024;
  alloc::AllocationScope many_windows;
  push_windows(kWindows);
  EXPECT_EQ(many_windows.count(), kWindows * per_window)
      << "per-window allocations grew over " << kWindows << " windows";
  EXPECT_EQ(classifier.windows_classified(), 3 + 1 + kWindows);
}

}  // namespace
}  // namespace core
}  // namespace pilote
