// Quickstart: the smallest end-to-end PILOTE pipeline.
//
//   1. Generate simulated HAR feature data (the stand-in for the paper's
//      collected corpus).
//   2. Pre-train the siamese embedding model on four activities ("cloud").
//   3. Build a PILOTE learner from the artifact and integrate the fifth
//      activity from a handful of samples ("edge").
//   4. Classify fresh windows with the NCM classifier.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "har/har_dataset.h"

using pilote::core::CloudPretrainer;
using pilote::core::EdgeLearner;
using pilote::core::MakeEdgeLearner;
using pilote::core::PiloteConfig;
using pilote::har::Activity;
using pilote::har::ActivityName;
using pilote::har::HarDataGenerator;

int main() {
  // Small configuration so the example runs in seconds on one core; use
  // PiloteConfig::Paper() for the paper's [1024,512,128,64]->128 backbone.
  PiloteConfig config = PiloteConfig::Small();
  config.exemplars_per_class = 60;

  // ---- Cloud: pre-train on Drive / E-scooter / Still / Walk ----
  HarDataGenerator generator(/*seed=*/7);
  pilote::data::Dataset d_old = generator.GenerateBalanced(
      200, {Activity::kDrive, Activity::kEscooter, Activity::kStill,
            Activity::kWalk});
  CloudPretrainer pretrainer(config);
  pilote::Result<pilote::core::CloudPretrainResult> pretrain =
      pretrainer.Run(d_old);
  PILOTE_CHECK(pretrain.ok()) << pretrain.status().ToString();
  pilote::core::CloudPretrainResult cloud = std::move(pretrain).value();
  std::printf("pre-trained in %d epochs (val loss %.4f), transfer %lld B\n",
              cloud.report.epochs_completed, cloud.report.final_val_loss,
              static_cast<long long>(cloud.artifact.TransferBytes()));

  // ---- Edge: a new activity ('Run') arrives with 60 samples ----
  pilote::Result<std::unique_ptr<EdgeLearner>> made =
      MakeEdgeLearner("pilote", cloud.artifact, config);
  PILOTE_CHECK(made.ok()) << made.status().ToString();
  EdgeLearner& learner = **made;
  pilote::data::Dataset d_new = generator.Generate(Activity::kRun, 60);
  pilote::Result<pilote::core::TrainReport> learned =
      learner.LearnNewClasses(d_new);
  PILOTE_CHECK(learned.ok()) << learned.status().ToString();
  pilote::core::TrainReport report = std::move(learned).value();
  std::printf("incremental update: %d epochs, %.3f s/epoch\n",
              report.epochs_completed, report.mean_epoch_seconds);

  // ---- Inference on fresh windows of every activity ----
  pilote::data::Dataset probe = generator.GenerateBalanced(4);
  std::vector<int> predictions = learner.Predict(probe.features());
  int correct = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == probe.label(static_cast<int64_t>(i))) ++correct;
  }
  std::printf("\nfresh windows (true -> predicted):\n");
  for (size_t i = 0; i < predictions.size(); ++i) {
    std::printf("  %-10s -> %s\n",
                std::string(ActivityName(pilote::har::ActivityFromLabel(
                                probe.label(static_cast<int64_t>(i)))))
                    .c_str(),
                std::string(ActivityName(pilote::har::ActivityFromLabel(
                                predictions[i])))
                    .c_str());
  }
  std::printf("\naccuracy on %zu probes: %.2f\n", predictions.size(),
              static_cast<double>(correct) / predictions.size());
  return 0;
}
