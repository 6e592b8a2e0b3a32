// Class-incremental learning over a stream: the device starts with three
// activities, then meets two new ones, one after the other. Each new
// activity arrives as a CONTINUOUS sensor recording that goes through the
// on-device preprocessing pipeline (1 s segmentation -> per-window
// denoise -> 80-feature extraction, har::WindowAssembler) before PILOTE
// integrates it. After every step the program reports accuracy over all
// classes known so far.
//
// Build & run:  ./build/examples/continual_stream
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "eval/metrics.h"
#include "har/har_dataset.h"
#include "har/preprocessing.h"
#include "har/window_assembler.h"
#include "tensor/tensor_ops.h"

using pilote::core::CloudPretrainer;
using pilote::core::EdgeLearner;
using pilote::core::MakeEdgeLearner;
using pilote::core::PiloteConfig;
using pilote::har::Activity;
using pilote::har::ActivityLabel;
using pilote::har::ActivityName;

namespace {

// Records `seconds` of the activity and streams it through the device's
// window assembler, one sample at a time.
pilote::data::Dataset CaptureActivity(
    pilote::har::SensorSimulator& simulator, Activity activity, int seconds,
    const pilote::core::StreamingOptions& streaming) {
  pilote::har::Recording recording =
      pilote::har::RecordContinuous(simulator, activity, seconds);
  pilote::har::WindowAssembler assembler(streaming.window_length,
                                         streaming.denoise_half_width);
  std::vector<pilote::Tensor> rows;
  pilote::Tensor features;
  for (int64_t t = 0; t < recording.samples.rows(); ++t) {
    if (assembler.Append(pilote::RowAt(recording.samples, t), &features)) {
      rows.push_back(features);
    }
  }
  std::vector<int> labels(rows.size(), ActivityLabel(activity));
  return pilote::data::Dataset(pilote::ConcatRows(rows), std::move(labels));
}

void ReportKnownClasses(EdgeLearner& learner,
                        const pilote::data::Dataset& test) {
  pilote::data::Dataset known = test.FilterByClasses(learner.known_classes());
  std::vector<int> predictions = learner.Predict(known.features());
  auto per_class = pilote::eval::PerClassAccuracy(predictions, known.labels());
  std::printf("  overall %.4f |",
              pilote::eval::Accuracy(predictions, known.labels()));
  for (const auto& [label, accuracy] : per_class) {
    std::printf(" %s %.2f",
                std::string(ActivityName(pilote::har::ActivityFromLabel(label)))
                    .c_str(),
                accuracy);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PiloteConfig config = PiloteConfig::Small();
  config.exemplars_per_class = 80;

  // The same preprocessing (segment -> denoise -> features) runs on the
  // cloud and on the edge — the paper's Sec 5 requirement — so the cloud
  // corpus and the test stream go through CaptureActivity too.
  pilote::har::SensorSimulator cloud_sensors(31337);
  pilote::har::SensorSimulator stream(4242);  // the device's live sensors

  // ---- Cloud phase: Drive / Still / Walk ----
  std::vector<pilote::data::Dataset> old_parts;
  for (Activity activity :
       {Activity::kDrive, Activity::kStill, Activity::kWalk}) {
    old_parts.push_back(
        CaptureActivity(cloud_sensors, activity, 300, config.streaming));
  }
  pilote::data::Dataset d_old = pilote::data::Dataset::Concat(old_parts);
  CloudPretrainer pretrainer(config);
  pilote::Result<pilote::core::CloudPretrainResult> pretrain =
      pretrainer.Run(d_old);
  PILOTE_CHECK(pretrain.ok()) << pretrain.status().ToString();
  pilote::core::CloudPretrainResult cloud = std::move(pretrain).value();
  pilote::Result<std::unique_ptr<EdgeLearner>> made =
      MakeEdgeLearner("pilote", cloud.artifact, config);
  PILOTE_CHECK(made.ok()) << made.status().ToString();
  EdgeLearner& learner = **made;

  std::vector<pilote::data::Dataset> test_parts;
  for (Activity activity : pilote::har::AllActivities()) {
    test_parts.push_back(
        CaptureActivity(cloud_sensors, activity, 60, config.streaming));
  }
  pilote::data::Dataset test = pilote::data::Dataset::Concat(test_parts);
  std::printf("step 0: shipped with 3 activities\n");
  ReportKnownClasses(learner, test);

  // ---- The user buys an e-scooter (90 s of riding recorded) ----
  std::printf("\nstep 1: 90 s of 'E-scooter' recorded on the device\n");
  pilote::data::Dataset scooter =
      CaptureActivity(stream, Activity::kEscooter, 90, config.streaming);
  pilote::Result<pilote::core::TrainReport> learned1 =
      learner.LearnNewClasses(scooter);
  PILOTE_CHECK(learned1.ok()) << learned1.status().ToString();
  pilote::core::TrainReport r1 = std::move(learned1).value();
  std::printf("  learned in %d epochs (%.3f s/epoch)\n",
              r1.epochs_completed, r1.mean_epoch_seconds);
  ReportKnownClasses(learner, test);

  // ---- The user takes up jogging (60 s recorded) ----
  std::printf("\nstep 2: 60 s of 'Run' recorded on the device\n");
  pilote::data::Dataset run =
      CaptureActivity(stream, Activity::kRun, 60, config.streaming);
  pilote::Result<pilote::core::TrainReport> learned2 =
      learner.LearnNewClasses(run);
  PILOTE_CHECK(learned2.ok()) << learned2.status().ToString();
  pilote::core::TrainReport r2 = std::move(learned2).value();
  std::printf("  learned in %d epochs (%.3f s/epoch)\n",
              r2.epochs_completed, r2.mean_epoch_seconds);
  ReportKnownClasses(learner, test);

  std::printf(
      "\nThe support set now holds %lld exemplars across %lld classes;\n"
      "each step distilled from the previous model, so the early classes\n"
      "survive two rounds of incremental learning.\n",
      static_cast<long long>(learner.support().TotalExemplars()),
      static_cast<long long>(learner.support().NumClasses()));
  return 0;
}
