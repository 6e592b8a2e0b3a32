// Simulates deploying PILOTE onto a storage-constrained edge device:
// the cloud artifact is transferred as bytes, the exemplar cache must fit
// a device budget (Algo 1's cache size K, with optional int8 compression),
// and the device reports its storage and allocation profile after an
// incremental update (the paper's Q2; perfbench measures its latency).
//
// Build & run:  ./build/examples/edge_device_sim
#include <cstdio>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "core/edge_profile.h"
#include "har/har_dataset.h"
#include "serialize/quantize.h"

using pilote::core::CloudPretrainer;
using pilote::core::EdgeLearner;
using pilote::core::MakeEdgeLearner;
using pilote::core::PiloteConfig;
using pilote::har::Activity;
using pilote::serialize::QuantMode;

int main() {
  PiloteConfig config = PiloteConfig::Small();
  config.exemplars_per_class = 150;

  pilote::har::HarDataGenerator generator(99);
  pilote::data::Dataset d_old = generator.GenerateBalanced(
      300, {Activity::kDrive, Activity::kEscooter, Activity::kStill,
            Activity::kWalk});
  pilote::data::Dataset test = generator.GenerateBalanced(60);

  CloudPretrainer pretrainer(config);
  pilote::Result<pilote::core::CloudPretrainResult> pretrain =
      pretrainer.Run(d_old);
  PILOTE_CHECK(pretrain.ok()) << pretrain.status().ToString();
  pilote::core::CloudPretrainResult cloud = std::move(pretrain).value();
  std::printf("cloud -> edge transfer: %lld bytes (model %zu B + support)\n\n",
              static_cast<long long>(cloud.artifact.TransferBytes()),
              cloud.artifact.model_payload.size());

  // ---- The device enforces a cache budget: K = 240 exemplars total ----
  pilote::Result<std::unique_ptr<EdgeLearner>> made =
      MakeEdgeLearner("pilote", cloud.artifact, config);
  PILOTE_CHECK(made.ok()) << made.status().ToString();
  EdgeLearner& learner = **made;
  std::printf("support set as shipped: %lld exemplars, %lld B fp32\n",
              static_cast<long long>(learner.support().TotalExemplars()),
              static_cast<long long>(
                  learner.support().StorageBytes(QuantMode::kFloat32)));
  learner.EnforceSupportBudget(240);  // m = 240 / 4 = 60
  std::printf("after EnforceCacheSize(240): %lld exemplars (%lld/class)\n",
              static_cast<long long>(learner.support().TotalExemplars()),
              static_cast<long long>(learner.support().CountForClass(0)));

  // ---- Store the cache compressed (int8), as the paper's device does ----
  const int64_t fp32 = learner.support().StorageBytes(QuantMode::kFloat32);
  const int64_t int8 = learner.support().StorageBytes(QuantMode::kInt8);
  std::printf("cache storage: %lld B fp32 -> %lld B int8 (%.1fx smaller)\n",
              static_cast<long long>(fp32), static_cast<long long>(int8),
              static_cast<double>(fp32) / static_cast<double>(int8));
  pilote::Status applied = learner.ApplySupportSetUpdate(
      learner.support().QuantizeRoundTrip(QuantMode::kInt8));
  PILOTE_CHECK(applied.ok()) << applied.ToString();
  std::printf("accuracy with compressed cache (4 classes): %.4f\n\n",
              learner.Evaluate(test.FilterByClasses({0, 1, 3, 4})));

  // ---- A new activity arrives; profile the device afterwards ----
  pilote::data::Dataset d_new = generator.Generate(Activity::kRun, 50);
  pilote::Result<pilote::core::TrainReport> learned =
      learner.LearnNewClasses(d_new);
  PILOTE_CHECK(learned.ok()) << learned.status().ToString();
  pilote::core::TrainReport report = std::move(learned).value();
  std::printf("incremental update: %d epochs, %.3f s/epoch\n\n",
              report.epochs_completed, report.mean_epoch_seconds);

  pilote::core::EdgeProfileReport profile =
      pilote::core::ProfileEdge(learner, test.features(), &report);
  std::printf("device profile after update:\n%s\n\n",
              profile.ToString().c_str());
  std::printf("5-class accuracy: %.4f\n", learner.Evaluate(test));
  return 0;
}
