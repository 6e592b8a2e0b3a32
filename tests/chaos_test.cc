// Deterministic chaos suite: every registered failpoint is driven through
// the full device lifecycle — cloud pretrain, artifact save/load,
// incremental learning, support-set update, serving — and must surface as
// a clean Status with verified rollback, never a crash, torn state or
// garbage read. A clean rerun after each injected fault must match the
// fault-free baseline bit for bit. Runs under ASan/UBSan in CI (label
// "chaos"), where the sanitizers double as the no-UB oracle.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/artifact_io.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "har/har_dataset.h"
#include "obs/metrics.h"
#include "serve/learner_handle.h"
#include "serve/session_manager.h"
#include "serve/types.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace {

using core::CloudArtifact;
using core::PiloteConfig;
using fail::FailpointRegistry;
using fail::FailpointSpec;
using fail::FailpointStats;
using har::Activity;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// One cloud pretrain shared by every drill: each cycle re-loads the
// artifact from disk and builds a fresh learner, so reusing the artifact
// loses no coverage while keeping the per-failpoint iteration cheap.
class ChaosTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    state_ = new State();
    state_->config = PiloteConfig::Small();
    state_->config.exemplars_per_class = 20;
    har::HarDataGenerator generator(1234);
    data::Dataset d_old = generator.GenerateBalanced(
        60, {Activity::kDrive, Activity::kEscooter, Activity::kStill,
             Activity::kWalk});
    state_->d_new = generator.Generate(Activity::kRun, 30);
    state_->probe = generator.GenerateBalanced(8).features();
    core::CloudPretrainer pretrainer(state_->config);
    Result<core::CloudPretrainResult> pretrain = pretrainer.Run(d_old);
    PILOTE_CHECK(pretrain.ok()) << pretrain.status().ToString();
    state_->artifact = std::move(pretrain).value().artifact;
  }

  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  struct State {
    PiloteConfig config;
    CloudArtifact artifact;
    data::Dataset d_new;
    Tensor probe;
  };
  static State* state_;
};

ChaosTest::State* ChaosTest::state_ = nullptr;

// Runs one full save -> load -> learn -> support-update -> serve cycle.
// Returns the first non-OK Status; at every fallible stage the rollback
// contract is asserted in place (failed learner mutations must leave the
// class list and the predictions on `probe` untouched).
Status RunCycle(const ChaosTest::State& state, const std::string& path,
                std::vector<int>* predictions_out) {
  PILOTE_RETURN_IF_ERROR(core::SaveArtifact(path, state.artifact));
  Result<CloudArtifact> loaded = core::LoadArtifact(path);
  PILOTE_RETURN_IF_ERROR(loaded.status());
  Result<std::unique_ptr<core::EdgeLearner>> made =
      core::MakeEdgeLearner("pretrained", loaded.value(), state.config);
  PILOTE_RETURN_IF_ERROR(made.status());
  std::unique_ptr<core::EdgeLearner> learner = std::move(made).value();

  const std::vector<int> pre_known = learner->known_classes();
  const std::vector<int> pre_predictions = learner->Predict(state.probe);
  Result<core::TrainReport> learned = learner->LearnNewClasses(state.d_new);
  if (!learned.ok()) {
    EXPECT_EQ(learner->known_classes(), pre_known)
        << "failed LearnNewClasses must roll back the class list";
    EXPECT_EQ(learner->Predict(state.probe), pre_predictions)
        << "failed LearnNewClasses must roll back model/prototype state";
    return learned.status();
  }

  const std::vector<int> post_known = learner->known_classes();
  const std::vector<int> post_predictions = learner->Predict(state.probe);
  Status applied = learner->ApplySupportSetUpdate(learner->support());
  if (!applied.ok()) {
    EXPECT_EQ(learner->known_classes(), post_known)
        << "failed ApplySupportSetUpdate must leave the learner untouched";
    EXPECT_EQ(learner->Predict(state.probe), post_predictions)
        << "failed ApplySupportSetUpdate must leave the classifier untouched";
    return applied;
  }

  serve::LearnerHandle handle(std::move(learner));
  std::vector<int> served;
  PILOTE_RETURN_IF_ERROR(handle.TryPredictBatch(
      state.probe, [&served](const std::vector<int>& labels, int64_t) {
        served = labels;
      }));
  if (predictions_out != nullptr) *predictions_out = served;
  return Status::Ok();
}

int64_t FiresFor(const std::string& name) {
  for (const FailpointStats& stats : FailpointRegistry::Global().Stats()) {
    if (stats.name == name) return stats.fires;
  }
  return -1;
}

TEST_F(ChaosTest, EveryRegisteredFailpointFailsCleanlyThenRecovers) {
  fail::ScopedFailpoints scope;
  const std::string path = TempPath("pilote_chaos_artifact.bin");

  // Warmup: one clean cycle with the subsystem enabled but nothing armed
  // registers every failpoint site and pins the fault-free baseline.
  std::vector<int> baseline;
  Status warmup = RunCycle(*state_, path, &baseline);
  ASSERT_TRUE(warmup.ok()) << warmup.ToString();
  ASSERT_FALSE(baseline.empty());

  const std::vector<std::string> names = FailpointRegistry::Global().Names();
  // The full production inventory must be covered; a new PILOTE_FAILPOINT
  // off the lifecycle path shows up here as a registered-but-never-fired
  // name and fails the drill below.
  const std::vector<std::string> expected = {
      "core/artifact/load",       "core/artifact/save",
      "core/learn/begin",         "core/learn/commit",
      "core/learn/mid",           "core/support_update/begin",
      "core/support_update/embed", "serialize/atomic/open",
      "serialize/atomic/rename",  "serialize/atomic/torn",
      "serialize/atomic/write",   "serve/predict"};
  for (const std::string& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "failpoint '" << name << "' was not registered by the warmup cycle";
  }

  for (const std::string& name : names) {
    SCOPED_TRACE("failpoint: " + name);
    const int64_t fires_before = FiresFor(name);
    ASSERT_TRUE(
        FailpointRegistry::Global().Arm(name, FailpointSpec::Once()).ok());

    // Faulted cycle: the single injected fault must surface as the cycle's
    // Status, attributed to this site — never swallowed, never a crash.
    Status faulted = RunCycle(*state_, path, nullptr);
    ASSERT_FALSE(faulted.ok())
        << "injected fault was swallowed somewhere in the cycle";
    EXPECT_EQ(faulted.code(), StatusCode::kIoError);
    EXPECT_NE(faulted.message().find("'" + name + "'"), std::string::npos)
        << "surfaced status does not name the fired failpoint: "
        << faulted.ToString();
    EXPECT_EQ(FiresFor(name), fires_before + 1);

    // Whatever the fault left on disk must load cleanly or fail cleanly —
    // kDataLoss for a torn file, never garbage fed to the learner.
    Result<CloudArtifact> reread = core::LoadArtifact(path);
    if (!reread.ok()) {
      EXPECT_EQ(reread.status().code(), StatusCode::kDataLoss)
          << reread.status().ToString();
    }

    // Recovery: with the fault spent, the same cycle must succeed and
    // reproduce the fault-free baseline exactly.
    FailpointRegistry::Global().Disarm(name);
    std::vector<int> recovered;
    Status clean = RunCycle(*state_, path, &recovered);
    EXPECT_TRUE(clean.ok()) << clean.ToString();
    EXPECT_EQ(recovered, baseline)
        << "post-recovery predictions diverged from the baseline";
  }
  std::remove(path.c_str());
}

TEST_F(ChaosTest, TornArtifactWriteIsDetectedAsDataLossNotGarbage) {
  fail::ScopedFailpoints scope;
  const std::string path = TempPath("pilote_chaos_torn.bin");
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Arm("serialize/atomic/torn", FailpointSpec::Once())
                  .ok());
  Status save = core::SaveArtifact(path, state_->artifact);
  ASSERT_FALSE(save.ok());
  Result<CloudArtifact> loaded = core::LoadArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);

  // The retry overwrites the torn file atomically; the artifact is whole
  // again and serves the same model.
  ASSERT_TRUE(core::SaveArtifact(path, state_->artifact).ok());
  Result<CloudArtifact> retried = core::LoadArtifact(path);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->model_payload, state_->artifact.model_payload);
  std::remove(path.c_str());
}

// An interrupted save must never clobber the previous good artifact: any
// failure injected before the final-rename commit leaves the old file
// loading bit-identically.
TEST_F(ChaosTest, FailedSavePreservesThePreviousArtifact) {
  fail::ScopedFailpoints scope;
  const std::string path = TempPath("pilote_chaos_preserve.bin");
  ASSERT_TRUE(core::SaveArtifact(path, state_->artifact).ok());
  for (const char* name :
       {"serialize/atomic/open", "serialize/atomic/write",
        "serialize/atomic/rename", "core/artifact/save"}) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(
        FailpointRegistry::Global().Arm(name, FailpointSpec::Once()).ok());
    ASSERT_FALSE(core::SaveArtifact(path, state_->artifact).ok());
    Result<CloudArtifact> loaded = core::LoadArtifact(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->model_payload, state_->artifact.model_payload);
  }
  std::remove(path.c_str());
}

// Transient kUnavailable faults on the serving forward pass are absorbed
// by the batching engine's bounded retry: every request still completes
// with a real prediction and the recovery is visible in the metrics.
TEST_F(ChaosTest, BatchingEngineRetriesTransientPredictFaults) {
  fail::ScopedFailpoints scope;
  obs::ScopedEnable metrics;
  obs::MetricsRegistry::Global().ResetForTesting();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromString("serve/predict=nth:2:unavailable")
                  .ok());

  Result<std::unique_ptr<core::EdgeLearner>> made =
      core::MakeEdgeLearner("pretrained", state_->artifact, state_->config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto handle =
      std::make_shared<serve::LearnerHandle>(std::move(made).value());

  serve::ServeOptions options;
  options.retry_backoff_us = 0;  // no real sleeping in tests
  {
    serve::SessionManager manager(options);
    Result<serve::SessionId> id =
        manager.CreateSession(handle, state_->config.streaming);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    Rng rng(99);
    for (int i = 0; i < 8; ++i) {
      Tensor window = Tensor::RandNormal(
          Shape::Matrix(1, state_->config.backbone.input_dim), rng);
      Result<std::future<int>> pending = manager.SubmitWindow(*id, window);
      ASSERT_TRUE(pending.ok()) << pending.status().ToString();
      // Waiting serializes the batches, so with nth:2 every second batch
      // faults once and is recovered by the first retry.
      EXPECT_NE(pending->get(), serve::kNoPrediction);
    }
    ASSERT_TRUE(manager.CloseSession(*id).ok());
  }

  const int64_t injected = obs::MetricsRegistry::Global()
                               .GetCounter("serve/faults_injected")
                               .value();
  const int64_t recovered =
      obs::MetricsRegistry::Global().GetCounter("serve/recoveries").value();
  EXPECT_GE(injected, 4);
  EXPECT_EQ(recovered, injected)
      << "every transient fault must be recovered by a retry";
}

// With the fault no longer transient, the retry budget exhausts and the
// request degrades to the session's last smoothed label instead of
// wedging the stream.
TEST_F(ChaosTest, ExhaustedRetriesDegradeInsteadOfWedging) {
  fail::ScopedFailpoints scope;
  obs::ScopedEnable metrics;
  obs::MetricsRegistry::Global().ResetForTesting();

  Result<std::unique_ptr<core::EdgeLearner>> made =
      core::MakeEdgeLearner("pretrained", state_->artifact, state_->config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto handle =
      std::make_shared<serve::LearnerHandle>(std::move(made).value());

  serve::ServeOptions options;
  options.predict_retries = 2;
  options.retry_backoff_us = 0;
  {
    serve::SessionManager manager(options);
    Result<serve::SessionId> id =
        manager.CreateSession(handle, state_->config.streaming);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    Rng rng(7);
    Tensor window = Tensor::RandNormal(
        Shape::Matrix(1, state_->config.backbone.input_dim), rng);

    // A healthy window first, so the degraded path has a label to fall
    // back on.
    Result<std::future<int>> healthy = manager.SubmitWindow(*id, window);
    ASSERT_TRUE(healthy.ok());
    const int last_label = healthy->get();
    ASSERT_NE(last_label, serve::kNoPrediction);

    ASSERT_TRUE(FailpointRegistry::Global()
                    .ArmFromString("serve/predict=always:unavailable")
                    .ok());
    Result<std::future<int>> degraded = manager.SubmitWindow(*id, window);
    ASSERT_TRUE(degraded.ok());
    EXPECT_EQ(degraded->get(), last_label);
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(manager.CloseSession(*id).ok());
  }

  const int64_t injected = obs::MetricsRegistry::Global()
                               .GetCounter("serve/faults_injected")
                               .value();
  const int64_t recovered =
      obs::MetricsRegistry::Global().GetCounter("serve/recoveries").value();
  // 1 initial failure + 2 retries + 1 terminal accounting tick.
  EXPECT_GE(injected, 3);
  EXPECT_EQ(recovered, 0);
}

}  // namespace
}  // namespace pilote
