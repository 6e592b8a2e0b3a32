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
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/macros.h"
#include "core/artifact_io.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "har/har_dataset.h"
#include "serve/learner_handle.h"

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
  handle.PredictBatch(state.probe,
                      [&served](const std::vector<int>& labels, int64_t) {
                        served = labels;
                      });
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
      "serialize/atomic/write"};
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

}  // namespace
}  // namespace pilote
