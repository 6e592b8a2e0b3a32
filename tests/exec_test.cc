// Compiled-inference-plan suite: lifetime arena planning on hand-built
// graphs, capture/fusion introspection, bit-identical plan-vs-eager replay
// across batch sizes, the zero-steady-state-allocation pin, concurrent
// predictions on one learner all replaying the plan, and the
// transactional plan rebuild contract under injected faults (chaos label).
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_tracker.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "core/ncm_classifier.h"
#include "exec/executor.h"
#include "exec/memory_planner.h"
#include "exec/plan_builder.h"
#include "har/har_dataset.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace pilote {
namespace {

using core::CloudArtifact;
using core::PiloteConfig;
using exec::ArenaLayout;
using exec::LifetimeInterval;
using exec::PlanArena;
using har::Activity;

// ---------------------------------------------------------- memory planner

TEST(MemoryPlannerTest, SingleIntervalStartsAtZero) {
  ArenaLayout layout = PlanArena({{0, 2, 64}});
  ASSERT_EQ(layout.slices.size(), 1u);
  EXPECT_EQ(layout.slices[0].offset, 0);
  EXPECT_EQ(layout.slices[0].size, 64);
  EXPECT_EQ(layout.total_size, 64);
}

TEST(MemoryPlannerTest, DisjointLifetimesReuseTheSameSlice) {
  // a live on [0,1], b live on [2,3]: b must reuse a's bytes.
  ArenaLayout layout = PlanArena({{0, 1, 32}, {2, 3, 32}});
  EXPECT_EQ(layout.slices[0].offset, layout.slices[1].offset);
  EXPECT_EQ(layout.total_size, 32);
}

TEST(MemoryPlannerTest, OverlappingLifetimesGetDisjointSlices) {
  ArenaLayout layout = PlanArena({{0, 2, 16}, {1, 3, 16}, {2, 4, 16}});
  // Intervals 0 and 1 overlap; 1 and 2 overlap; 0 and 2 only meet at step
  // 2, where 0 is still live (last_use == 2), so all three coexist there?
  // No: interval 0 dies at step 2 and interval 2 is defined at step 2, so
  // they overlap at exactly that step and must stay disjoint too.
  auto disjoint = [&](size_t i, size_t j) {
    const auto& a = layout.slices[i];
    const auto& b = layout.slices[j];
    return a.offset + a.size <= b.offset || b.offset + b.size <= a.offset;
  };
  EXPECT_TRUE(disjoint(0, 1));
  EXPECT_TRUE(disjoint(1, 2));
  EXPECT_TRUE(disjoint(0, 2));
  EXPECT_EQ(layout.total_size, 48);
}

TEST(MemoryPlannerTest, ValueDyingBeforeNextDefIsReused) {
  // Chain x0 -> x1 -> x2: each value's last use is the step defining the
  // next, so x2 can reuse x0's slice — peak is two live values, not three.
  ArenaLayout layout = PlanArena({{0, 1, 8}, {1, 2, 8}, {2, 3, 8}});
  EXPECT_EQ(layout.total_size, 16);
  EXPECT_EQ(layout.slices[2].offset, layout.slices[0].offset);
}

TEST(MemoryPlannerTest, AdjacentFreedGapsCoalesce) {
  // Two small neighbors freed at step 2 must merge so the size-64 interval
  // fits in their combined gap instead of growing the arena.
  ArenaLayout layout = PlanArena({{0, 1, 32}, {0, 1, 32}, {2, 3, 64}});
  EXPECT_EQ(layout.total_size, 64);
  EXPECT_EQ(layout.slices[2].offset, 0);
}

TEST(MemoryPlannerTest, FirstFitPrefersLowestOffsetGap) {
  // c frees a low gap, d a high one; e fits both and must take the lower.
  ArenaLayout layout =
      PlanArena({{0, 1, 16}, {0, 3, 16}, {0, 1, 16}, {2, 3, 16}});
  // Interval 3 (def 2) can reuse interval 0's gap (offset 0) or interval
  // 2's gap (offset 32); first-fit takes offset 0.
  EXPECT_EQ(layout.slices[3].offset, 0);
  EXPECT_EQ(layout.total_size, 48);
}

// ---------------------------------------------------------- plan builder

TEST(PlanBuilderTest, FusesElementwiseChainOntoOneStep) {
  exec::PlanBuilder builder;
  Rng rng(7);
  exec::ValueRef x = builder.DeclareInput(4);
  Tensor w = Tensor::RandNormal(Shape::Matrix(3, 4), rng);
  Tensor bias = Tensor::RandNormal(Shape::Vector(3), rng);
  x = builder.Gemm(x, w);
  x = builder.BiasAdd(x, bias);
  x = builder.Relu(x);
  builder.MarkOutput(x);
  auto plan = builder.Finish(/*version=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // GEMM + one fused elementwise step carrying both micro passes, running
  // in place on the GEMM output slice.
  const auto& steps = plan.value()->steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].kind, exec::StepKind::kGemmPacked);
  EXPECT_EQ(steps[1].kind, exec::StepKind::kElementwise);
  EXPECT_EQ(steps[1].in, steps[1].out);
  ASSERT_EQ(steps[1].micro.size(), 2u);
  EXPECT_EQ(steps[1].micro[0].op, exec::MicroOp::kAddRow);
  EXPECT_EQ(steps[1].micro[1].op, exec::MicroOp::kRelu);
  EXPECT_FALSE(plan.value()->DebugString().empty());
}

TEST(PlanBuilderTest, BatchNormLowersToEagerPassSequence) {
  exec::PlanBuilder builder;
  exec::ValueRef x = builder.DeclareInput(2);
  Tensor ones = Tensor::Ones(Shape::Vector(2));
  Tensor zeros = Tensor::Zeros(Shape::Vector(2));
  x = builder.BatchNormInference(x, /*gamma=*/ones, /*beta=*/zeros,
                                 /*mean=*/zeros, /*var=*/ones, 1e-5f);
  builder.MarkOutput(x);
  auto plan = builder.Finish(/*version=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // (x - mean) * inv_std * gamma + beta: four micro passes, same order as
  // the eager AddRow(MulRow(MulRow(SubRow(...)))) composition.
  ASSERT_EQ(plan.value()->steps().size(), 1u);
  const auto& micro = plan.value()->steps()[0].micro;
  ASSERT_EQ(micro.size(), 4u);
  EXPECT_EQ(micro[0].op, exec::MicroOp::kSubRow);
  EXPECT_EQ(micro[1].op, exec::MicroOp::kMulRow);
  EXPECT_EQ(micro[2].op, exec::MicroOp::kMulRow);
  EXPECT_EQ(micro[3].op, exec::MicroOp::kAddRow);
}

TEST(PlanBuilderTest, MarkedOutputIsNeverMutatedInPlace) {
  exec::PlanBuilder builder;
  exec::ValueRef x = builder.DeclareInput(3);
  Tensor bias = Tensor::Ones(Shape::Vector(3));
  x = builder.BiasAdd(x, bias);
  builder.MarkOutput(x);
  exec::ValueRef y = builder.Relu(x);  // must copy, not fuse onto x
  EXPECT_NE(y.id, x.id);
  auto plan = builder.Finish(/*version=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value()->output_value(), x.id);
}

TEST(PlanBuilderTest, FinishWithoutAnyStepsFails) {
  exec::PlanBuilder builder;
  builder.DeclareInput(3);
  auto plan = builder.Finish(/*version=*/0);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------- executor

TEST(ExecutorTest, ReplaysHandBuiltPlanNumerically) {
  exec::PlanBuilder builder;
  exec::ValueRef x = builder.DeclareInput(2);
  // y = relu((x * W^T) + b) with W = [[1, -1], [2, 0]], b = [0.5, -10].
  Tensor w(Shape::Matrix(2, 2), {1.0f, -1.0f, 2.0f, 0.0f});
  Tensor bias(Shape::Vector(2), {0.5f, -10.0f});
  x = builder.Gemm(x, w);
  x = builder.BiasAdd(x, bias);
  x = builder.Relu(x);
  builder.MarkOutput(x);
  auto plan = builder.Finish(/*version=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Tensor in(Shape::Matrix(2, 2), {3.0f, 1.0f, -1.0f, 4.0f});
  Tensor out;
  exec::ReplayEmbedding(*plan.value(), in, &out);
  ASSERT_EQ(out.rows(), 2);
  ASSERT_EQ(out.cols(), 2);
  EXPECT_FLOAT_EQ(out(0, 0), 2.5f);   // 3 - 1 + 0.5
  EXPECT_FLOAT_EQ(out(0, 1), 0.0f);   // 6 - 10 -> relu
  EXPECT_FLOAT_EQ(out(1, 0), 0.0f);   // -5 + 0.5 -> relu
  EXPECT_FLOAT_EQ(out(1, 1), 0.0f);   // -2 - 10 -> relu
}

// Each GEMM step holds its weight transposed once at capture, [k, cols],
// and replay matches the eager MatMulTransB of the original weight bit for
// bit: at batch 1 and 5 the eager side runs the dot rows, at 16 and 33 it
// packs B^T per call (the 5-column layer stays on the dot rows), and the
// plan side runs 4-row tiles plus tail rows.
TEST(ExecutorTest, GemmStepsStoreTheWeightTransposedAndMatchEager) {
  Rng rng(11);
  const Tensor w1 = Tensor::RandNormal(Shape::Matrix(40, 37), rng);
  const Tensor w2 = Tensor::RandNormal(Shape::Matrix(5, 40), rng);
  exec::PlanBuilder builder;
  exec::ValueRef x = builder.DeclareInput(37);
  x = builder.Gemm(x, w1);
  x = builder.Gemm(x, w2);
  builder.MarkOutput(x);
  auto plan = builder.Finish(/*version=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const std::vector<exec::Step>& steps = plan.value()->steps();
  ASSERT_EQ(steps.size(), 2u);
  const Tensor* weights[] = {&w1, &w2};
  for (size_t s = 0; s < steps.size(); ++s) {
    ASSERT_EQ(steps[s].kind, exec::StepKind::kGemmPacked);
    const Tensor& stored = plan.value()->constant(steps[s].constant);
    EXPECT_EQ(stored.shape(), Shape::Matrix(steps[s].k, steps[s].cols));
    EXPECT_TRUE(AllClose(stored, Transpose(*weights[s]), 0.0f, 0.0f));
  }

  for (int64_t batch : {1, 5, 16, 33}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const Tensor in = Tensor::RandNormal(Shape::Matrix(batch, 37), rng);
    Tensor out;
    exec::ReplayEmbedding(*plan.value(), in, &out);
    const Tensor want = MatMulTransB(MatMulTransB(in, w1), w2);
    ASSERT_EQ(out.shape(), want.shape());
    EXPECT_EQ(std::memcmp(out.data(), want.data(),
                          static_cast<size_t>(want.numel()) * sizeof(float)),
              0);
  }
}

TEST(ExecutorTest, ClassifyTailMatchesNcmPredict) {
  core::NcmClassifier ncm;
  ncm.SetPrototype(3, Tensor(Shape::Vector(2), {0.0f, 0.0f}));
  ncm.SetPrototype(8, Tensor(Shape::Vector(2), {10.0f, 10.0f}));

  exec::PlanBuilder builder;
  exec::ValueRef x = builder.DeclareInput(2);
  Tensor bias = Tensor::Zeros(Shape::Vector(2));
  x = builder.BiasAdd(x, bias);  // identity layer to give the plan a step
  builder.MarkOutput(x);
  ASSERT_TRUE(ncm.CapturePredict(builder, x).ok());
  auto plan = builder.Finish(/*version=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan.value()->has_classify_tail());

  Tensor queries(Shape::Matrix(3, 2),
                 {1.0f, 1.0f, 9.0f, 9.0f, 4.0f, 6.0f});
  std::vector<int> labels;
  exec::ReplayClassify(*plan.value(), queries, &labels);
  EXPECT_EQ(labels, ncm.Predict(queries));
}

// Shared cloud pretrain for the learner-integration cases (same shape as
// the chaos suite fixture).
class CompiledLearnerTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    state_ = new State();
    state_->config = PiloteConfig::Small();
    state_->config.exemplars_per_class = 20;
    har::HarDataGenerator generator(4321);
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

  static std::unique_ptr<core::EdgeLearner> MakeLearner() {
    return testing::MustMakeLearner("pretrained", state_->artifact,
                                    state_->config);
  }

  struct State {
    PiloteConfig config;
    CloudArtifact artifact;
    data::Dataset d_new;
    Tensor probe;
  };
  static State* state_;
};

CompiledLearnerTest::State* CompiledLearnerTest::state_ = nullptr;

TEST_F(CompiledLearnerTest, PlanIsLiveAndVersionTagged) {
  auto learner = MakeLearner();
  ASSERT_NE(learner->inference_plan(), nullptr);
  EXPECT_EQ(learner->plan_version(), learner->model_version());
  EXPECT_EQ(learner->inference_plan()->input_cols(),
            state_->config.backbone.input_dim);
  EXPECT_TRUE(learner->inference_plan()->has_classify_tail());
}

TEST_F(CompiledLearnerTest, PlanMatchesEagerBitIdenticalAcrossBatchSizes) {
  auto learner = MakeLearner();
  har::HarDataGenerator generator(99);
  for (int64_t batch : {1, 2, 5, 16, 33}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    Tensor raw = generator.GenerateBalanced(
        std::max<int64_t>(1, batch / 2 + 1)).features();
    raw = SliceRows(raw, 0, batch);
    ASSERT_EQ(raw.rows(), batch);

    // Labels through the plan vs the eager tape: exact equality.
    EXPECT_EQ(learner->PredictBatch(raw),
              learner->classifier().Predict(learner->EmbedRaw(raw)));

    // Embeddings bit for bit: replay the learner's own plan directly and
    // compare against the eager scaler+backbone pass.
    Tensor plan_embedding;
    exec::ReplayEmbedding(*learner->inference_plan(), raw, &plan_embedding);
    Tensor eager_embedding = learner->EmbedRaw(raw);
    ASSERT_EQ(plan_embedding.rows(), eager_embedding.rows());
    ASSERT_EQ(plan_embedding.cols(), eager_embedding.cols());
    EXPECT_EQ(std::memcmp(plan_embedding.data(), eager_embedding.data(),
                          static_cast<size_t>(plan_embedding.numel()) *
                              sizeof(float)),
              0)
        << "plan and eager embeddings diverged at batch " << batch;
  }
}

TEST_F(CompiledLearnerTest, SteadyStateReplayIsAllocationFree) {
  auto learner = MakeLearner();
  const exec::InferencePlan& plan = *learner->inference_plan();
  std::vector<int> labels;
  Tensor out;
  // Warm-up: arena growth, label/output buffers, first-use metric
  // registration all land here.
  exec::ReplayClassify(plan, state_->probe, &labels);
  exec::ReplayEmbedding(plan, state_->probe, &out);

  alloc::ScopedTracking tracking;
  alloc::AllocationScope scope;
  for (int i = 0; i < 10; ++i) {
    exec::ReplayClassify(plan, state_->probe, &labels);
    exec::ReplayEmbedding(plan, state_->probe, &out);
  }
  EXPECT_EQ(scope.count(), 0)
      << "steady-state replay touched the allocator " << scope.count()
      << " times (" << scope.bytes() << " bytes)";
}

TEST_F(CompiledLearnerTest, ArenaGrowsOnlyPastTheBatchHighWaterMark) {
  auto learner = MakeLearner();
  const exec::InferencePlan& plan = *learner->inference_plan();
  Tensor big = state_->probe;  // the fixture probe has many rows
  ASSERT_GT(big.rows(), 2);
  Tensor small = SliceRows(big, 0, 2);
  Tensor bigger = ConcatRows({big, big});

  // A fresh thread starts with an empty replay arena, so only arena growth
  // can allocate: the label buffer is reserved up front for every batch.
  int64_t first_allocs = -1;
  int64_t small_allocs = -1;
  int64_t same_allocs = -1;
  int64_t bigger_allocs = -1;
  std::thread replayer([&plan, &big, &small, &bigger, &first_allocs,
                        &small_allocs, &same_allocs, &bigger_allocs] {
    std::vector<int> labels;
    labels.reserve(static_cast<size_t>(bigger.rows()));
    alloc::ScopedTracking tracking;
    auto allocs_of = [&plan, &labels](const Tensor& batch) {
      alloc::AllocationScope scope;
      exec::ReplayClassify(plan, batch, &labels);
      return scope.count();
    };
    first_allocs = allocs_of(big);
    // Smaller and equal batches replay inside the existing arena.
    small_allocs = allocs_of(small);
    same_allocs = allocs_of(big);
    // A batch past the high-water mark grows it.
    bigger_allocs = allocs_of(bigger);
  });
  replayer.join();
  EXPECT_GT(first_allocs, 0);
  EXPECT_EQ(small_allocs, 0);
  EXPECT_EQ(same_allocs, 0);
  EXPECT_GT(bigger_allocs, 0);
}

TEST_F(CompiledLearnerTest, ConcurrentPredictBatchAlwaysReplaysThePlan) {
  auto learner = MakeLearner();
  const std::vector<int> expected = learner->PredictBatch(state_->probe);

  obs::ScopedEnable metrics;
  const obs::Counter& fallback =
      obs::MetricsRegistry::Global().GetCounter("exec/fallback_windows");
  const int64_t fallback_before = fallback.value();

  // Each thread replays into its own arena: every call must take the plan,
  // never the eager tape, and return the single-thread labels.
  constexpr int kThreads = 4;
  constexpr int kCalls = 300;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&learner, &expected, &mismatches, t] {
      for (int i = 0; i < kCalls; ++i) {
        if (learner->PredictBatch(state_->probe) != expected) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_EQ(fallback.value() - fallback_before, 0)
      << "windows ran the eager tape while a plan was live";
}

TEST_F(CompiledLearnerTest, LearnNewClassesRecapturesThePlan) {
  auto learner = MakeLearner();
  const int64_t version_before = learner->plan_version();
  Result<core::TrainReport> learned =
      learner->LearnNewClasses(state_->d_new);
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  EXPECT_GT(learner->plan_version(), version_before);
  EXPECT_EQ(learner->plan_version(), learner->model_version());
  // The recaptured tail must carry the new class.
  const std::vector<int>& labels = learner->inference_plan()->labels();
  EXPECT_NE(std::find(labels.begin(), labels.end(),
                      static_cast<int>(Activity::kRun)),
            labels.end());
  EXPECT_EQ(learner->PredictBatch(state_->probe),
            learner->classifier().Predict(learner->EmbedRaw(state_->probe)));
}

TEST_F(CompiledLearnerTest, FailedLearnRollsThePlanBackWithTheModel) {
  fail::ScopedFailpoints failpoints;
  auto learner = MakeLearner();
  const std::vector<int> before = learner->PredictBatch(state_->probe);
  const int64_t version_before = learner->model_version();
  const std::shared_ptr<const exec::InferencePlan> plan_before =
      learner->inference_plan();
  ASSERT_NE(plan_before, nullptr);

  for (const char* point :
       {"core/learn/begin", "core/learn/mid", "core/learn/commit"}) {
    SCOPED_TRACE(point);
    ASSERT_TRUE(fail::FailpointRegistry::Global()
                    .Arm(point, fail::FailpointSpec::Once())
                    .ok());
    Result<core::TrainReport> learned =
        learner->LearnNewClasses(state_->d_new);
    ASSERT_FALSE(learned.ok());
    // A failed update never reached the live learner: the version and the
    // very plan object are the ones from before, and they reproduce the
    // pre-fault predictions exactly.
    EXPECT_EQ(learner->model_version(), version_before);
    EXPECT_EQ(learner->inference_plan(), plan_before);
    EXPECT_EQ(learner->plan_version(), learner->model_version());
    EXPECT_EQ(learner->PredictBatch(state_->probe), before);
  }

  // With the faults spent the update commits one version step, published
  // together with the plan staged at it.
  Result<core::TrainReport> learned = learner->LearnNewClasses(state_->d_new);
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  EXPECT_EQ(learner->model_version(), version_before + 1);
  EXPECT_EQ(learner->plan_version(), learner->model_version());
}

TEST_F(CompiledLearnerTest, FailedSupportUpdateKeepsTheLivePlan) {
  fail::ScopedFailpoints failpoints;
  auto learner = MakeLearner();
  const std::vector<int> before = learner->PredictBatch(state_->probe);
  const int64_t version_before = learner->plan_version();

  for (const char* point :
       {"core/support_update/begin", "core/support_update/embed"}) {
    SCOPED_TRACE(point);
    ASSERT_TRUE(fail::FailpointRegistry::Global()
                    .Arm(point, fail::FailpointSpec::Once())
                    .ok());
    Status applied = learner->ApplySupportSetUpdate(learner->support());
    ASSERT_FALSE(applied.ok());
    // A rejected support update never reaches the swap, so the original
    // plan (same version) keeps serving.
    EXPECT_EQ(learner->plan_version(), version_before);
    EXPECT_EQ(learner->PredictBatch(state_->probe), before);
  }

  // With the faults spent the same update commits and recaptures.
  Status applied = learner->ApplySupportSetUpdate(learner->support());
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_GT(learner->plan_version(), version_before);
  EXPECT_EQ(learner->PredictBatch(state_->probe), before);
}

TEST_F(CompiledLearnerTest, DisablingCompiledInferenceFallsBackToEager) {
  auto learner = MakeLearner();
  const std::vector<int> with_plan = learner->PredictBatch(state_->probe);
  learner->SetCompiledInferenceEnabled(false);
  EXPECT_EQ(learner->inference_plan(), nullptr);
  EXPECT_EQ(learner->plan_version(), -1);
  EXPECT_EQ(learner->PredictBatch(state_->probe), with_plan);
  learner->SetCompiledInferenceEnabled(true);
  ASSERT_NE(learner->inference_plan(), nullptr);
  EXPECT_EQ(learner->plan_version(), learner->model_version());
  EXPECT_EQ(learner->PredictBatch(state_->probe), with_plan);
}

}  // namespace
}  // namespace pilote
