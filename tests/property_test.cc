// Property-style tests: invariants swept over seeds, shapes and
// configurations with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <cmath>
#include <memory>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "core/exemplar_selector.h"
#include "core/ncm_classifier.h"
#include "har/feature_extractor.h"
#include "har/har_dataset.h"
#include "losses/contrastive.h"
#include "losses/pair_sampler.h"
#include "nn/backbone.h"
#include "serialize/io.h"
#include "serialize/quantize.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace pilote {
namespace {

// --------------------------------------------------------------- RNG sweep

class RngSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedTest, UniformDoubleMeanIsCentered) {
  Rng rng(GetParam());
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST_P(RngSeedTest, SampleWithoutReplacementIsAlwaysDistinct) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.UniformInt(1, 40);
    const int k = rng.UniformInt(0, n);
    std::vector<int> sample = rng.SampleWithoutReplacement(n, k);
    std::sort(sample.begin(), sample.end());
    EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end()) ==
                sample.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0ull, 1ull, 42ull, 31337ull,
                                           0xFFFFFFFFFFFFFFFFull));

// ------------------------------------------------------------ Herding sweep

class HerdingPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HerdingPropertyTest, PrefixConsistency) {
  // Herding's greedy order means HerdingSelect(k) is a prefix of
  // HerdingSelect(k') for k < k' — the property that lets the support set
  // be trimmed instead of reselected.
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  Tensor embeddings = Tensor::RandNormal(Shape::Matrix(n, 6), rng);
  std::vector<int64_t> small = core::HerdingSelect(embeddings, n / 3);
  std::vector<int64_t> large = core::HerdingSelect(embeddings, n);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], large[i]) << "prefix broken at " << i;
  }
}

TEST_P(HerdingPropertyTest, RunningMeanErrorIsMonotonicallyHelpful) {
  // The herded prefix mean must approximate the class mean at least as
  // well as the first element alone.
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) ^ 0xBEEF);
  Tensor embeddings = Tensor::RandNormal(Shape::Matrix(n, 6), rng);
  Tensor mu = ColumnMean(embeddings);
  std::vector<int64_t> order = core::HerdingSelect(embeddings, n / 2);
  const float first_err =
      SquaredDistance(RowAt(embeddings, order[0]), mu);
  Tensor prefix_mean =
      ColumnMean(GatherRows(embeddings, order));
  EXPECT_LE(SquaredDistance(prefix_mean, mu), first_err + 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HerdingPropertyTest,
                         ::testing::Combine(::testing::Values(9, 30, 120),
                                            ::testing::Values(1, 7, 99)));

// ------------------------------------------------------- Quantization sweep

class QuantizationPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<serialize::QuantMode, int, float>> {};

TEST_P(QuantizationPropertyTest, ErrorBoundedByStepSize) {
  const auto [mode, rows, scale] = GetParam();
  Rng rng(static_cast<uint64_t>(rows) * 31 + 7);
  Tensor t = Tensor::RandNormal(Shape::Matrix(rows, 20), rng, 0.0f, scale);
  serialize::QuantizedTensor q = serialize::QuantizedTensor::Quantize(t, mode);
  Tensor back = q.Dequantize();
  float bound = 0.0f;
  switch (mode) {
    case serialize::QuantMode::kFloat32:
      bound = 0.0f;
      break;
    case serialize::QuantMode::kFloat16:
      bound = 1e-3f * scale * 6 + 1e-4f;  // relative half precision
      break;
    case serialize::QuantMode::kInt8: {
      float lo = 1e30f;
      float hi = -1e30f;
      for (int64_t i = 0; i < t.numel(); ++i) {
        lo = std::min(lo, t[i]);
        hi = std::max(hi, t[i]);
      }
      bound = (hi - lo) / 255.0f;  // one quantization step
      break;
    }
  }
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(back[i] - t[i]), bound + 1e-6f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndShapes, QuantizationPropertyTest,
    ::testing::Combine(::testing::Values(serialize::QuantMode::kFloat32,
                                         serialize::QuantMode::kFloat16,
                                         serialize::QuantMode::kInt8),
                       ::testing::Values(1, 17, 64),
                       ::testing::Values(0.1f, 1.0f, 50.0f)));

// -------------------------------------------------------- Contrastive sweep

class ContrastiveFormTest
    : public ::testing::TestWithParam<losses::ContrastiveForm> {};

TEST_P(ContrastiveFormTest, LossIsNonNegativeAndZeroForFarNegatives) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Tensor left = Tensor::RandNormal(Shape::Matrix(8, 4), rng);
    Tensor right = Tensor::RandNormal(Shape::Matrix(8, 4), rng);
    Tensor y(Shape::Vector(8));
    for (int i = 0; i < 8; ++i) y[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    const float value =
        losses::ContrastiveLossValue(left, right, y, 2.0f, GetParam());
    EXPECT_GE(value, 0.0f);
  }
  // Far-apart negatives cost nothing under both forms.
  Tensor far_left(Shape::Matrix(1, 2), {0.0f, 0.0f});
  Tensor far_right(Shape::Matrix(1, 2), {100.0f, 0.0f});
  Tensor y_neg(Shape::Vector(1), {0.0f});
  EXPECT_FLOAT_EQ(losses::ContrastiveLossValue(far_left, far_right, y_neg,
                                               2.0f, GetParam()),
                  0.0f);
}

TEST_P(ContrastiveFormTest, PositiveTermIsFormIndependent) {
  Rng rng(6);
  Tensor left = Tensor::RandNormal(Shape::Matrix(8, 4), rng);
  Tensor right = Tensor::RandNormal(Shape::Matrix(8, 4), rng);
  Tensor y(Shape::Vector(8), 1.0f);  // all positives
  EXPECT_NEAR(
      losses::ContrastiveLossValue(left, right, y, 3.0f, GetParam()),
      losses::ContrastiveLossValue(left, right, y, 3.0f,
                                   losses::ContrastiveForm::kSquaredHinge),
      1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Forms, ContrastiveFormTest,
                         ::testing::Values(
                             losses::ContrastiveForm::kSquaredHinge,
                             losses::ContrastiveForm::kHadsell));

// ---------------------------------------------------------- Simulator sweep

class ActivityPropertyTest
    : public ::testing::TestWithParam<har::Activity> {};

TEST_P(ActivityPropertyTest, WindowsAreFiniteAndShaped) {
  har::SensorSimulator simulator(11 + static_cast<uint64_t>(
                                          har::ActivityLabel(GetParam())));
  for (int i = 0; i < 5; ++i) {
    Tensor window = simulator.GenerateWindow(GetParam());
    ASSERT_EQ(window.rows(), har::kWindowLength);
    ASSERT_EQ(window.cols(), har::kNumChannels);
    for (int64_t j = 0; j < window.numel(); ++j) {
      ASSERT_TRUE(std::isfinite(window[j])) << "non-finite sample";
    }
  }
}

TEST_P(ActivityPropertyTest, FeaturesAreFiniteAndDeterministic) {
  har::HarDataGenerator a(1234);
  har::HarDataGenerator b(1234);
  data::Dataset da = a.Generate(GetParam(), 4);
  data::Dataset db = b.Generate(GetParam(), 4);
  EXPECT_TRUE(AllClose(da.features(), db.features(), 0.0f, 0.0f));
  for (int64_t i = 0; i < da.features().numel(); ++i) {
    ASSERT_TRUE(std::isfinite(da.features()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Activities, ActivityPropertyTest,
    ::testing::Values(har::Activity::kDrive, har::Activity::kEscooter,
                      har::Activity::kRun, har::Activity::kStill,
                      har::Activity::kWalk));

// ----------------------------------------------------------- Sampler sweep

class PairStrategySeedTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(PairStrategySeedTest, SimilarityLabelsAlwaysMatchFeatures) {
  const auto [per_class, seed] = GetParam();
  // Feature value encodes the class, so every emitted pair is checkable.
  const int num_classes = 3;
  Tensor features(Shape::Matrix(num_classes * per_class, 1));
  std::vector<int> labels;
  for (int c = 0; c < num_classes; ++c) {
    for (int i = 0; i < per_class; ++i) {
      features(c * per_class + i, 0) = static_cast<float>(c);
      labels.push_back(c);
    }
  }
  losses::PairSampler sampler(features, labels,
                              losses::PairStrategy::kBalancedRandom, seed);
  losses::PairBatch batch = sampler.Next(128);
  for (int64_t i = 0; i < 128; ++i) {
    const bool same = batch.left(i, 0) == batch.right(i, 0);
    ASSERT_EQ(batch.similar[i], same ? 1.0f : 0.0f) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PairStrategySeedTest,
    ::testing::Combine(::testing::Values(2, 5, 20),
                       ::testing::Values(1ull, 77ull, 31415ull)));

// --------------------------------------------------------------- NCM sweep

TEST(NcmMetricTest, PredictionsAreAlwaysRegisteredLabels) {
  Rng rng(17);
  core::NcmClassifier ncm;
  for (int label : {2, 5, 9}) {
    ncm.SetPrototype(label, Tensor::RandNormal(Shape::Vector(4), rng));
  }
  Tensor queries = Tensor::RandNormal(Shape::Matrix(50, 4), rng, 0.0f, 10.0f);
  for (int label : ncm.Predict(queries)) {
    EXPECT_TRUE(label == 2 || label == 5 || label == 9) << label;
  }
}

TEST(NcmMetricTest, PrototypeItselfIsItsNearestClass) {
  Rng rng(18);
  core::NcmClassifier ncm;
  std::vector<int> labels = {0, 1, 2, 3};
  std::vector<Tensor> prototypes;
  for (int label : labels) {
    Tensor p = Tensor::RandNormal(Shape::Vector(6), rng, 0.0f, 5.0f);
    ncm.SetPrototype(label, p);
    prototypes.push_back(p);
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    Tensor query = prototypes[i].Reshape(Shape::Matrix(1, 6));
    EXPECT_EQ(ncm.Predict(query).front(), labels[i]);
  }
}

// ------------------------------------------------------- Rollback sweep


data::Dataset ClassDataset(int label, int64_t input_dim, Rng& rng) {
  Tensor features = Tensor::RandNormal(Shape::Matrix(12, input_dim), rng,
                                       static_cast<float>(2 * label), 0.3f);
  return data::Dataset(std::move(features), std::vector<int>(12, label));
}

class RollbackScheduleTest : public ::testing::TestWithParam<uint64_t> {};

// Property: under a seeded random failpoint schedule, every failed
// LearnNewClasses leaves the learner exactly as it was (class list and
// predictions bit-identical), every successful one grows the class list
// by one, and a clean call after the storm always succeeds — i.e. faults
// never wedge or corrupt the learner, regardless of where they land.
TEST_P(RollbackScheduleTest, RandomFaultSchedulesNeverLeakPartialState) {
  const uint64_t seed = GetParam();
  fail::ScopedFailpoints scope;
  core::PiloteConfig config = core::PiloteConfig::Small();
  config.exemplars_per_class = 12;
  // A handcrafted artifact, so the sweep does not pay for cloud
  // pre-training on every seed.
  core::CloudArtifact artifact =
      testing::MakeTestArtifact(config.backbone, /*seed=*/505);
  Result<std::unique_ptr<core::EdgeLearner>> made =
      core::MakeEdgeLearner("pretrained", artifact, config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  std::unique_ptr<core::EdgeLearner> learner = std::move(made).value();

  const int64_t input_dim = config.backbone.input_dim;
  Rng data_rng(seed ^ 0xD00DULL);
  Tensor probe = Tensor::RandNormal(Shape::Matrix(6, input_dim), data_rng);
  ASSERT_TRUE(fail::FailpointRegistry::Global()
                  .Arm("core/learn/mid",
                       fail::FailpointSpec::WithProbability(0.4, seed))
                  .ok());
  ASSERT_TRUE(fail::FailpointRegistry::Global()
                  .Arm("core/learn/commit",
                       fail::FailpointSpec::WithProbability(
                           0.4, seed ^ 0x9E3779B97F4A7C15ULL))
                  .ok());

  int next_label = 4;
  int failures = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    data::Dataset d_new = ClassDataset(next_label, input_dim, data_rng);
    const std::vector<int> pre_known = learner->known_classes();
    const std::vector<int> pre_predictions = learner->Predict(probe);
    Result<core::TrainReport> result = learner->LearnNewClasses(d_new);
    if (result.ok()) {
      EXPECT_EQ(learner->known_classes().size(), pre_known.size() + 1);
      ++next_label;
    } else {
      ++failures;
      EXPECT_EQ(learner->known_classes(), pre_known)
          << "failure leaked a class-list change (attempt " << attempt << ")";
      EXPECT_EQ(learner->Predict(probe), pre_predictions)
          << "failure leaked model/prototype state (attempt " << attempt
          << ")";
    }
  }
  // p(no fire in 10 attempts) = 0.36^10; with the repo's deterministic
  // Rng this is a fixed schedule per seed, not a flake source.
  EXPECT_GT(failures, 0);

  fail::FailpointRegistry::Global().DisarmAll();
  data::Dataset d_clean = ClassDataset(next_label, input_dim, data_rng);
  Result<core::TrainReport> clean = learner->LearnNewClasses(d_clean);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(learner->support().HasClass(next_label));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollbackScheduleTest,
                         ::testing::Values(1ull, 7ull, 42ull, 31337ull));

}  // namespace
}  // namespace pilote
