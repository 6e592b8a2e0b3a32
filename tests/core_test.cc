#include <cmath>
#include <deque>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/rng.h"
#include "core/edge_profile.h"
#include "core/embedding.h"
#include "core/exemplar_selector.h"
#include "core/ncm_classifier.h"
#include "core/support_set.h"
#include "core/vote_ring.h"
#include "nn/backbone.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace pilote {
namespace core {
namespace {

// ---------------------------------------------------------------- NCM

TEST(NcmClassifierTest, PredictsNearestPrototype) {
  NcmClassifier ncm;
  ncm.SetPrototype(0, Tensor(Shape::Vector(2), {0.0f, 0.0f}));
  ncm.SetPrototype(1, Tensor(Shape::Vector(2), {10.0f, 0.0f}));
  ncm.SetPrototype(7, Tensor(Shape::Vector(2), {0.0f, 10.0f}));

  Tensor queries(Shape::Matrix(3, 2), {1.0f, 1.0f,    // near 0
                                       9.0f, -1.0f,   // near 1
                                       1.0f, 12.0f}); // near 7
  EXPECT_EQ(ncm.Predict(queries), (std::vector<int>{0, 1, 7}));
}

TEST(NcmClassifierTest, PrototypeFromEmbeddingsIsTheMean) {
  NcmClassifier ncm;
  Tensor embeddings(Shape::Matrix(2, 2), {0.0f, 2.0f, 4.0f, 6.0f});
  ncm.SetPrototypeFromEmbeddings(3, embeddings);
  EXPECT_TRUE(
      AllClose(ncm.prototype(3), Tensor(Shape::Vector(2), {2.0f, 4.0f})));
}

TEST(NcmClassifierTest, ReplacingAPrototypeKeepsOneEntry) {
  NcmClassifier ncm;
  ncm.SetPrototype(1, Tensor(Shape::Vector(2), {1.0f, 1.0f}));
  ncm.SetPrototype(1, Tensor(Shape::Vector(2), {5.0f, 5.0f}));
  EXPECT_EQ(ncm.NumClasses(), 1);
  EXPECT_FLOAT_EQ(ncm.prototype(1)[0], 5.0f);
}

TEST(NcmClassifierTest, LabelsSortedAndDistanceMatrixAligned) {
  NcmClassifier ncm;
  ncm.SetPrototype(5, Tensor(Shape::Vector(1), {5.0f}));
  ncm.SetPrototype(1, Tensor(Shape::Vector(1), {1.0f}));
  EXPECT_EQ(ncm.Labels(), (std::vector<int>{1, 5}));
  Tensor d = ncm.DistanceMatrix(Tensor(Shape::Matrix(1, 1), {1.0f}));
  EXPECT_NEAR(d(0, 0), 0.0f, 1e-5f);
  EXPECT_NEAR(d(0, 1), 16.0f, 1e-4f);
}

TEST(NcmClassifierTest, UnknownLabelIsFatal) {
  NcmClassifier ncm;
  ncm.SetPrototype(0, Tensor(Shape::Vector(1), {0.0f}));
  EXPECT_DEATH(ncm.prototype(9), "no prototype");
}

TEST(NcmClassifierTest, StorageBytesCountsPrototypes) {
  NcmClassifier ncm;
  ncm.SetPrototype(0, Tensor(Shape::Vector(128)));
  ncm.SetPrototype(1, Tensor(Shape::Vector(128)));
  EXPECT_EQ(ncm.StorageBytes(), 2 * 128 * 4);
}

// ---------------------------------------------------------------- Herding

// Reference majority vote over the trailing window of raw labels: a
// std::map histogram over a std::deque, ties broken toward the most recent
// label. The allocation-free VoteRing must agree with it label for label.
int MajorityVoteLabel(const std::deque<int>& recent) {
  PILOTE_CHECK(!recent.empty());
  std::map<int, int> counts;
  for (int label : recent) ++counts[label];
  int best = recent.back();
  int best_count = 0;
  for (const auto& [label, count] : counts) {
    if (count > best_count || (count == best_count && label == recent.back())) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

TEST(VoteRingTest, MatchesReferenceMajorityVote) {
  // The allocation-free ring must agree with the std::deque reference
  // implementation on random label streams across capacities, including
  // the partially-filled warm-up phase and every tie case that shows up.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int capacity = rng.UniformInt(1, 8);
    VoteRing ring(capacity);
    std::deque<int> recent;
    for (int step = 0; step < 64; ++step) {
      const int label = rng.UniformInt(0, 4);
      ring.Push(label);
      recent.push_back(label);
      if (static_cast<int>(recent.size()) > capacity) recent.pop_front();
      ASSERT_EQ(ring.MajorityLabel(), MajorityVoteLabel(recent))
          << "capacity=" << capacity << " step=" << step;
    }
  }
}

TEST(VoteRingTest, TieBreaksTowardMostRecentLabel) {
  VoteRing ring(4);
  ring.Push(1);
  ring.Push(2);
  ring.Push(1);
  ring.Push(2);  // 1 and 2 tie at two votes each; 2 is most recent
  EXPECT_EQ(ring.MajorityLabel(), 2);
}

TEST(VoteRingTest, OldLabelsFallOutOfTheWindow) {
  VoteRing ring(3);
  ring.Push(7);
  ring.Push(7);
  ring.Push(7);
  EXPECT_EQ(ring.MajorityLabel(), 7);
  ring.Push(5);
  ring.Push(5);  // window now {7, 5, 5}
  EXPECT_EQ(ring.MajorityLabel(), 5);
}

TEST(VoteRingTest, EmptyMajorityIsFatal) {
  VoteRing ring(3);
  EXPECT_DEATH(ring.MajorityLabel(), "");
}

TEST(HerdingTest, SelectsRequestedCountOfDistinctRows) {
  Rng rng(1);
  Tensor embeddings = Tensor::RandNormal(Shape::Matrix(30, 4), rng);
  std::vector<int64_t> selected = HerdingSelect(embeddings, 10);
  ASSERT_EQ(selected.size(), 10u);
  std::set<int64_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(HerdingTest, FirstPickIsClosestToMean) {
  Tensor embeddings(Shape::Matrix(3, 1), {0.0f, 1.0f, 5.0f});
  // mean = 2; closest single point is 1.0 (row 1).
  std::vector<int64_t> selected = HerdingSelect(embeddings, 1);
  EXPECT_EQ(selected[0], 1);
}

TEST(HerdingTest, PrefixApproximatesMeanBetterThanRandomOnAverage) {
  Rng rng(2);
  Tensor embeddings = Tensor::RandNormal(Shape::Matrix(100, 8), rng);
  Tensor mu = ColumnMean(embeddings);
  const int m = 5;

  std::vector<int64_t> herd = HerdingSelect(embeddings, m);
  Tensor herd_mean = ColumnMean(GatherRows(embeddings, herd));
  const float herd_err = SquaredDistance(herd_mean, mu);

  double random_err = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> pick = rng.SampleWithoutReplacement(100, m);
    Tensor mean = ColumnMean(
        GatherRows(embeddings, std::vector<int64_t>(pick.begin(), pick.end())));
    random_err += SquaredDistance(mean, mu);
  }
  random_err /= 20.0;
  EXPECT_LT(herd_err, random_err);
}

TEST(HerdingTest, CountClampedToAvailableRows) {
  Rng rng(3);
  Tensor embeddings = Tensor::RandNormal(Shape::Matrix(4, 2), rng);
  EXPECT_EQ(HerdingSelect(embeddings, 100).size(), 4u);
}

TEST(SelectExemplarsTest, RandomStrategyIsDeterministicPerSeed) {
  Rng model_rng(4);
  nn::MlpBackbone model(nn::BackboneConfig::Small(), model_rng);
  Rng a(7);
  Rng b(7);
  Tensor features = Tensor::RandNormal(Shape::Matrix(20, 80), model_rng);
  EXPECT_EQ(SelectExemplars(model, features, 5, SelectionStrategy::kRandom, a),
            SelectExemplars(model, features, 5, SelectionStrategy::kRandom, b));
}

TEST(SelectExemplarsTest, RepresentativeUsesEmbeddingSpace) {
  Rng rng(5);
  nn::MlpBackbone model(nn::BackboneConfig::Small(), rng);
  Tensor features = Tensor::RandNormal(Shape::Matrix(25, 80), rng);
  std::vector<int64_t> selected = SelectExemplars(
      model, features, 8, SelectionStrategy::kRepresentative, rng);
  ASSERT_EQ(selected.size(), 8u);
  // Equivalent to herding on the model's embeddings.
  Tensor embeddings = EmbedBatched(model, features);
  EXPECT_EQ(selected, HerdingSelect(embeddings, 8));
}

// ---------------------------------------------------------------- SupportSet

TEST(SupportSetTest, AddQueryAndFlatten) {
  SupportSet support;
  support.SetClassExemplars(0, Tensor(Shape::Matrix(3, 2), 1.0f));
  support.SetClassExemplars(4, Tensor(Shape::Matrix(2, 2), 4.0f));
  EXPECT_EQ(support.NumClasses(), 2);
  EXPECT_EQ(support.TotalExemplars(), 5);
  EXPECT_EQ(support.CountForClass(4), 2);
  EXPECT_EQ(support.CountForClass(9), 0);
  EXPECT_EQ(support.Classes(), (std::vector<int>{0, 4}));

  data::Dataset flat = support.ToDataset();
  EXPECT_EQ(flat.size(), 5);
  EXPECT_EQ(flat.ClassCounts()[0], 3);
  EXPECT_EQ(flat.ClassCounts()[4], 2);
}

TEST(SupportSetTest, TrimKeepsPrefix) {
  SupportSet support;
  Tensor rows(Shape::Matrix(4, 1), {0.0f, 1.0f, 2.0f, 3.0f});
  support.SetClassExemplars(0, rows);
  support.TrimPerClass(2);
  EXPECT_EQ(support.CountForClass(0), 2);
  EXPECT_FLOAT_EQ(support.ClassExemplars(0)(1, 0), 1.0f);
}

TEST(SupportSetTest, EnforceCacheSizeSplitsEvenly) {
  SupportSet support;
  support.SetClassExemplars(0, Tensor(Shape::Matrix(50, 2)));
  support.SetClassExemplars(1, Tensor(Shape::Matrix(50, 2)));
  support.SetClassExemplars(2, Tensor(Shape::Matrix(50, 2)));
  support.EnforceCacheSize(60);  // m = 60 / 3 = 20
  for (int label : {0, 1, 2}) {
    EXPECT_EQ(support.CountForClass(label), 20);
  }
}

TEST(SupportSetTest, CacheSmallerThanClassCountIsFatal) {
  SupportSet support;
  support.SetClassExemplars(0, Tensor(Shape::Matrix(5, 2)));
  support.SetClassExemplars(1, Tensor(Shape::Matrix(5, 2)));
  support.SetClassExemplars(2, Tensor(Shape::Matrix(5, 2)));
  EXPECT_DEATH(support.EnforceCacheSize(2), "too small");
}

TEST(SupportSetTest, FeatureDimMismatchIsFatal) {
  SupportSet support;
  support.SetClassExemplars(0, Tensor(Shape::Matrix(2, 3)));
  EXPECT_DEATH(support.SetClassExemplars(1, Tensor(Shape::Matrix(2, 4))),
               "dimension mismatch");
}

TEST(SupportSetTest, StorageShrinksWithQuantization) {
  Rng rng(6);
  SupportSet support;
  support.SetClassExemplars(
      0, Tensor::RandNormal(Shape::Matrix(200, 80), rng));
  const int64_t fp32 = support.StorageBytes(serialize::QuantMode::kFloat32);
  const int64_t fp16 = support.StorageBytes(serialize::QuantMode::kFloat16);
  const int64_t int8 = support.StorageBytes(serialize::QuantMode::kInt8);
  EXPECT_GT(fp32, fp16);
  EXPECT_GT(fp16, int8);
}

TEST(SupportSetTest, QuantizeRoundTripApproximatesFeatures) {
  Rng rng(7);
  SupportSet support;
  Tensor original = Tensor::RandNormal(Shape::Matrix(10, 8), rng);
  support.SetClassExemplars(0, original);
  SupportSet compressed =
      support.QuantizeRoundTrip(serialize::QuantMode::kFloat16);
  EXPECT_TRUE(
      AllClose(compressed.ClassExemplars(0), original, 1e-2f, 1e-2f));
}

// ---------------------------------------------------------------- Embed

TEST(EmbedTest, BatchedMatchesSinglePass) {
  Rng rng(8);
  nn::MlpBackbone model(nn::BackboneConfig::Small(), rng);
  Tensor features = Tensor::RandNormal(Shape::Matrix(23, 80), rng);
  Tensor full = Embed(model, features);
  Tensor chunked = EmbedBatched(model, features, 7);
  EXPECT_TRUE(AllClose(full, chunked, 1e-5f));
}

TEST(EmbedTest, RestoresTrainingMode) {
  Rng rng(9);
  nn::MlpBackbone model(nn::BackboneConfig::Small(), rng);
  model.SetTraining(true);
  Embed(model, Tensor::RandNormal(Shape::Matrix(4, 80), rng));
  EXPECT_TRUE(model.training());
  model.SetTraining(false);
  Embed(model, Tensor::RandNormal(Shape::Matrix(4, 80), rng));
  EXPECT_FALSE(model.training());
}

TEST(EmbedTest, OutputDimensionMatchesConfig) {
  Rng rng(10);
  nn::BackboneConfig config = nn::BackboneConfig::Small();
  nn::MlpBackbone model(config, rng);
  Tensor out = Embed(model, Tensor::RandNormal(Shape::Matrix(3, 80), rng));
  EXPECT_EQ(out.cols(), config.embedding_dim);
}

TEST(EdgeProfileReportTest, UntrainedEpochTimeIsNaNAndPrintsNa) {
  EdgeProfileReport report;
  EXPECT_TRUE(std::isnan(report.train_epoch_seconds));
  const std::string text = report.ToString();
  EXPECT_NE(text.find("training: n/a"), std::string::npos);
  EXPECT_EQ(text.find("s/epoch"), std::string::npos);
}

TEST(EdgeProfileReportTest, TrainedEpochTimePrintsSeconds) {
  EdgeProfileReport report;
  report.train_epoch_seconds = 0.25;
  const std::string text = report.ToString();
  EXPECT_NE(text.find("s/epoch"), std::string::npos);
  EXPECT_EQ(text.find("n/a"), std::string::npos);
}

TEST(EdgeProfileReportTest, ToStringCarriesStorageAndAllocations) {
  EdgeProfileReport report;
  report.support_bytes_int8 = 123;
  report.prototype_bytes = 456;
  report.inference_allocs_per_window = 2.0;
  const std::string text = report.ToString();
  EXPECT_NE(text.find("123 B int8"), std::string::npos);
  EXPECT_NE(text.find("prototypes: 456 B"), std::string::npos);
  EXPECT_NE(text.find("2 allocs/window"), std::string::npos);
  EXPECT_EQ(text.find("ms/window"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace pilote
