#ifndef PILOTE_TESTS_TEST_UTIL_H_
#define PILOTE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/cloud.h"
#include "core/config.h"
#include "core/edge_learner.h"
#include "data/dataset.h"
#include "nn/backbone.h"
#include "serialize/io.h"
#include "tensor/tensor.h"

namespace pilote {
namespace testing {

// Gaussian-blob dataset: `per_class` rows per class, class c centered at
// (c * separation) on every coordinate, isotropic unit-ish noise. Cheap,
// separable, and label-checkable — the workhorse for trainer/core tests.
inline data::Dataset MakeBlobs(const std::vector<int>& classes, int per_class,
                               int64_t dim, float separation, Rng& rng,
                               float noise = 1.0f) {
  const int64_t n = static_cast<int64_t>(classes.size()) * per_class;
  Tensor features(Shape::Matrix(n, dim));
  std::vector<int> labels;
  labels.reserve(static_cast<size_t>(n));
  int64_t row = 0;
  for (int label : classes) {
    for (int i = 0; i < per_class; ++i) {
      for (int64_t d = 0; d < dim; ++d) {
        features(row, d) = static_cast<float>(
            label * separation + rng.Gaussian(0.0, noise));
      }
      labels.push_back(label);
      ++row;
    }
  }
  return data::Dataset(std::move(features), std::move(labels));
}

// Handcrafts a valid CloudArtifact without running cloud pre-training: a
// randomly initialized backbone (serialized, as shipped), a scaler fit on
// random data, and `num_classes` clusters of `exemplars_per_class` rows
// offset by label so the NCM geometry is non-degenerate. Keeps the serving
// tests fast enough to run under TSan, and a tiny backbone gives the
// corruption matrix a file small enough to flip every bit of.
inline core::CloudArtifact MakeTestArtifact(
    const nn::BackboneConfig& backbone, uint64_t seed = 4242,
    int num_classes = 4, int64_t exemplars_per_class = 8) {
  Rng rng(seed);
  nn::MlpBackbone model(backbone, rng);
  core::CloudArtifact artifact;
  artifact.backbone_config = backbone;
  artifact.model_payload = serialize::SerializeModuleToString(model);
  const int64_t input_dim = backbone.input_dim;
  artifact.scaler.Fit(Tensor::RandNormal(Shape::Matrix(64, input_dim), rng));
  for (int label = 0; label < num_classes; ++label) {
    Tensor exemplars = Tensor::RandNormal(
        Shape::Matrix(exemplars_per_class, input_dim), rng,
        /*mean=*/static_cast<float>(2 * label), 0.25f);
    artifact.support.SetClassExemplars(label,
                                       artifact.scaler.Transform(exemplars));
    artifact.old_classes.push_back(label);
  }
  return artifact;
}

// core::MakeEdgeLearner for tests whose artifact is well-formed: a failure
// aborts the test binary with the Status.
inline std::unique_ptr<core::EdgeLearner> MustMakeLearner(
    const std::string& strategy, const core::CloudArtifact& artifact,
    const core::PiloteConfig& config) {
  Result<std::unique_ptr<core::EdgeLearner>> learner =
      core::MakeEdgeLearner(strategy, artifact, config);
  PILOTE_CHECK(learner.ok()) << learner.status().ToString();
  return std::move(learner).value();
}

}  // namespace testing
}  // namespace pilote

#endif  // PILOTE_TESTS_TEST_UTIL_H_
