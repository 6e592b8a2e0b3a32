#include "har/feature_extractor.h"

#include "common/macros.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace har {
namespace {

// Mean and biased variance of a strided channel column.
void MeanVar(const Tensor& window, int channel, double* mean, double* var) {
  const int64_t n = window.rows();
  double sum = 0.0;
  for (int64_t t = 0; t < n; ++t) sum += window(t, channel);
  const double mu = sum / static_cast<double>(n);
  double acc = 0.0;
  for (int64_t t = 0; t < n; ++t) {
    const double d = window(t, channel) - mu;
    acc += d * d;
  }
  *mean = mu;
  *var = acc / static_cast<double>(n);
}

// Mean and variance of the jerk (discrete derivative) of a channel.
void JerkMeanVar(const Tensor& window, int channel, double* mean,
                 double* var) {
  const int64_t n = window.rows();
  PILOTE_CHECK_GE(n, 2);
  const double rate = static_cast<double>(kSampleRateHz);
  double sum = 0.0;
  for (int64_t t = 1; t < n; ++t) {
    sum += (window(t, channel) - window(t - 1, channel)) * rate;
  }
  const double mu = sum / static_cast<double>(n - 1);
  double acc = 0.0;
  for (int64_t t = 1; t < n; ++t) {
    const double j = (window(t, channel) - window(t - 1, channel)) * rate;
    acc += (j - mu) * (j - mu);
  }
  *mean = mu;
  *var = acc / static_cast<double>(n - 1);
}

// Writes the kNumFeatures features of `window` to `out`; the single
// implementation behind every public extraction entry point, so the
// allocating and in-place variants cannot diverge numerically. Takes a
// Span so every write is bounds- and staleness-checked in debug builds.
void FillFeatures(const Tensor& window, Span<float> out) {
  PILOTE_CHECK_EQ(window.rank(), 2);
  PILOTE_CHECK_EQ(window.cols(), kNumChannels);
  PILOTE_CHECK_GE(window.rows(), 2);
  PILOTE_CHECK_EQ(static_cast<int64_t>(out.size()), kNumFeatures);
  int64_t f = 0;
  for (int c = 0; c < kNumChannels; ++c) {
    double mean = 0.0;
    double var = 0.0;
    MeanVar(window, c, &mean, &var);
    out[f++] = static_cast<float>(mean);
    out[f++] = static_cast<float>(var);
  }
  for (int c = 0; c < kNumTriAxisChannels; ++c) {
    double mean = 0.0;
    double var = 0.0;
    JerkMeanVar(window, c, &mean, &var);
    out[f++] = static_cast<float>(mean);
    out[f++] = static_cast<float>(var);
  }
  PILOTE_CHECK_EQ(f, kNumFeatures);
}

}  // namespace

Tensor ExtractFeatures(const Tensor& window) {
  Tensor features(Shape::Vector(kNumFeatures));
  FillFeatures(window, features.span());
  return features;
}

void ExtractFeaturesInto(const Tensor& window, Tensor* features) {
  PILOTE_CHECK(features != nullptr);
  if (features->rank() != 2 || features->rows() != 1 ||
      features->cols() != kNumFeatures) {
    *features = Tensor(Shape::Matrix(1, kNumFeatures));  // hotpath-ok: first window only
  }
  FillFeatures(window, features->span());
}

const std::vector<std::string>& FeatureNames() {
  static const std::vector<std::string>* names = [] {
    auto* result = new std::vector<std::string>();
    result->reserve(kNumFeatures);
    for (int c = 0; c < kNumChannels; ++c) {
      const std::string base(kChannelNames[static_cast<size_t>(c)]);
      result->push_back(base + "_mean");
      result->push_back(base + "_var");
    }
    for (int c = 0; c < kNumTriAxisChannels; ++c) {
      const std::string base(kChannelNames[static_cast<size_t>(c)]);
      result->push_back(base + "_jerk_mean");
      result->push_back(base + "_jerk_var");
    }
    return result;
  }();
  return *names;
}

}  // namespace har
}  // namespace pilote
