#include "core/streaming_classifier.h"

#include "common/timer.h"
#include "har/feature_extractor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace core {

namespace {

const StreamingOptions& Validated(const StreamingOptions& options) {
  Status valid = ValidateStreamingOptions(options);
  PILOTE_CHECK(valid.ok()) << valid.ToString();
  return options;
}

}  // namespace

StreamingClassifier::StreamingClassifier(const EdgeLearner* learner,
                                         const Options& options)
    : learner_(learner),
      options_(Validated(options)),
      assembler_(options_.window_length, options_.denoise_half_width),
      recent_(options_.vote_window) {
  PILOTE_CHECK(learner != nullptr);
}

std::optional<int> StreamingClassifier::PushSample(const Tensor& sample) {
  if (!assembler_.Append(sample, &features_)) return std::nullopt;
  return ClassifyWindow();
}

std::vector<int> StreamingClassifier::PushBlock(const Tensor& samples) {
  PILOTE_CHECK_EQ(samples.rank(), 2);
  PILOTE_CHECK_EQ(samples.cols(), har::kNumChannels);
  std::vector<int> predictions;
  for (int64_t t = 0; t < samples.rows(); ++t) {
    std::optional<int> label = PushSample(RowAt(samples, t));
    if (label.has_value()) predictions.push_back(*label);
  }
  return predictions;
}

int StreamingClassifier::ClassifyWindow() {
  PILOTE_TRACE_SPAN("core/classify_window");
  WallTimer timer;
  // features_ was filled by the assembler when the window completed.
  const int raw = learner_->Predict(features_).front();
  PILOTE_METRIC_COUNT("core/windows_classified", 1);
  PILOTE_METRIC_HISTOGRAM("core/stream_window_ms",
                          timer.ElapsedSeconds() * 1e3);

  ++windows_classified_;
  recent_.Push(raw);
  current_ = MajorityVote();
  return *current_;
}

int StreamingClassifier::MajorityVote() const {
  return recent_.MajorityLabel();
}

Result<int> StreamingClassifier::CurrentActivity() const {
  if (!current_.has_value()) {
    return Status::NotFound("no complete window classified yet");
  }
  return *current_;
}

}  // namespace core
}  // namespace pilote
