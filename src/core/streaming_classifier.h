#ifndef PILOTE_CORE_STREAMING_CLASSIFIER_H_
#define PILOTE_CORE_STREAMING_CLASSIFIER_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "common/hot_path.h"
#include "core/edge_learner.h"
#include "core/vote_ring.h"
#include "har/window_assembler.h"

namespace pilote {
namespace core {

// On-device streaming inference: consumes the raw sensor stream sample by
// sample, runs the paper's preprocessing (denoise + 1 s segmentation +
// feature extraction), classifies every completed window and smooths the
// prediction with a majority vote over the last `vote_window` windows
// (activities change on multi-second timescales, so a vote suppresses
// isolated misclassifications — the "post-processing" the paper's Sec 2.3
// alludes to).
class StreamingClassifier {
 public:
  // One config source for all streaming consumers: the same struct lives in
  // PiloteConfig::streaming, so serving sessions and standalone classifiers
  // cannot drift apart. Validate with core::ValidateStreamingOptions.
  using Options = StreamingOptions;

  // `learner` must outlive the classifier; its current model/prototypes
  // are used for every window (so incremental updates apply immediately).
  StreamingClassifier(const EdgeLearner* learner, const Options& options);

  // Feeds one sensor sample [har::kNumChannels]. Returns a prediction
  // when this sample completes a window, std::nullopt otherwise.
  PILOTE_HOT_PATH std::optional<int> PushSample(const Tensor& sample);

  // Feeds a [t, kNumChannels] block; returns one label per completed
  // window, in order.
  std::vector<int> PushBlock(const Tensor& samples);

  // Most recent smoothed prediction (NotFound before the first window).
  Result<int> CurrentActivity() const;

  // Windows classified since construction.
  int64_t windows_classified() const { return windows_classified_; }

 private:
  int ClassifyWindow();
  int MajorityVote() const;

  const EdgeLearner* learner_;
  Options options_;
  har::WindowAssembler assembler_;  // preallocated current-window buffer
  VoteRing recent_;                 // last vote_window raw labels
  Tensor features_;                 // [1, kNumFeatures] scratch, reused
  int64_t windows_classified_ = 0;
  std::optional<int> current_;
};

}  // namespace core
}  // namespace pilote

#endif  // PILOTE_CORE_STREAMING_CLASSIFIER_H_
