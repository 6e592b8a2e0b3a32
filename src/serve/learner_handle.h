#ifndef PILOTE_SERVE_LEARNER_HANDLE_H_
#define PILOTE_SERVE_LEARNER_HANDLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/result.h"
#include "common/hot_path.h"
#include "common/thread_annotations.h"
#include "core/edge_learner.h"

namespace pilote {
namespace serve {

// Concurrency wrapper around one EdgeLearner shared by many sessions (the
// paper's fan-out shape: one cloud artifact seeds a fleet of device
// streams). Reads take the shared side of a reader-writer lock and only
// reach EdgeLearner's const surface. LearnNewClasses trains under the
// shared side too, so streams keep predicting during an update; only its
// O(1) commit takes the exclusive side. The EdgeLearner never moves.
class LearnerHandle {
 public:
  explicit LearnerHandle(std::unique_ptr<core::EdgeLearner> learner);

  // Builds the learner through the validating core factory; propagates its
  // Status for bad strategies/artifacts instead of aborting.
  static Result<std::shared_ptr<LearnerHandle>> Create(
      const std::string& strategy, const core::CloudArtifact& artifact,
      const core::PiloteConfig& config);

  // Batched NCM inference under the shared lock: one scaler pass + one
  // backbone forward + one NCM pass for all rows.
  std::vector<int> PredictBatch(const Tensor& raw_features) const
      PILOTE_EXCLUDES(mutex_);

  // The serving path's PredictBatch: runs `complete(labels, version)`
  // under the predict's shared lock, so `version` produced `labels` and
  // `complete` finishes before the next commit. The "serve/predict"
  // failpoint can inject a transient kUnavailable instead, which the
  // batching engine's bounded retry-with-backoff absorbs.
  template <typename Complete>
  PILOTE_HOT_PATH Status TryPredictBatch(const Tensor& raw_features,
                                         Complete&& complete) const
      PILOTE_EXCLUDES(mutex_) {
    PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("serve/predict"));
    ReaderLock lock(mutex_);
    complete(learner_->PredictBatch(raw_features), learner_->model_version());
    return Status::Ok();
  }

  // Stages the update under the shared lock, then commits it under the
  // exclusive one; updates run one at a time. Non-OK means the learner
  // rejected the update (see core::EdgeLearner::LearnNewClasses); the
  // serving state is unchanged.
  Result<core::TrainReport> LearnNewClasses(const data::Dataset& d_new)
      PILOTE_EXCLUDES(update_mutex_, mutex_);

  // Immutable after construction; lock-free.
  int64_t input_dim() const { return input_dim_; }

  // Snapshot of the learner's mutation counter. Deliberately lock-free:
  // the counter is an atomic inside EdgeLearner, so this read is safe
  // without the handle's lock even while an update commits.
  int64_t model_version() const PILOTE_NO_THREAD_SAFETY_ANALYSIS {
    return learner_->model_version();
  }

  // Number of classes currently known, under the shared lock.
  int64_t NumKnownClasses() const PILOTE_EXCLUDES(mutex_);

 private:
  // One update at a time, so a commit applies to the version it staged.
  Mutex update_mutex_ PILOTE_ACQUIRED_BEFORE(mutex_);
  mutable SharedMutex mutex_;
  std::unique_ptr<core::EdgeLearner> learner_ PILOTE_PT_GUARDED_BY(mutex_);
  const int64_t input_dim_;
};

}  // namespace serve
}  // namespace pilote

#endif  // PILOTE_SERVE_LEARNER_HANDLE_H_
