#ifndef PILOTE_SERVE_LEARNER_HANDLE_H_
#define PILOTE_SERVE_LEARNER_HANDLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/hot_path.h"
#include "common/thread_annotations.h"
#include "core/edge_learner.h"

namespace pilote {
namespace serve {

// Concurrency wrapper around one EdgeLearner shared by many sessions (the
// paper's fan-out shape: one cloud artifact seeds a fleet of device
// streams). Reads take the shared side of a reader-writer lock and only
// reach EdgeLearner's const surface; LearnNewClasses takes the exclusive
// side, which quiesces every stream predicting through this learner until
// the incremental update (and its prototype rebuild) completes.
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

  // PredictBatch with a fault hook: the "serve/predict" failpoint can
  // inject a transient kUnavailable here, which the batching engine's
  // bounded retry-with-backoff absorbs. The plain PredictBatch above stays
  // infallible for callers outside the serving path.
  PILOTE_HOT_PATH Result<std::vector<int>> TryPredictBatch(
      const Tensor& raw_features) const
      PILOTE_EXCLUDES(mutex_);

  // Incremental update under the exclusive lock. Non-OK means the learner
  // rejected or rolled back the update (see
  // core::EdgeLearner::LearnNewClasses); the serving state is unchanged.
  Result<core::TrainReport> LearnNewClasses(const data::Dataset& d_new)
      PILOTE_EXCLUDES(mutex_);

  // Immutable after construction; lock-free.
  int64_t input_dim() const { return input_dim_; }

  // Snapshot of the learner's mutation counter. Deliberately lock-free:
  // the counter is an atomic inside EdgeLearner, so this read is safe
  // without the handle's lock even while LearnNewClasses is running.
  int64_t model_version() const PILOTE_NO_THREAD_SAFETY_ANALYSIS {
    return learner_->model_version();
  }

  // Number of classes currently known, under the shared lock.
  int64_t NumKnownClasses() const PILOTE_EXCLUDES(mutex_);

 private:
  mutable SharedMutex mutex_;
  std::unique_ptr<core::EdgeLearner> learner_ PILOTE_PT_GUARDED_BY(mutex_);
  const int64_t input_dim_;
};

}  // namespace serve
}  // namespace pilote

#endif  // PILOTE_SERVE_LEARNER_HANDLE_H_
