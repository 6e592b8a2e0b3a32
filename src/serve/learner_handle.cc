#include "serve/learner_handle.h"

#include <utility>

#include "obs/trace.h"

namespace pilote {
namespace serve {
namespace {

int64_t CheckedInputDim(const core::EdgeLearner* learner) {
  PILOTE_CHECK(learner != nullptr);
  return learner->config().backbone.input_dim;
}

}  // namespace

LearnerHandle::LearnerHandle(std::unique_ptr<core::EdgeLearner> learner)
    : learner_(std::move(learner)), input_dim_(CheckedInputDim(learner_.get())) {}

Result<std::shared_ptr<LearnerHandle>> LearnerHandle::Create(
    const std::string& strategy, const core::CloudArtifact& artifact,
    const core::PiloteConfig& config) {
  PILOTE_ASSIGN_OR_RETURN(std::unique_ptr<core::EdgeLearner> learner,
                          core::MakeEdgeLearner(strategy, artifact, config));
  return std::make_shared<LearnerHandle>(std::move(learner));
}

std::vector<int> LearnerHandle::PredictBatch(const Tensor& raw_features) const {
  ReaderLock lock(mutex_);
  return learner_->PredictBatch(raw_features);
}

Result<core::TrainReport> LearnerHandle::LearnNewClasses(
    const data::Dataset& d_new) {
  PILOTE_TRACE_SPAN("serve/learn_new_classes");
  MutexLock serialized(update_mutex_);
  Result<core::EdgeLearner::StagedUpdate> update = [&] {
    ReaderLock lock(mutex_);
    return learner_->StageNewClasses(d_new);
  }();
  if (!update.ok()) return update.status();
  {
    WriterLock lock(mutex_);
    learner_->CommitNewClasses(*update);
  }
  // `update` now holds the old state, freed outside the exclusive lock.
  return update->report;
}

int64_t LearnerHandle::NumKnownClasses() const {
  ReaderLock lock(mutex_);
  return static_cast<int64_t>(learner_->known_classes().size());
}

}  // namespace serve
}  // namespace pilote
