#include "serve/session.h"

#include <utility>

#include "common/macros.h"

namespace pilote {
namespace serve {

Session::Session(SessionId id, std::shared_ptr<LearnerHandle> learner,
                 int vote_window)
    : id_(id), learner_(std::move(learner)), recent_(vote_window) {
  PILOTE_CHECK(learner_ != nullptr);
}

int Session::CompleteWindow(int raw_label) {
  // hotpath-ok: per-session mutex, uncontended in steady state
  MutexLock lock(mutex_);
  recent_.Push(raw_label);
  last_smoothed_ = recent_.MajorityLabel();
  return last_smoothed_;
}

Prediction Session::LastPrediction() const {
  // hotpath-ok: per-session mutex, uncontended in steady state
  MutexLock lock(mutex_);
  Prediction p;
  p.label = last_smoothed_;
  p.degraded = true;
  return p;
}

}  // namespace serve
}  // namespace pilote
