#ifndef PILOTE_SERVE_SESSION_H_
#define PILOTE_SERVE_SESSION_H_

#include <memory>

#include "common/thread_annotations.h"
#include "common/hot_path.h"
#include "core/vote_ring.h"
#include "serve/learner_handle.h"
#include "serve/types.h"

namespace pilote {
namespace serve {

// Per-device vote state of one stream of feature windows. Raw samples are
// windowed on the device (core::StreamingClassifier); a session only
// smooths the batched labels of the windows it is sent. The batching
// engine delivers labels (CompleteWindow) in the FIFO order of its queue;
// a deadline miss reads the last smoothed label (LastPrediction). Both
// sides take the one per-session mutex.
class Session {
 public:
  Session(SessionId id, std::shared_ptr<LearnerHandle> learner,
          int vote_window);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id() const { return id_; }
  const std::shared_ptr<LearnerHandle>& learner() const { return learner_; }

  // Records the raw label of a completed window and returns the smoothed
  // majority-vote label (the stream's user-facing prediction).
  PILOTE_HOT_PATH int CompleteWindow(int raw_label) PILOTE_EXCLUDES(mutex_);

  // Last smoothed label, degraded-flagged — what a deadline miss returns.
  Prediction LastPrediction() const PILOTE_EXCLUDES(mutex_);

 private:
  const SessionId id_;
  const std::shared_ptr<LearnerHandle> learner_;

  mutable Mutex mutex_;
  // Last vote_window raw labels, fixed-capacity.
  core::VoteRing recent_ PILOTE_GUARDED_BY(mutex_);
  int last_smoothed_ PILOTE_GUARDED_BY(mutex_) = kNoPrediction;
};

}  // namespace serve
}  // namespace pilote

#endif  // PILOTE_SERVE_SESSION_H_
