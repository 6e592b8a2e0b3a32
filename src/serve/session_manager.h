#ifndef PILOTE_SERVE_SESSION_MANAGER_H_
#define PILOTE_SERVE_SESSION_MANAGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <unordered_map>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "obs/labels.h"
#include "serve/batching_engine.h"
#include "serve/learner_handle.h"
#include "serve/session.h"
#include "serve/types.h"

namespace pilote {
namespace serve {

// Multi-session front door of the edge serving layer. Owns per-device
// sessions behind sharded mutexes (shard = id % kNumShards) and one
// BatchingEngine that coalesces the feature windows of every session into
// batched backbone forwards. Sessions take feature windows: raw samples
// are windowed on the device (core::StreamingClassifier). Thread-safe: any
// number of ingest threads may push to distinct or identical sessions
// concurrently.
class SessionManager {
 public:
  explicit SessionManager(const ServeOptions& options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Registers a device stream predicting through `learner` (many sessions
  // may share one handle), smoothing labels over options.vote_window.
  // kInvalidArgument on a null handle or bad streaming options.
  Result<SessionId> CreateSession(std::shared_ptr<LearnerHandle> learner,
                                  const core::StreamingOptions& options);

  // kNotFound when the id was never created or already closed. Windows of
  // the session still in flight are classified and discarded.
  Status CloseSession(SessionId id);

  // Async path: enqueues one completed [1, input_dim] feature window for
  // batched classification and returns a future of the smoothed label.
  // kResourceExhausted when the batching queue is full (backpressure);
  // kInvalidArgument on a shape mismatch or a non-finite element;
  // kNotFound for unknown ids.
  Result<std::future<int>> SubmitWindow(SessionId id, const Tensor& features);

  // Sync path with a deadline: blocks until the batched prediction lands
  // or `deadline` elapses, then degrades to the session's last
  // majority-vote label (kNoPrediction before the first window) with
  // degraded=true. deadline <= 0 waits without bound.
  Result<Prediction> PushWindow(SessionId id, const Tensor& features,
                                std::chrono::microseconds deadline);

  // Incremental update through the session's learner; its streams keep
  // being served while the update trains (LearnerHandle).
  Result<core::TrainReport> LearnNewClasses(SessionId id,
                                            const data::Dataset& d_new);

  int64_t NumSessions() const;

  // The engine, for tests (pause/resume).
  BatchingEngine& engine() { return *engine_; }

 private:
  // Session-table shards; each has its own mutex so concurrent ingest
  // threads for different devices rarely contend.
  static constexpr size_t kNumShards = 4;

  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<SessionId, std::shared_ptr<Session>> sessions
        PILOTE_GUARDED_BY(mutex);
  };

  static constexpr size_t kDeadlineSlot = 0;
  static constexpr size_t kBackpressureSlot = 1;
  static constexpr size_t kShapeRejectSlot = 0;
  static constexpr size_t kNonFiniteRejectSlot = 1;

  Shard& ShardFor(SessionId id);
  Result<std::shared_ptr<Session>> FindSession(SessionId id);

  const ServeOptions options_;
  std::array<Shard, kNumShards> shards_;
  std::atomic<SessionId> next_id_{1};
  // serve/degraded_total{reason=deadline|backpressure}.
  const obs::CounterFamily degraded_;
  // serve/rejected_total{reason=shape|non_finite}: feature rows
  // SubmitWindow refused before they reached the batcher.
  const obs::CounterFamily rejected_;
  // Declared last: the engine stops (draining its queue, which holds
  // shared_ptr<Session> references) before the shards are torn down.
  std::unique_ptr<BatchingEngine> engine_;
};

}  // namespace serve
}  // namespace pilote

#endif  // PILOTE_SERVE_SESSION_MANAGER_H_
