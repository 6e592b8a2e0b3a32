#ifndef PILOTE_SERVE_BATCHING_ENGINE_H_
#define PILOTE_SERVE_BATCHING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/hot_path.h"
#include "common/thread_annotations.h"
#include "obs/labels.h"
#include "serve/session.h"
#include "serve/types.h"
#include "tensor/tensor.h"

namespace pilote {
namespace serve {

// One completed feature window awaiting classification. The timestamps
// split end-to-end latency into stages: enqueue->dequeue is queue wait,
// dequeue->forward start is batch wait (grouping/assembly plus waiting for
// earlier groups in the flush), forward start->completion is predict.
struct PredictRequest {
  std::shared_ptr<Session> session;
  Tensor features;  // [1, input_dim] raw feature row
  std::chrono::steady_clock::time_point enqueue_time;
  // Stamped by the worker when the request leaves the queue (only while
  // metric recording is enabled; unused otherwise).
  std::chrono::steady_clock::time_point dequeue_time;
  std::promise<int> done;  // fulfilled with the smoothed label
};

// Pulls completed windows from every session through one bounded MPSC
// queue and coalesces them into batched backbone forwards: each drained
// batch is grouped by learner, concatenated, and classified with a single
// PredictBatch per learner (one GEMM chain for K windows instead of K).
// Flushes on max_batch or max_delay_us, whichever comes first. A full
// queue makes Submit fail — the manager turns that into
// kResourceExhausted backpressure.
class BatchingEngine {
 public:
  explicit BatchingEngine(const ServeOptions& options);
  ~BatchingEngine();

  BatchingEngine(const BatchingEngine&) = delete;
  BatchingEngine& operator=(const BatchingEngine&) = delete;

  // Non-blocking; false when the queue is full (backpressure) or the
  // engine is stopped. On false the request's promise is untouched.
  bool Submit(PredictRequest request);

  // Closes the queue, drains remaining requests (their promises are
  // fulfilled) and joins the worker. Idempotent.
  void Stop() PILOTE_EXCLUDES(pause_mutex_);

  // Windows awaiting a batch slot.
  int64_t queue_depth() const { return static_cast<int64_t>(queue_.size()); }

  // Test hooks: while paused the worker stops draining the queue, which
  // makes backpressure and deadline misses deterministic to provoke.
  void PauseForTesting() PILOTE_EXCLUDES(pause_mutex_);
  void ResumeForTesting() PILOTE_EXCLUDES(pause_mutex_);

 private:
  void WorkerLoop() PILOTE_EXCLUDES(pause_mutex_);
  PILOTE_HOT_PATH void ProcessBatch(std::vector<PredictRequest>& batch);
  // Stage histograms + slow-window exemplar capture for one completed
  // request. `model_version` is the version that labeled it.
  PILOTE_HOT_PATH void RecordStages(const PredictRequest& request,
                                    int64_t model_version,
                                    std::chrono::steady_clock::time_point
                                        predict_start,
                                    std::chrono::steady_clock::time_point
                                        predict_end,
                                    double request_ms);

  const ServeOptions options_;
  BoundedQueue<PredictRequest> queue_;  // unguarded: internally synchronized

  Mutex pause_mutex_;
  CondVar pause_cv_;  // unguarded: internally synchronized
  bool paused_ PILOTE_GUARDED_BY(pause_mutex_) = false;
  // Worker is waiting at the pause gate.
  bool parked_ PILOTE_GUARDED_BY(pause_mutex_) = false;
  bool stopping_ PILOTE_GUARDED_BY(pause_mutex_) = false;

  // Flush scratch, reused across flushes so the steady state never hits
  // the allocator: the group index and the assembled feature matrix keep
  // their capacity between ProcessBatch calls (hot-path discipline).
  // Row indices into the drained batch, one list per distinct learner.
  std::vector<std::vector<size_t>> group_rows_;   // unguarded: worker only
  std::vector<const LearnerHandle*> group_keys_;  // unguarded: worker only
  size_t group_count_ = 0;                        // unguarded: worker only
  Tensor flush_features_;                         // unguarded: worker only

  // Per-stage latency family, slots kQueueWaitSlot/kBatchWaitSlot/
  // kPredictSlot of serve/stage_ms{stage=...}. Resolved once here so the
  // worker records through stable handles, lock- and alloc-free.
  static constexpr size_t kQueueWaitSlot = 0;
  static constexpr size_t kBatchWaitSlot = 1;
  static constexpr size_t kPredictSlot = 2;
  const obs::HistogramFamily stage_ms_;  // unguarded: handles are lock-free

  // Highest occupied serve/request_ms bucket; the slow-window exemplar
  // threshold.
  std::atomic<int> top_bucket_{0};

  std::thread worker_;  // unguarded: started in ctor, joined in Stop
};

}  // namespace serve
}  // namespace pilote

#endif  // PILOTE_SERVE_BATCHING_ENGINE_H_
