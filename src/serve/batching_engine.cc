#include "serve/batching_engine.h"

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/macros.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/learner_handle.h"

namespace pilote {
namespace serve {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BatchingEngine::BatchingEngine(const ServeOptions& options)
    : options_(options),
      queue_(static_cast<size_t>(options.queue_capacity)),
      stage_ms_(obs::FamilyRegistry::Global().GetHistogramFamily(
          "serve/stage_ms", "stage", {"queue_wait", "batch_wait", "predict"})),
      degraded_(obs::FamilyRegistry::Global().GetCounterFamily(
          "serve/degraded_total", "reason", {"fault"})),
      last_progress_ns_(SteadyNowNs()) {
  Status valid = ValidateServeOptions(options_);
  PILOTE_CHECK(valid.ok()) << valid.ToString();
  // lifetime-ok: Stop() (called by the destructor) joins worker_ before
  // `this` is destroyed
  worker_ = std::thread([this] { WorkerLoop(); });
}

BatchingEngine::~BatchingEngine() { Stop(); }

bool BatchingEngine::Submit(PredictRequest request) {
  const bool accepted = queue_.TryPush(std::move(request));
  PILOTE_METRIC_GAUGE_SET("serve/queue_depth",
                          static_cast<double>(queue_.size()));
  return accepted;
}

void BatchingEngine::Stop() {
  {
    MutexLock lock(pause_mutex_);
    stopping_ = true;
    paused_ = false;
  }
  pause_cv_.NotifyAll();
  queue_.Close();
  if (worker_.joinable()) worker_.join();
}

int64_t BatchingEngine::batches_flushed() const {
  MutexLock lock(stats_mutex_);
  return batches_flushed_;
}

void BatchingEngine::PauseForTesting() {
  MutexLock lock(pause_mutex_);
  paused_ = true;
  // Kick the worker out of a blocking pop so it reaches the pause gate,
  // then wait for it to park: on return, nothing drains the queue until
  // ResumeForTesting.
  queue_.Interrupt();
  while (!parked_ && !stopping_) {
    pause_cv_.Wait(pause_mutex_);
  }
}

void BatchingEngine::ResumeForTesting() {
  {
    MutexLock lock(pause_mutex_);
    paused_ = false;
  }
  pause_cv_.NotifyAll();
}

void BatchingEngine::WorkerLoop() {
  std::vector<PredictRequest> batch;
  while (true) {
    {
      MutexLock lock(pause_mutex_);
      if (paused_ && !stopping_) {
        parked_ = true;
        pause_cv_.NotifyAll();
        while (paused_ && !stopping_) {
          pause_cv_.Wait(pause_mutex_);
        }
        parked_ = false;
      }
    }
    if (!queue_.PopBatch(batch, static_cast<size_t>(options_.max_batch),
                         std::chrono::microseconds(options_.max_delay_us))) {
      break;  // closed and drained
    }
    last_progress_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
    if (batch.empty()) continue;  // interrupted pop: re-check the gate
    if (obs::Enabled()) {
      const auto dequeued = std::chrono::steady_clock::now();
      for (PredictRequest& request : batch) request.dequeue_time = dequeued;
    }
    ProcessBatch(batch);
    last_progress_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  }
}

void BatchingEngine::ProcessBatch(std::vector<PredictRequest>& batch) {
  PILOTE_TRACE_SPAN("serve/process_batch");
  alloc::AllocationScope alloc_scope;
  {
    // Surfaced by the annotation pass: this counter was declared guarded by
    // stats_mutex_ but no path ever advanced it, so batches_flushed()
    // always reported 0.
    MutexLock lock(stats_mutex_);  // hotpath-ok: uncontended stats tick
    ++batches_flushed_;
  }
  PILOTE_METRIC_COUNT("serve/batches", 1);
  PILOTE_METRIC_HISTOGRAM("serve/batch_size",
                          static_cast<double>(batch.size()));
  PILOTE_METRIC_GAUGE_SET("serve/queue_depth",
                          static_cast<double>(queue_.size()));

  // Group requests by learner, preserving arrival order within each group,
  // so each distinct learner gets exactly one batched forward. The group
  // index is member scratch: it grows to the distinct-learner high-water
  // mark once and is reused (capacity-preserving clear) ever after.
  group_count_ = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const LearnerHandle* key = batch[i].session->learner().get();
    size_t g = 0;
    for (; g < group_count_; ++g) {
      if (group_keys_[g] == key) break;
    }
    if (g == group_count_) {
      if (group_count_ == group_keys_.size()) {
        group_keys_.push_back(nullptr);  // hotpath-ok: high-water growth
        group_rows_.emplace_back();      // hotpath-ok: high-water growth
      }
      group_keys_[g] = key;
      group_rows_[g].clear();
      ++group_count_;
    }
    group_rows_[g].push_back(i);  // hotpath-ok: capacity reused across flushes
  }

  for (size_t g = 0; g < group_count_; ++g) {
    const std::vector<size_t>& rows = group_rows_[g];
    const int64_t dim = batch[rows.front()].features.cols();
    const int64_t n = static_cast<int64_t>(rows.size());
    // Assemble the [n, dim] forward input in the reused member buffer:
    // same values and layout as ConcatRows of the request rows, without
    // the per-flush tensor vector and concat allocation.
    if (flush_features_.rank() != 2 || flush_features_.cols() != dim) {
      flush_features_ =
          Tensor(Shape::Matrix(n, dim));  // hotpath-ok: first flush only
    } else {
      flush_features_.ResizeRows(n);
    }
    for (size_t k = 0; k < rows.size(); ++k) {
      const Tensor& row = batch[rows[k]].features;
      PILOTE_DCHECK(row.rank() == 2 && row.rows() == 1 && row.cols() == dim);
      std::memcpy(flush_features_.row(static_cast<int64_t>(k)), row.data(),
                  static_cast<size_t>(dim) * sizeof(float));
    }
    const Tensor& features = flush_features_;

    // Runs under the predict's shared lock: windows are resolved before a
    // newer version is published, and exemplars name the labeling version.
    const auto predict_start = std::chrono::steady_clock::now();
    auto complete = [&](const std::vector<int>& labels,
                        int64_t model_version) {
      const auto predict_end = std::chrono::steady_clock::now();
      PILOTE_CHECK_EQ(labels.size(), rows.size());
      for (size_t k = 0; k < rows.size(); ++k) {
        PredictRequest& request = batch[rows[k]];
        const int smoothed = request.session->CompleteWindow(labels[k]);
        request.done.set_value(smoothed);
        using MilliDouble = std::chrono::duration<double, std::milli>;
        const double request_ms =
            MilliDouble(std::chrono::steady_clock::now() -
                        request.enqueue_time)
                .count();
        PILOTE_METRIC_HISTOGRAM("serve/request_ms", request_ms);
        if (obs::Enabled()) {
          RecordStages(request, model_version, predict_start, predict_end,
                       request_ms);
        }
      }
    };

    // Bounded retry-with-backoff on transient faults: the learner forward
    // may report kUnavailable (in production a device-side brownout, in the
    // chaos suite the "serve/predict" failpoint). Anything else fails the
    // batch immediately — retrying a deterministic error only burns the
    // latency budget.
    Status served = group_keys_[g]->TryPredictBatch(features, complete);
    for (int attempt = 0; !served.ok() &&
                          served.code() == StatusCode::kUnavailable &&
                          attempt < options_.predict_retries;
         ++attempt) {
      PILOTE_METRIC_COUNT("serve/faults_injected", 1);
      if (options_.retry_backoff_us > 0) {
        // hotpath-ok: fault-retry backoff, cold path by construction
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.retry_backoff_us << attempt));
      }
      served = group_keys_[g]->TryPredictBatch(features, complete);
      if (served.ok()) PILOTE_METRIC_COUNT("serve/recoveries", 1);
    }

    if (!served.ok()) {
      // Retry budget exhausted (or non-transient): complete every request
      // degraded with the session's last smoothed label, leaving the vote
      // history untouched — the same contract as a deadline miss.
      PILOTE_METRIC_COUNT("serve/faults_injected", 1);
      CountDegradedFault(static_cast<int64_t>(rows.size()));
      for (size_t k = 0; k < rows.size(); ++k) {
        PredictRequest& request = batch[rows[k]];
        request.done.set_value(request.session->LastPrediction().label);
      }
    }
  }

  // Runtime side of the hot-path discipline: with PILOTE_ALLOC_STATS armed
  // (or a ScopedTracking in scope), every flush reports how often the
  // worker thread hit the allocator. bench_serving and the allocation-pin
  // test read these back through the metrics registry.
  if (alloc::TrackingEnabled()) {
    PILOTE_METRIC_COUNT("serve/flush_allocs", alloc_scope.count());
    PILOTE_METRIC_COUNT("serve/flush_alloc_bytes", alloc_scope.bytes());
    PILOTE_METRIC_HISTOGRAM("serve/window_allocs",
                            static_cast<double>(alloc_scope.count()) /
                                static_cast<double>(batch.size()));
  }
}

// hotpath-ok: one relaxed-atomic bump on the cold fault path; the bare
// `Add` call must not enter the hot-path call graph, where it would alias
// the tensor Add by name.
void BatchingEngine::CountDegradedFault(int64_t rows) {
  if (obs::Enabled()) degraded_.At(0).Add(rows);
}

void BatchingEngine::RecordStages(
    const PredictRequest& request, int64_t model_version,
    std::chrono::steady_clock::time_point predict_start,
    std::chrono::steady_clock::time_point predict_end, double request_ms) {
  using MilliDouble = std::chrono::duration<double, std::milli>;
  const double queue_wait_ms =
      MilliDouble(request.dequeue_time - request.enqueue_time).count();
  const double batch_wait_ms =
      MilliDouble(predict_start - request.dequeue_time).count();
  const double predict_ms = MilliDouble(predict_end - predict_start).count();
  stage_ms_.At(kQueueWaitSlot).Record(queue_wait_ms);
  stage_ms_.At(kBatchWaitSlot).Record(batch_wait_ms);
  stage_ms_.At(kPredictSlot).Record(predict_ms);

  // Slow-window exemplar policy: any window landing in / establishing the
  // top occupied latency bucket observed so far — the windows that define
  // the tail.
  const int bucket = obs::Histogram::BucketIndex(request_ms);
  int top = top_bucket_.load(std::memory_order_relaxed);
  if (bucket >= top) {
    while (bucket > top &&
           !top_bucket_.compare_exchange_weak(top, bucket,
                                              std::memory_order_relaxed)) {
    }
    obs::SlowWindowExemplar exemplar;
    exemplar.session_id = request.session->id();
    exemplar.model_version = model_version;
    exemplar.queue_wait_ms = queue_wait_ms;
    exemplar.batch_wait_ms = batch_wait_ms;
    exemplar.predict_ms = predict_ms;
    exemplar.total_ms = request_ms;
    obs::SlowWindows().Record(exemplar);
  }
}

}  // namespace serve
}  // namespace pilote
