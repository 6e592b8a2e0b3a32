#include "serve/session_manager.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/metrics.h"

namespace pilote {
namespace serve {

namespace {

// Label values "0".."shards-1" of serve/shard_sessions{shard=...}.
std::vector<std::string> ShardLabels(size_t shards) {
  std::vector<std::string> labels;
  labels.reserve(shards);
  for (size_t s = 0; s < shards; ++s) labels.push_back(std::to_string(s));
  return labels;
}

}  // namespace

SessionManager::SessionManager(const ServeOptions& options)
    : options_(options),
      degraded_(obs::FamilyRegistry::Global().GetCounterFamily(
          "serve/degraded_total", "reason", {"deadline", "backpressure"})),
      rejected_(obs::FamilyRegistry::Global().GetCounterFamily(
          "serve/rejected_total", "reason", {"shape", "non_finite"})),
      shard_sessions_(obs::FamilyRegistry::Global().GetGaugeFamily(
          "serve/shard_sessions", "shard", ShardLabels(kNumShards))) {
  Status valid = ValidateServeOptions(options_);
  PILOTE_CHECK(valid.ok()) << valid.ToString();
  engine_ = std::make_unique<BatchingEngine>(options_);
  watchdog_ = std::make_unique<Watchdog>(engine_.get(), options_);
  watchdog_->Start();
}

SessionManager::~SessionManager() {
  watchdog_->Stop();
  engine_->Stop();
}

SessionManager::Shard& SessionManager::ShardFor(SessionId id) {
  return shards_[id % kNumShards];
}

Result<std::shared_ptr<Session>> SessionManager::FindSession(SessionId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mutex);
  auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) {
    return Status::NotFound("no session with id " + std::to_string(id));
  }
  return it->second;
}

void SessionManager::UpdateShardGauge(SessionId id) {
  if (!obs::Enabled()) return;
  const size_t shard_index = id % kNumShards;
  size_t count;
  {
    MutexLock lock(shards_[shard_index].mutex);
    count = shards_[shard_index].sessions.size();
  }
  shard_sessions_.At(shard_index).Set(static_cast<double>(count));
}

Result<SessionId> SessionManager::CreateSession(
    std::shared_ptr<LearnerHandle> learner,
    const core::StreamingOptions& options) {
  if (learner == nullptr) {
    return Status::InvalidArgument("CreateSession: learner handle is null");
  }
  PILOTE_RETURN_IF_ERROR(core::ValidateStreamingOptions(options));
  const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto session =
      std::make_shared<Session>(id, std::move(learner), options.vote_window);
  Shard& shard = ShardFor(id);
  {
    MutexLock lock(shard.mutex);
    shard.sessions.emplace(id, std::move(session));
  }
  PILOTE_METRIC_GAUGE_SET("serve/sessions_active",
                          static_cast<double>(NumSessions()));
  UpdateShardGauge(id);
  return id;
}

Status SessionManager::CloseSession(SessionId id) {
  Shard& shard = ShardFor(id);
  {
    MutexLock lock(shard.mutex);
    if (shard.sessions.erase(id) == 0) {
      return Status::NotFound("no session with id " + std::to_string(id));
    }
  }
  PILOTE_METRIC_GAUGE_SET("serve/sessions_active",
                          static_cast<double>(NumSessions()));
  UpdateShardGauge(id);
  return Status::Ok();
}

Result<std::future<int>> SessionManager::SubmitWindow(SessionId id,
                                                      const Tensor& features) {
  PILOTE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(id));
  const int64_t input_dim = session->learner()->input_dim();
  if (features.rank() != 2 || features.rows() != 1 ||
      features.cols() != input_dim) {
    if (obs::Enabled()) rejected_.At(kShapeRejectSlot).Increment();
    return Status::InvalidArgument(
        "SubmitWindow: expected a [1, " + std::to_string(input_dim) +
        "] feature row, got " + features.shape().ToString());
  }
  // A non-finite feature turns every NCM distance into NaN, and the
  // argmin over NaN distances returns the first class: reject the row
  // rather than answer with a confident wrong label.
  for (int64_t j = 0; j < input_dim; ++j) {
    if (!std::isfinite(features(0, j))) {
      if (obs::Enabled()) rejected_.At(kNonFiniteRejectSlot).Increment();
      return Status::InvalidArgument(
          "SubmitWindow: non-finite feature " +
          std::to_string(features(0, j)) + " at column " + std::to_string(j));
    }
  }
  PredictRequest request;
  request.session = std::move(session);
  request.features = features;
  request.enqueue_time = std::chrono::steady_clock::now();
  std::future<int> done = request.done.get_future();
  if (!engine_->Submit(std::move(request))) {
    PILOTE_METRIC_COUNT("serve/backpressure_rejects", 1);
    if (obs::Enabled()) degraded_.At(kBackpressureSlot).Increment();
    return Status::ResourceExhausted(
        "serving queue full (capacity " +
        std::to_string(options_.queue_capacity) + ")");
  }
  return done;
}

Result<Prediction> SessionManager::PushWindow(
    SessionId id, const Tensor& features, std::chrono::microseconds deadline) {
  PILOTE_ASSIGN_OR_RETURN(std::future<int> done, SubmitWindow(id, features));
  if (deadline.count() > 0 &&
      done.wait_for(deadline) != std::future_status::ready) {
    // Deadline miss: degrade to the session's last smoothed label. The
    // in-flight window still completes later and updates the vote.
    PILOTE_METRIC_COUNT("serve/deadline_degraded", 1);
    if (obs::Enabled()) degraded_.At(kDeadlineSlot).Increment();
    PILOTE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(id));
    return session->LastPrediction();
  }
  Prediction p;
  p.label = done.get();
  p.degraded = false;
  return p;
}

Result<core::TrainReport> SessionManager::LearnNewClasses(
    SessionId id, const data::Dataset& d_new) {
  PILOTE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(id));
  return session->learner()->LearnNewClasses(d_new);
}

int64_t SessionManager::NumSessions() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += static_cast<int64_t>(shard.sessions.size());
  }
  return total;
}

}  // namespace serve
}  // namespace pilote
