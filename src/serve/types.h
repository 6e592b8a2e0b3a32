#ifndef PILOTE_SERVE_TYPES_H_
#define PILOTE_SERVE_TYPES_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace pilote {
namespace serve {

// Identifies one device stream within a SessionManager. Ids are assigned
// by the manager, never reused, and shard routing is
// id % SessionManager::kNumShards.
using SessionId = uint64_t;

// Returned for degraded predictions before any window of the session has
// been classified.
inline constexpr int kNoPrediction = -1;

// Serving-layer tuning knobs. Validate with ValidateServeOptions before
// constructing a SessionManager from untrusted configuration.
struct ServeOptions {
  // Cross-stream coalescing: the batcher flushes at `max_batch` windows or
  // `max_delay_us` after the first pending window, whichever comes first.
  // max_batch == 1 disables batching (the row-at-a-time baseline).
  int max_batch = 16;
  int64_t max_delay_us = 2000;
  // Bound on windows awaiting a batch slot. A full queue rejects new
  // windows with kResourceExhausted instead of blocking ingest.
  int64_t queue_capacity = 256;
};

inline Status ValidateServeOptions(const ServeOptions& options) {
  if (options.max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1, got " +
                                   std::to_string(options.max_batch));
  }
  if (options.max_delay_us < 0) {
    return Status::InvalidArgument("max_delay_us must be >= 0, got " +
                                   std::to_string(options.max_delay_us));
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1, got " +
                                   std::to_string(options.queue_capacity));
  }
  return Status::Ok();
}

// One classified (or degraded) window as seen by the caller.
struct Prediction {
  int label = kNoPrediction;
  // True when the request deadline passed before the batch completed and
  // `label` is the session's last majority-vote label instead (the paper's
  // activities change on multi-second timescales, so the previous smoothed
  // label is the best available answer under overload).
  bool degraded = false;
};

}  // namespace serve
}  // namespace pilote

#endif  // PILOTE_SERVE_TYPES_H_
