#ifndef PILOTE_CORE_EDGE_PROFILE_H_
#define PILOTE_CORE_EDGE_PROFILE_H_

#include <limits>
#include <string>

#include "core/edge_learner.h"

namespace pilote {
namespace core {

// Resource footprint of an edge deployment (the paper's Q2: storage and
// compute budget on the device).
struct EdgeProfileReport {
  int64_t model_parameters = 0;
  int64_t model_bytes = 0;          // parameters + buffers, float32
  int64_t support_exemplars = 0;
  int64_t support_bytes_fp32 = 0;
  int64_t support_bytes_fp16 = 0;
  int64_t support_bytes_int8 = 0;
  int64_t prototype_bytes = 0;
  // Heap allocations per classified window (scale + embed + NCM),
  // measured via common/alloc_tracker.h. Steady-state churn, the edge
  // budget the hot-path lint enforces statically.
  double inference_allocs_per_window = 0.0;
  // NaN until the learner has trained (ToString prints "n/a").
  double train_epoch_seconds = std::numeric_limits<double>::quiet_NaN();

  std::string ToString() const;
};

// Measures the learner's storage footprint and its per-window heap
// allocations over `probe_features` (raw rows, each classified on its own
// as a device window is). Latency is measured by perfbench, not here.
// `last_report` supplies the per-epoch training time (pass nullptr if the
// learner never trained; the field stays NaN).
EdgeProfileReport ProfileEdge(const EdgeLearner& learner,
                              const Tensor& probe_features,
                              const TrainReport* last_report);

}  // namespace core
}  // namespace pilote

#endif  // PILOTE_CORE_EDGE_PROFILE_H_
