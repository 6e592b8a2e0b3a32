#ifndef PILOTE_EXEC_EXECUTOR_H_
#define PILOTE_EXEC_EXECUTOR_H_

#include <vector>

#include "common/hot_path.h"
#include "exec/plan.h"
#include "tensor/tensor.h"

namespace pilote {
namespace exec {

// Zero-allocation replay of an InferencePlan.
//
// Every intermediate of a replay lives in its planned slice of one flat
// float arena. The arena is a thread_local buffer owned by the replaying
// thread, sized plan.arena_per_row() * n and grown only when a replay
// needs more floats than that thread has used before, so the steady state
// never touches the allocator. There is no shared_ptr traffic and no
// std::function dispatch on the replay path: steps are a flat vector
// walked with a switch, and GEMMs go through the serial GemmPackedSerial
// kernel.
//
// Concurrency: the plan is immutable and each thread replays into its own
// arena, so any number of threads may replay one plan at once with no
// synchronization and no fallback.

// Replays the plan on `in` [n, input_cols] and writes the marked output
// value into `out` (resized to [n, out_cols]; its buffer is reused when
// the caller passes the same tensor again). Stops at the plan's
// output_ready_step, skipping any classify tail.
PILOTE_HOT_PATH void ReplayEmbedding(const InferencePlan& plan,
                                     const Tensor& in, Tensor* out);

// Replays the plan through its classify tail and writes one label per
// input row.
PILOTE_HOT_PATH void ReplayClassify(const InferencePlan& plan,
                                    const Tensor& in,
                                    std::vector<int>* labels);

}  // namespace exec
}  // namespace pilote

#endif  // PILOTE_EXEC_EXECUTOR_H_
