#ifndef PILOTE_EXEC_PLAN_H_
#define PILOTE_EXEC_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/memory_planner.h"
#include "tensor/tensor.h"

namespace pilote {
namespace exec {

// A compiled inference plan: the frozen forward (+ optional NCM classify
// tail) of a module, captured once into a flat topologically-ordered step
// list over arena-resident values. The plan is immutable after capture —
// it owns copies of every constant it reads (weights, scaler statistics,
// prototypes), so the module it was captured from may be retrained or
// replaced wholesale without invalidating a concurrently-executing replay.
// Replay (exec/executor.h) keeps its arena per thread, so any number of
// threads may replay one plan at once.
//
// See DESIGN.md "Compiled inference plans" for the capture protocol and
// the bit-identity contract with the eager path.

// Handle to a plan value during capture: a [n, cols] matrix whose row
// count is the run-time batch size. Only meaningful with the PlanBuilder
// that issued it.
struct ValueRef {
  int32_t id = -1;
  int64_t cols = 0;

  bool defined() const { return id >= 0; }
};

// Fused elementwise steps are chains of per-element micro ops, each
// executed as its own full pass over the step's buffer — exactly the pass
// structure (and therefore the per-element rounding sequence) of the eager
// RowBroadcast/ElementwiseUnary kernels they were captured from.
enum class MicroOp : uint8_t {
  kStandardize,  // (v - a[c]) / b[c]   (data::StandardScaler::Transform)
  kAddRow,       // v + a[c]
  kSubRow,       // v - a[c]
  kMulRow,       // v * a[c]
  kRelu,         // v > 0 ? v : 0
};

// One micro op; `a` and `b` index the plan's constant table ([cols]
// vectors), -1 when unused.
struct MicroStep {
  MicroOp op = MicroOp::kRelu;
  int32_t a = -1;
  int32_t b = -1;
};

enum class StepKind : uint8_t {
  // out[n, cols] = in[n, k] * Wt[k, cols] via GemmPackedSerial; Wt is a
  // Linear weight or the NCM prototypes, W [cols, k], transposed once at
  // capture.
  kGemmPacked,
  // Chain of micro passes mapping in -> out elementwise; in == out marks
  // an in-place fused step on one arena slice.
  kElementwise,
  // out[n, 1] = per-row squared norm of in[n, cols] (shared kernel with
  // the eager RowSquaredNorm).
  kRowSquaredNorm,
  // out[n, cols] = max(0, norm_in2[i] + const_norms[j] - 2 * in[i, j]):
  // the squared-distance combine over the GEMM cross term (shared kernel
  // with the eager PairwiseSquaredDistance). in == out (in place).
  kNcmCombine,
  // Terminal argmin over in[n, cols] mapped through the plan label table.
  kArgMinLabel,
};

struct Step {
  StepKind kind = StepKind::kElementwise;
  int32_t in = -1;        // primary input value
  int32_t in2 = -1;       // secondary input value (kNcmCombine row norms)
  int32_t out = -1;       // output value (-1 for kArgMinLabel)
  int32_t constant = -1;  // constant-table index (GEMM weight, NCM norms)
  int64_t k = 0;          // GEMM reduction depth
  int64_t cols = 0;       // output columns
  std::vector<MicroStep> micro;  // kElementwise chain
};

class InferencePlan {
 public:
  // Assembled by PlanBuilder::Finish.
  InferencePlan(std::vector<Step> steps, std::vector<Tensor> constants,
                std::vector<ArenaSlice> value_slices,
                std::vector<int64_t> value_cols, std::vector<int> labels,
                int64_t input_cols, int32_t output_value,
                int32_t output_ready_step, int64_t arena_per_row,
                int64_t version);

  const std::vector<Step>& steps() const { return steps_; }
  const Tensor& constant(int32_t index) const {
    return constants_[static_cast<size_t>(index)];
  }
  // Arena slice of a value, in per-row float units. The input value (id 0)
  // has no slice — it is read from the caller's tensor.
  const ArenaSlice& slice(int32_t value) const {
    return value_slices_[static_cast<size_t>(value)];
  }
  int64_t value_cols(int32_t value) const {
    return value_cols_[static_cast<size_t>(value)];
  }
  // Class labels in prototype order for the kArgMinLabel step; empty when
  // the plan was captured without a classify tail.
  const std::vector<int>& labels() const { return labels_; }

  int64_t input_cols() const { return input_cols_; }
  // Value holding the marked tensor output (the embedding), -1 if none.
  int32_t output_value() const { return output_value_; }
  // Index of the last step that writes the marked output (-1 if none).
  // Because the output is pinned (never mutated in place afterwards), a
  // tensor-only replay can stop here and skip the classify tail entirely.
  int32_t output_ready_step() const { return output_ready_step_; }
  bool has_classify_tail() const { return !labels_.empty(); }
  // Arena floats needed per batch row.
  int64_t arena_per_row() const { return arena_per_row_; }
  // The learner model_version this plan was captured at.
  int64_t version() const { return version_; }

  // One line per step, for tests and debugging.
  std::string DebugString() const;

 private:
  std::vector<Step> steps_;
  std::vector<Tensor> constants_;
  std::vector<ArenaSlice> value_slices_;
  std::vector<int64_t> value_cols_;
  std::vector<int> labels_;
  int64_t input_cols_ = 0;
  int32_t output_value_ = -1;
  int32_t output_ready_step_ = -1;
  int64_t arena_per_row_ = 0;
  int64_t version_ = 0;
};

}  // namespace exec
}  // namespace pilote

#endif  // PILOTE_EXEC_PLAN_H_
