#ifndef PILOTE_EXEC_PLAN_BUILDER_H_
#define PILOTE_EXEC_PLAN_BUILDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/plan.h"
#include "tensor/tensor.h"

namespace pilote {
namespace exec {

// Shape-propagating recorder for compiled inference plans. A capture walks
// the module graph once (nn::Module::CaptureInference), calling one
// recorder op per eager op; the builder fuses adjacent elementwise ops
// in place as they arrive and Finish() runs lifetime-interval arena
// planning over the recorded steps.
//
// Recorder ops take constants (weights, statistics) by const reference and
// copy them into the plan: the captured module can be retrained or
// replaced afterwards without invalidating the plan.
//
// Usage:
//   PlanBuilder builder;
//   ValueRef x = builder.DeclareInput(input_dim);
//   x = builder.Standardize(x, scaler.mean(), scaler.stddev());
//   ... per-layer recorder calls ...
//   builder.MarkOutput(x);                       // the embedding
//   ValueRef d = builder.SquaredDistances(x, protos, proto_norms);
//   builder.ArgMinLabels(d, labels);             // classify tail
//   auto plan = builder.Finish(model_version);
//
// A builder records exactly one plan; shape violations are CHECK-fatal
// (capture runs on the cold mutation path, mirroring the eager ops'
// contracts).
class PlanBuilder {
 public:
  PlanBuilder() = default;

  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  // The [n, cols] plan input (value 0). Must be the first call.
  ValueRef DeclareInput(int64_t cols);

  // (x - mean[c]) / stddev[c], the StandardScaler::Transform fused pass.
  ValueRef Standardize(ValueRef x, const Tensor& mean, const Tensor& stddev);

  // x[n, k] * weight[out, k]^T -> [n, out] (the Linear forward GEMM). The
  // plan stores weight^T [k, out], transposed once here.
  ValueRef Gemm(ValueRef x, const Tensor& weight);

  // x + bias[c].
  ValueRef BiasAdd(ValueRef x, const Tensor& bias);

  // Inference batch norm with running statistics, lowered to the eager
  // pass sequence (x - mean) * inv_std * gamma + beta with
  // inv_std[c] = 1 / sqrt(var[c] + eps) precomputed at capture.
  ValueRef BatchNormInference(ValueRef x, const Tensor& gamma,
                              const Tensor& beta, const Tensor& mean,
                              const Tensor& var, float eps);

  // max(x, 0).
  ValueRef Relu(ValueRef x);

  // Squared Euclidean distances of each row of x to each row of
  // `prototypes` [k, d], lowered to GEMM cross term + row norms + combine.
  // `proto_sq_norms` must be RowSquaredNorm(prototypes) (the classifier's
  // cache — passing it keeps the plan bit-identical to the cached eager
  // path). Returns the [n, k] distance matrix value.
  ValueRef SquaredDistances(ValueRef x, const Tensor& prototypes,
                            const Tensor& proto_sq_norms);

  // Terminal classify step: per-row argmin over `distances` mapped through
  // `labels` (prototype order).
  void ArgMinLabels(ValueRef distances, std::vector<int> labels);

  // Marks `v` as the plan's tensor output (the embedding). The marked
  // value is pinned: later elementwise ops will not mutate it in place.
  void MarkOutput(ValueRef v);

  // Validates the recorded program, plans the arena and freezes the plan.
  // `version` tags the plan with the model version it was captured at.
  // The builder must not be reused afterwards.
  Result<std::shared_ptr<const InferencePlan>> Finish(int64_t version);

 private:
  ValueRef NewValue(int64_t cols);
  int32_t AddConstant(Tensor constant);
  // Appends `micro` over x: fused onto the producing step, in place on a
  // freshly-defined arena value, or as a copy pass into a new value.
  ValueRef RecordElementwise(ValueRef x, MicroStep micro);
  void CheckValue(ValueRef v) const;

  std::vector<Step> steps_;
  std::vector<Tensor> constants_;
  std::vector<int64_t> value_cols_;
  std::vector<int> labels_;
  int32_t output_value_ = -1;
  bool has_classify_tail_ = false;
  bool finished_ = false;
};

}  // namespace exec
}  // namespace pilote

#endif  // PILOTE_EXEC_PLAN_BUILDER_H_
