#include "exec/plan_builder.h"

#include <cmath>
#include <utility>

#include "common/macros.h"
#include "tensor/gemm.h"

namespace pilote {
namespace exec {

ValueRef PlanBuilder::NewValue(int64_t cols) {
  PILOTE_CHECK_GT(cols, 0);
  const int32_t id = static_cast<int32_t>(value_cols_.size());
  value_cols_.push_back(cols);
  return ValueRef{id, cols};
}

int32_t PlanBuilder::AddConstant(Tensor constant) {
  PILOTE_CHECK_GT(constant.numel(), 0);
  const int32_t id = static_cast<int32_t>(constants_.size());
  // Taken by value: a deep copy of the caller's tensor, so plans own their
  // constants.
  constants_.push_back(std::move(constant));
  return id;
}

void PlanBuilder::CheckValue(ValueRef v) const {
  PILOTE_CHECK(!finished_) << "PlanBuilder reused after Finish";
  PILOTE_CHECK(v.defined());
  PILOTE_CHECK_LT(static_cast<size_t>(v.id), value_cols_.size());
  PILOTE_CHECK_EQ(value_cols_[static_cast<size_t>(v.id)], v.cols);
  PILOTE_CHECK(!has_classify_tail_)
      << "recorder op after the ArgMinLabels terminal";
}

ValueRef PlanBuilder::DeclareInput(int64_t cols) {
  PILOTE_CHECK(value_cols_.empty()) << "DeclareInput must be the first call";
  PILOTE_CHECK(!finished_);
  return NewValue(cols);
}

ValueRef PlanBuilder::RecordElementwise(ValueRef x, MicroStep micro) {
  CheckValue(x);
  // The marked output is pinned: never extend or overwrite it in place.
  const bool pinned = x.id == output_value_;
  if (!steps_.empty() && !pinned) {
    Step& last = steps_.back();
    if (last.kind == StepKind::kElementwise && last.out == x.id) {
      // x was just produced by an elementwise step and nothing else has
      // consumed it: fuse by extending that step's micro chain.
      last.micro.push_back(micro);
      return x;
    }
    if (last.out == x.id) {
      // x was just produced by a non-elementwise step (GEMM): start an
      // in-place fused step on its arena slice.
      Step step;
      step.kind = StepKind::kElementwise;
      step.in = x.id;
      step.out = x.id;
      step.cols = x.cols;
      step.micro.push_back(micro);
      steps_.push_back(std::move(step));
      return x;
    }
  }
  // x is the plan input, the pinned output, or has other consumers: map
  // into a fresh value (the first micro pass reads src and writes dst).
  ValueRef out = NewValue(x.cols);
  Step step;
  step.kind = StepKind::kElementwise;
  step.in = x.id;
  step.out = out.id;
  step.cols = out.cols;
  step.micro.push_back(micro);
  steps_.push_back(std::move(step));
  return out;
}

ValueRef PlanBuilder::Standardize(ValueRef x, const Tensor& mean,
                                  const Tensor& stddev) {
  CheckValue(x);
  PILOTE_CHECK_EQ(mean.rank(), 1);
  PILOTE_CHECK_EQ(mean.dim(0), x.cols);
  PILOTE_CHECK(mean.shape() == stddev.shape());
  MicroStep micro;
  micro.op = MicroOp::kStandardize;
  micro.a = AddConstant(mean);
  micro.b = AddConstant(stddev);
  return RecordElementwise(x, micro);
}

// hotpath-ok: capture-time recorder, cold by definition; shares the bare
// name `Gemm` with the hot tensor kernel, which the name-keyed call graph
// cannot tell apart.
ValueRef PlanBuilder::Gemm(ValueRef x, const Tensor& weight) {
  CheckValue(x);
  PILOTE_CHECK_EQ(weight.rank(), 2);
  PILOTE_CHECK_EQ(weight.cols(), x.cols)
      << "GEMM weight depth " << weight.cols() << " vs input " << x.cols;
  ValueRef out = NewValue(weight.rows());
  // Stored as W^T [k, out] so replay runs the vectorized SAXPY rows with no
  // per-call pack; the bits are those of the eager MatMulTransB.
  Tensor weight_t(Shape::Matrix(x.cols, out.cols));
  PackTransposed(weight.data(), weight_t.data(), out.cols, x.cols);
  Step step;
  step.kind = StepKind::kGemmPacked;
  step.in = x.id;
  step.out = out.id;
  step.constant = AddConstant(std::move(weight_t));
  step.k = x.cols;
  step.cols = out.cols;
  steps_.push_back(std::move(step));
  return out;
}

ValueRef PlanBuilder::BiasAdd(ValueRef x, const Tensor& bias) {
  CheckValue(x);
  PILOTE_CHECK_EQ(bias.rank(), 1);
  PILOTE_CHECK_EQ(bias.dim(0), x.cols);
  MicroStep micro;
  micro.op = MicroOp::kAddRow;
  micro.a = AddConstant(bias);
  return RecordElementwise(x, micro);
}

ValueRef PlanBuilder::BatchNormInference(ValueRef x, const Tensor& gamma,
                                         const Tensor& beta,
                                         const Tensor& mean,
                                         const Tensor& var, float eps) {
  CheckValue(x);
  PILOTE_CHECK_EQ(gamma.rank(), 1);
  PILOTE_CHECK_EQ(gamma.dim(0), x.cols);
  PILOTE_CHECK(gamma.shape() == beta.shape());
  PILOTE_CHECK(gamma.shape() == mean.shape());
  PILOTE_CHECK(gamma.shape() == var.shape());
  // inv_std is a pure function of the captured running variance, computed
  // with the exact expression of the eager BatchNormInference op — the
  // precomputed constant holds the same floats the eager path rebuilds on
  // every forward.
  Tensor inv_std(Shape::Vector(x.cols));
  for (int64_t c = 0; c < x.cols; ++c) {
    inv_std[c] = 1.0f / std::sqrt(var[c] + eps);
  }
  MicroStep sub_mean;
  sub_mean.op = MicroOp::kSubRow;
  sub_mean.a = AddConstant(mean);
  ValueRef v = RecordElementwise(x, sub_mean);
  MicroStep mul_inv;
  mul_inv.op = MicroOp::kMulRow;
  mul_inv.a = AddConstant(inv_std);
  v = RecordElementwise(v, mul_inv);
  MicroStep mul_gamma;
  mul_gamma.op = MicroOp::kMulRow;
  mul_gamma.a = AddConstant(gamma);
  v = RecordElementwise(v, mul_gamma);
  MicroStep add_beta;
  add_beta.op = MicroOp::kAddRow;
  add_beta.a = AddConstant(beta);
  return RecordElementwise(v, add_beta);
}

ValueRef PlanBuilder::Relu(ValueRef x) {
  CheckValue(x);
  MicroStep micro;
  micro.op = MicroOp::kRelu;
  return RecordElementwise(x, micro);
}

ValueRef PlanBuilder::SquaredDistances(ValueRef x, const Tensor& prototypes,
                                       const Tensor& proto_sq_norms) {
  CheckValue(x);
  PILOTE_CHECK_EQ(prototypes.rank(), 2);
  PILOTE_CHECK_EQ(prototypes.cols(), x.cols);
  PILOTE_CHECK_EQ(proto_sq_norms.numel(), prototypes.rows());
  // cross[n, k] = x * prototypes^T
  ValueRef cross = Gemm(x, prototypes);
  // na[n, 1] = per-row squared norm of x.
  ValueRef norms = NewValue(1);
  Step norm_step;
  norm_step.kind = StepKind::kRowSquaredNorm;
  norm_step.in = x.id;
  norm_step.out = norms.id;
  norm_step.k = x.cols;
  norm_step.cols = 1;
  steps_.push_back(std::move(norm_step));
  // distances = max(0, na[i] + nb[j] - 2 * cross[i, j]), in place on cross.
  Step combine;
  combine.kind = StepKind::kNcmCombine;
  combine.in = cross.id;
  combine.in2 = norms.id;
  combine.out = cross.id;
  combine.constant = AddConstant(proto_sq_norms);
  combine.cols = cross.cols;
  steps_.push_back(std::move(combine));
  return cross;
}

void PlanBuilder::ArgMinLabels(ValueRef distances, std::vector<int> labels) {
  CheckValue(distances);
  PILOTE_CHECK_EQ(static_cast<int64_t>(labels.size()), distances.cols)
      << "one label per distance column";
  Step step;
  step.kind = StepKind::kArgMinLabel;
  step.in = distances.id;
  step.cols = distances.cols;
  steps_.push_back(std::move(step));
  labels_ = std::move(labels);
  has_classify_tail_ = true;
}

void PlanBuilder::MarkOutput(ValueRef v) {
  CheckValue(v);
  PILOTE_CHECK(v.id != 0) << "the plan input cannot be the output";
  PILOTE_CHECK_EQ(output_value_, -1) << "output already marked";
  output_value_ = v.id;
}

Result<std::shared_ptr<const InferencePlan>> PlanBuilder::Finish(
    int64_t version) {
  PILOTE_CHECK(!finished_) << "PlanBuilder reused after Finish";
  finished_ = true;
  if (value_cols_.empty()) {
    return Status::FailedPrecondition("plan capture declared no input");
  }
  if (steps_.empty()) {
    return Status::FailedPrecondition("plan capture recorded no steps");
  }
  if (output_value_ < 0 && !has_classify_tail_) {
    return Status::FailedPrecondition(
        "plan has neither a marked output nor a classify tail");
  }

  // Live ranges over step indices: def = the step writing the value, last
  // use = the last step reading (or in-place rewriting) it. The marked
  // output is read after the last step (the executor copies it out), so
  // its range extends to the end.
  const int32_t last_step = static_cast<int32_t>(steps_.size()) - 1;
  std::vector<LifetimeInterval> intervals(value_cols_.size() - 1);
  std::vector<bool> defined(value_cols_.size(), false);
  defined[0] = true;  // the input is defined by the caller
  for (size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    const int32_t si = static_cast<int32_t>(s);
    for (int32_t value : {step.in, step.in2}) {
      if (value <= 0) continue;  // the input is not arena-resident
      PILOTE_CHECK(defined[static_cast<size_t>(value)])
          << "step " << s << " reads undefined value v" << value;
      intervals[static_cast<size_t>(value) - 1].last_use = si;
    }
    if (step.out > 0) {
      LifetimeInterval& interval =
          intervals[static_cast<size_t>(step.out) - 1];
      if (!defined[static_cast<size_t>(step.out)]) {
        defined[static_cast<size_t>(step.out)] = true;
        interval.def_step = si;
        interval.size = value_cols_[static_cast<size_t>(step.out)];
      }
      interval.last_use = si;
    }
  }
  for (size_t v = 1; v < value_cols_.size(); ++v) {
    if (!defined[v]) {
      return Status::Internal("plan value never defined");
    }
  }
  // The step at which the marked output is complete: the last write to it.
  // It is pinned from MarkOutput on, so everything past that step is
  // classify-tail work a tensor-only replay can skip.
  int32_t output_ready_step = -1;
  if (output_value_ > 0) {
    intervals[static_cast<size_t>(output_value_) - 1].last_use = last_step;
    for (size_t s = 0; s < steps_.size(); ++s) {
      if (steps_[s].out == output_value_) {
        output_ready_step = static_cast<int32_t>(s);
      }
    }
    PILOTE_CHECK_GE(output_ready_step, 0);
  }

  ArenaLayout layout = PlanArena(intervals);
  std::vector<ArenaSlice> value_slices(value_cols_.size());
  value_slices[0] = ArenaSlice{0, 0};
  for (size_t v = 1; v < value_cols_.size(); ++v) {
    value_slices[v] = layout.slices[v - 1];
  }

  const int64_t input_cols = value_cols_[0];
  return std::shared_ptr<const InferencePlan>(new InferencePlan(
      std::move(steps_), std::move(constants_), std::move(value_slices),
      std::move(value_cols_), std::move(labels_), input_cols, output_value_,
      output_ready_step, layout.total_size, version));
}

}  // namespace exec
}  // namespace pilote
