#include "losses/contrastive.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "common/macros.h"
#include "common/numerics_guard.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace losses {
namespace {

// Keeps Sqrt differentiable at collapsed pairs.
constexpr float kSqrtEps = 1e-12f;

}  // namespace

autograd::Variable ContrastiveLoss(const autograd::Variable& left,
                                   const autograd::Variable& right,
                                   const Tensor& similar, float margin,
                                   ContrastiveForm form) {
  PILOTE_TRACE_SPAN("losses/contrastive_forward");
  namespace ag = autograd;
  const int64_t n = left.value().rows();
  PILOTE_CHECK_EQ(right.value().rows(), n);
  PILOTE_CHECK_EQ(similar.numel(), n);
  PILOTE_CHECK_GT(margin, 0.0f);

  PILOTE_GUARD_NUMERICS("ContrastiveLoss left embedding", left.value());
  PILOTE_GUARD_NUMERICS("ContrastiveLoss right embedding", right.value());

  ag::Variable y = ag::Variable::Constant(similar);
  Tensor one_minus_y_t(similar.shape());
  for (int64_t i = 0; i < n; ++i) {
    const float yi = similar[i];
    PILOTE_CHECK(yi == 0.0f || yi == 1.0f) << "similar must be 0/1, got " << yi;
    one_minus_y_t[i] = 1.0f - yi;
  }
  ag::Variable one_minus_y = ag::Variable::Constant(one_minus_y_t);

  // d2[i] = ||left_i - right_i||^2
  ag::Variable d2 = ag::RowSum(ag::Square(ag::Sub(left, right)));
  ag::Variable pos = ag::Mul(y, d2);
  ag::Variable hinge;
  switch (form) {
    case ContrastiveForm::kSquaredHinge:
      // max(0, m^2 - d^2)
      hinge = ag::Relu(ag::AddScalar(ag::Neg(d2), margin * margin));
      break;
    case ContrastiveForm::kHadsell: {
      // max(0, m - d)^2 with d = sqrt(d2 + eps)
      ag::Variable d = ag::Sqrt(d2, kSqrtEps);
      hinge = ag::Square(ag::Relu(ag::AddScalar(ag::Neg(d), margin)));
      break;
    }
  }
  ag::Variable neg = ag::Mul(one_minus_y, hinge);
  ag::Variable loss = ag::Mean(ag::Add(pos, neg));
  PILOTE_GUARD_NUMERICS("ContrastiveLoss output", loss.value());
  return loss;
}

float ContrastiveLossValue(const Tensor& left, const Tensor& right,
                           const Tensor& similar, float margin,
                           ContrastiveForm form) {
  const int64_t n = left.rows();
  PILOTE_CHECK_EQ(right.rows(), n);
  PILOTE_CHECK_EQ(similar.numel(), n);
  PILOTE_CHECK_GT(n, 0);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    float d2 = 0.0f;
    const float* pl = left.row(i);
    const float* pr = right.row(i);
    for (int64_t c = 0; c < left.cols(); ++c) {
      const float diff = pl[c] - pr[c];
      d2 += diff * diff;
    }
    float hinge = 0.0f;
    switch (form) {
      case ContrastiveForm::kSquaredHinge:
        hinge = std::max(0.0f, margin * margin - d2);
        break;
      case ContrastiveForm::kHadsell: {
        const float gap = std::max(0.0f, margin - std::sqrt(d2));
        hinge = gap * gap;
        break;
      }
    }
    total += similar[i] * d2 + (1.0f - similar[i]) * hinge;
  }
  const float loss = static_cast<float>(total / static_cast<double>(n));
  PILOTE_GUARD_NUMERICS_SCALAR("ContrastiveLossValue", loss);
  return loss;
}

}  // namespace losses
}  // namespace pilote
