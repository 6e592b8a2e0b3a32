#include "losses/distillation.h"

#include "autograd/ops.h"
#include "common/macros.h"
#include "common/numerics_guard.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace losses {

autograd::Variable DistillationLoss(const autograd::Variable& student,
                                    const Tensor& teacher) {
  PILOTE_TRACE_SPAN("losses/distillation_forward");
  namespace ag = autograd;
  PILOTE_CHECK(student.value().shape() == teacher.shape())
      << "distillation embedding shape mismatch";
  PILOTE_GUARD_NUMERICS("DistillationLoss student embedding", student.value());
  PILOTE_GUARD_NUMERICS("DistillationLoss teacher embedding", teacher);
  ag::Variable target = ag::Variable::Constant(teacher);
  // Mean over rows of the per-sample squared embedding drift.
  ag::Variable loss = ag::Mean(ag::RowSum(ag::Square(ag::Sub(student, target))));
  PILOTE_GUARD_NUMERICS("DistillationLoss output", loss.value());
  return loss;
}

float DistillationLossValue(const Tensor& student, const Tensor& teacher) {
  PILOTE_CHECK(student.shape() == teacher.shape());
  PILOTE_CHECK_GT(student.rows(), 0);
  const float loss =
      SquaredDistance(student, teacher) / static_cast<float>(student.rows());
  PILOTE_GUARD_NUMERICS_SCALAR("DistillationLossValue", loss);
  return loss;
}

}  // namespace losses
}  // namespace pilote
