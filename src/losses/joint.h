#ifndef PILOTE_LOSSES_JOINT_H_
#define PILOTE_LOSSES_JOINT_H_

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/macros.h"
#include "common/numerics_guard.h"

namespace pilote {
namespace losses {

// PILOTE's joint objective (Algo 1 line 10):
//   L = alpha * L_disti + (1 - alpha) * L_contra,  alpha in [0, 1].
// alpha = 1 freezes the old embedding space entirely; alpha = 0 degenerates
// to the re-trained baseline. The paper uses alpha = 0.5.
inline autograd::Variable JointLoss(const autograd::Variable& distillation,
                                    const autograd::Variable& contrastive,
                                    float alpha) {
  PILOTE_CHECK(alpha >= 0.0f && alpha <= 1.0f) << "alpha=" << alpha;
  autograd::Variable loss =
      autograd::Add(autograd::MulScalar(distillation, alpha),
                    autograd::MulScalar(contrastive, 1.0f - alpha));
  PILOTE_GUARD_NUMERICS("JointLoss output", loss.value());
  return loss;
}

}  // namespace losses
}  // namespace pilote

#endif  // PILOTE_LOSSES_JOINT_H_
