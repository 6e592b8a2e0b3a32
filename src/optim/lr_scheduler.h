#ifndef PILOTE_OPTIM_LR_SCHEDULER_H_
#define PILOTE_OPTIM_LR_SCHEDULER_H_

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "optim/optimizer.h"

namespace pilote {
namespace optim {

// The paper's learning-rate schedule (Sec 6.1.2): lr starts at
// `initial_lr` and is halved every epoch, with an optional floor to avoid
// vanishing updates on long runs. Call OnEpochBegin(epoch) before the
// first batch of each epoch (epoch counting from 0).
class HalvingLr {
 public:
  explicit HalvingLr(Optimizer* optimizer, float initial_lr = 0.01f,
                     float min_lr = 1e-5f)
      : optimizer_(optimizer), initial_lr_(initial_lr), min_lr_(min_lr) {
    PILOTE_CHECK(optimizer != nullptr);
  }

  void OnEpochBegin(int epoch) { optimizer_->set_lr(LrForEpoch(epoch)); }

  float LrForEpoch(int epoch) const {
    return std::max(min_lr_,
                    initial_lr_ * std::pow(0.5f, static_cast<float>(epoch)));
  }

 private:
  Optimizer* optimizer_;
  float initial_lr_;
  float min_lr_;
};

}  // namespace optim
}  // namespace pilote

#endif  // PILOTE_OPTIM_LR_SCHEDULER_H_
