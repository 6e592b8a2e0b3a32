#include "optim/adam.h"

#include <cmath>

#include "common/numerics_guard.h"

namespace pilote {
namespace optim {

Adam::Adam(std::vector<autograd::Variable> params, const AdamOptions& options)
    : Optimizer(std::move(params), options.lr), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& param : params_) {
    m_.emplace_back(Tensor::Zeros(param.value().shape()));
    v_.emplace_back(Tensor::Zeros(param.value().shape()));
  }
}

void Adam::Step() {
  ++step_count_;
  const float bias1 =
      1.0f - std::pow(options_.beta1, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(options_.beta2, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    autograd::Variable& param = params_[i];
    const Tensor& grad = param.grad();
    if (grad.numel() == 0) continue;
    PILOTE_GUARD_NUMERICS("Adam step grad", grad);
    Tensor& value = param.mutable_value();
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    const int64_t n = value.numel();
    for (int64_t j = 0; j < n; ++j) {
      float g = grad[j];
      if (options_.weight_decay != 0.0f) g += options_.weight_decay * value[j];
      m[j] = options_.beta1 * m[j] + (1.0f - options_.beta1) * g;
      v[j] = options_.beta2 * v[j] + (1.0f - options_.beta2) * g * g;
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      value[j] -= lr_ * m_hat / (std::sqrt(v_hat) + options_.eps);
    }
    PILOTE_GUARD_NUMERICS("Adam step param", value);
  }
}

}  // namespace optim
}  // namespace pilote
