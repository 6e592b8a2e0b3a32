#include "autograd/ops.h"

#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/numerics_guard.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace autograd {
namespace {

// Shorthand for building an op node from parent Variables.
Variable MakeOp(Tensor value, std::vector<Variable> parents,
                std::function<void(Node&)> backward_fn) {
  std::vector<std::shared_ptr<Node>> parent_nodes;
  parent_nodes.reserve(parents.size());
  for (const Variable& p : parents) {
    PILOTE_CHECK(p.defined());
    parent_nodes.push_back(p.node());
  }
  return internal::FromNode(internal::MakeNode(
      std::move(value), std::move(parent_nodes), std::move(backward_fn)));
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  return MakeOp(pilote::Add(a.value(), b.value()), {a, b}, [](Node& node) {
    if (node.parents[0]->requires_grad) node.parents[0]->AccumulateGrad(node.grad);
    if (node.parents[1]->requires_grad) node.parents[1]->AccumulateGrad(node.grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  return MakeOp(pilote::Sub(a.value(), b.value()), {a, b}, [](Node& node) {
    if (node.parents[0]->requires_grad) node.parents[0]->AccumulateGrad(node.grad);
    if (node.parents[1]->requires_grad) {
      node.parents[1]->AccumulateGrad(pilote::Neg(node.grad));
    }
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  return MakeOp(pilote::Mul(a.value(), b.value()), {a, b}, [](Node& node) {
    if (node.parents[0]->requires_grad) {
      node.parents[0]->AccumulateGrad(
          pilote::Mul(node.grad, node.parents[1]->value));
    }
    if (node.parents[1]->requires_grad) {
      node.parents[1]->AccumulateGrad(
          pilote::Mul(node.grad, node.parents[0]->value));
    }
  });
}

Variable AddScalar(const Variable& a, float s) {
  return MakeOp(pilote::AddScalar(a.value(), s), {a}, [](Node& node) {
    node.parents[0]->AccumulateGrad(node.grad);
  });
}

Variable MulScalar(const Variable& a, float s) {
  return MakeOp(pilote::MulScalar(a.value(), s), {a}, [s](Node& node) {
    node.parents[0]->AccumulateGrad(pilote::MulScalar(node.grad, s));
  });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Square(const Variable& a) {
  return MakeOp(pilote::Square(a.value()), {a}, [](Node& node) {
    Tensor g = pilote::Mul(node.grad, node.parents[0]->value);
    node.parents[0]->AccumulateGrad(pilote::MulScalar(g, 2.0f));
  });
}

Variable Relu(const Variable& a) {
  return MakeOp(pilote::Relu(a.value()), {a}, [](Node& node) {
    node.parents[0]->AccumulateGrad(
        pilote::Mul(node.grad, pilote::ReluMask(node.parents[0]->value)));
  });
}

Variable Sqrt(const Variable& a, float eps) {
  Tensor value = pilote::Sqrt(pilote::AddScalar(a.value(), eps));
  auto saved = std::make_shared<Tensor>(value);
  return MakeOp(std::move(value), {a}, [saved](Node& node) {
    // d sqrt(x + eps) / dx = 0.5 / sqrt(x + eps)
    Tensor g(node.grad.shape());
    for (int64_t i = 0; i < g.numel(); ++i) {
      g[i] = node.grad[i] * 0.5f / (*saved)[i];
    }
    PILOTE_GUARD_NUMERICS("Sqrt backward", g);
    node.parents[0]->AccumulateGrad(g);
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  return MakeOp(pilote::MatMul(a.value(), b.value()), {a, b}, [](Node& node) {
    // dA = dC * B^T ; dB = A^T * dC
    if (node.parents[0]->requires_grad) {
      node.parents[0]->AccumulateGrad(
          pilote::MatMulTransB(node.grad, node.parents[1]->value));
    }
    if (node.parents[1]->requires_grad) {
      node.parents[1]->AccumulateGrad(
          pilote::MatMulTransA(node.parents[0]->value, node.grad));
    }
  });
}

Variable LinearTransform(const Variable& x, const Variable& w) {
  return MakeOp(
      pilote::MatMulTransB(x.value(), w.value()), {x, w}, [](Node& node) {
        // y = x * w^T -> dx = dy * w ; dw = dy^T * x
        if (node.parents[0]->requires_grad) {
          node.parents[0]->AccumulateGrad(
              pilote::MatMul(node.grad, node.parents[1]->value));
        }
        if (node.parents[1]->requires_grad) {
          node.parents[1]->AccumulateGrad(
              pilote::MatMulTransA(node.grad, node.parents[0]->value));
        }
      });
}

Variable AddRowVector(const Variable& m, const Variable& v) {
  return MakeOp(pilote::AddRowVector(m.value(), v.value()), {m, v},
                [](Node& node) {
                  if (node.parents[0]->requires_grad) {
                    node.parents[0]->AccumulateGrad(node.grad);
                  }
                  if (node.parents[1]->requires_grad) {
                    node.parents[1]->AccumulateGrad(
                        pilote::ColumnSum(node.grad));
                  }
                });
}

Variable MulRowVector(const Variable& m, const Variable& v) {
  return MakeOp(
      pilote::MulRowVector(m.value(), v.value()), {m, v}, [](Node& node) {
        if (node.parents[0]->requires_grad) {
          node.parents[0]->AccumulateGrad(
              pilote::MulRowVector(node.grad, node.parents[1]->value));
        }
        if (node.parents[1]->requires_grad) {
          node.parents[1]->AccumulateGrad(
              pilote::ColumnSum(pilote::Mul(node.grad, node.parents[0]->value)));
        }
      });
}

Variable RowSum(const Variable& m) {
  return MakeOp(pilote::RowSum(m.value()), {m}, [](Node& node) {
    const Tensor& src = node.parents[0]->value;
    Tensor g(src.shape());
    for (int64_t r = 0; r < src.rows(); ++r) {
      const float gr = node.grad[r];
      float* pg = g.row(r);
      for (int64_t c = 0; c < src.cols(); ++c) pg[c] = gr;
    }
    node.parents[0]->AccumulateGrad(g);
  });
}

Variable Sum(const Variable& a) {
  return MakeOp(Tensor::Scalar(pilote::Sum(a.value())), {a}, [](Node& node) {
    node.parents[0]->AccumulateGrad(
        Tensor::Full(node.parents[0]->value.shape(), node.grad[0]));
  });
}

Variable Mean(const Variable& a) {
  const float inv_n = 1.0f / static_cast<float>(a.value().numel());
  return MakeOp(Tensor::Scalar(pilote::Mean(a.value())), {a},
                [inv_n](Node& node) {
                  node.parents[0]->AccumulateGrad(Tensor::Full(
                      node.parents[0]->value.shape(), node.grad[0] * inv_n));
                });
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  PILOTE_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& part : parts) values.push_back(part.value());
  std::vector<int64_t> row_counts;
  row_counts.reserve(parts.size());
  for (const Tensor& v : values) row_counts.push_back(v.rows());
  return MakeOp(pilote::ConcatRows(values), parts,
                [row_counts](Node& node) {
                  int64_t offset = 0;
                  for (size_t i = 0; i < node.parents.size(); ++i) {
                    const int64_t rows = row_counts[i];
                    if (node.parents[i]->requires_grad) {
                      node.parents[i]->AccumulateGrad(
                          pilote::SliceRows(node.grad, offset, offset + rows));
                    }
                    offset += rows;
                  }
                });
}

Variable SliceRows(const Variable& m, int64_t begin, int64_t end) {
  return MakeOp(pilote::SliceRows(m.value(), begin, end), {m},
                [begin, end](Node& node) {
                  Tensor g(node.parents[0]->value.shape());
                  std::memcpy(g.row(begin), node.grad.data(),
                              static_cast<size_t>((end - begin) * g.cols()) *
                                  sizeof(float));
                  node.parents[0]->AccumulateGrad(g);
                });
}

BatchNormOutput BatchNormTraining(const Variable& x, const Variable& gamma,
                                  const Variable& beta, float eps) {
  const Tensor& xv = x.value();
  PILOTE_CHECK_EQ(xv.rank(), 2);
  const int64_t n = xv.rows();
  const int64_t d = xv.cols();
  PILOTE_CHECK_GT(n, 0);
  PILOTE_CHECK_EQ(gamma.value().dim(0), d);
  PILOTE_CHECK_EQ(beta.value().dim(0), d);

  Tensor mean = ColumnMean(xv);
  Tensor var = ColumnVariance(xv, mean);
  Tensor inv_std(Shape::Vector(d));
  for (int64_t c = 0; c < d; ++c) {
    inv_std[c] = 1.0f / std::sqrt(var[c] + eps);
  }
  PILOTE_GUARD_NUMERICS("BatchNormTraining inv_std", inv_std);
  // x_hat = (x - mean) * inv_std
  Tensor x_hat = MulRowVector(SubRowVector(xv, mean), inv_std);
  Tensor y = pilote::AddRowVector(
      pilote::MulRowVector(x_hat, gamma.value()), beta.value());

  // Captured by the backward closure.
  auto saved_x_hat = std::make_shared<Tensor>(x_hat);
  auto saved_inv_std = std::make_shared<Tensor>(inv_std);

  Variable out = MakeOp(
      std::move(y), {x, gamma, beta},
      [saved_x_hat, saved_inv_std, n, d](Node& node) {
        const Tensor& dy = node.grad;
        const Tensor& xh = *saved_x_hat;
        const Tensor& istd = *saved_inv_std;
        const Tensor& gamma_v = node.parents[1]->value;

        // dbeta[c] = sum_r dy ; dgamma[c] = sum_r dy * x_hat
        Tensor dbeta = pilote::ColumnSum(dy);
        Tensor dgamma = pilote::ColumnSum(pilote::Mul(dy, xh));

        if (node.parents[0]->requires_grad) {
          // dx = (gamma * inv_std / n) * (n*dy - dbeta - x_hat * dgamma)
          Tensor dx(xh.shape());
          const float inv_n = 1.0f / static_cast<float>(n);
          for (int64_t r = 0; r < n; ++r) {
            const float* pdy = dy.row(r);
            const float* pxh = xh.row(r);
            float* pdx = dx.row(r);
            for (int64_t c = 0; c < d; ++c) {
              pdx[c] = gamma_v[c] * istd[c] * inv_n *
                       (static_cast<float>(n) * pdy[c] - dbeta[c] -
                        pxh[c] * dgamma[c]);
            }
          }
          PILOTE_GUARD_NUMERICS("BatchNormTraining dx", dx);
          node.parents[0]->AccumulateGrad(dx);
        }
        if (node.parents[1]->requires_grad) {
          node.parents[1]->AccumulateGrad(dgamma);
        }
        if (node.parents[2]->requires_grad) {
          node.parents[2]->AccumulateGrad(dbeta);
        }
      });

  BatchNormOutput result;
  result.y = std::move(out);
  result.batch_mean = std::move(mean);
  result.batch_var = std::move(var);
  return result;
}

Variable BatchNormInference(const Variable& x, const Variable& gamma,
                            const Variable& beta, const Tensor& mean,
                            const Tensor& var, float eps) {
  const Tensor& xv = x.value();
  PILOTE_CHECK_EQ(xv.rank(), 2);
  const int64_t d = xv.cols();
  PILOTE_CHECK_EQ(mean.dim(0), d);
  PILOTE_CHECK_EQ(var.dim(0), d);

  Tensor inv_std(Shape::Vector(d));
  for (int64_t c = 0; c < d; ++c) {
    inv_std[c] = 1.0f / std::sqrt(var[c] + eps);
  }
  PILOTE_GUARD_NUMERICS("BatchNormInference inv_std", inv_std);
  Tensor x_hat = MulRowVector(SubRowVector(xv, mean), inv_std);
  Tensor y = pilote::AddRowVector(
      pilote::MulRowVector(x_hat, gamma.value()), beta.value());

  auto saved_x_hat = std::make_shared<Tensor>(x_hat);
  auto saved_inv_std = std::make_shared<Tensor>(inv_std);

  // With fixed statistics the op is affine per column, so the backward is
  // the plain broadcasting chain rule (no batch-statistic terms).
  return MakeOp(
      std::move(y), {x, gamma, beta},
      [saved_x_hat, saved_inv_std](Node& node) {
        const Tensor& dy = node.grad;
        const Tensor& xh = *saved_x_hat;
        const Tensor& istd = *saved_inv_std;
        const Tensor& gamma_v = node.parents[1]->value;
        if (node.parents[0]->requires_grad) {
          Tensor scale = pilote::Mul(gamma_v, istd);
          node.parents[0]->AccumulateGrad(pilote::MulRowVector(dy, scale));
        }
        if (node.parents[1]->requires_grad) {
          node.parents[1]->AccumulateGrad(
              pilote::ColumnSum(pilote::Mul(dy, xh)));
        }
        if (node.parents[2]->requires_grad) {
          node.parents[2]->AccumulateGrad(pilote::ColumnSum(dy));
        }
      });
}

}  // namespace autograd
}  // namespace pilote
