#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/numerics_guard.h"
#include "obs/metrics.h"
#include "tensor/gemm.h"

namespace pilote {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  PILOTE_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << a.shape().ToString() << " vs "
      << b.shape().ToString();
}

// Per-call accounting for the elementwise/broadcast kernel families; one
// relaxed load + branch when observability is off.
void CountElementwise(int64_t elements) {
  PILOTE_METRIC_COUNT("tensor/elementwise_calls", 1);
  PILOTE_METRIC_COUNT("tensor/elementwise_elems", elements);
}

template <typename Fn>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, const char* op,
                         Fn fn) {
  CheckSameShape(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
  CountElementwise(n);
  PILOTE_GUARD_NUMERICS(op, out);
  return out;
}

template <typename Fn>
Tensor ElementwiseUnary(const Tensor& a, const char* op, Fn fn) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  CountElementwise(n);
  PILOTE_GUARD_NUMERICS(op, out);
  return out;
}

template <typename Fn>
Tensor RowBroadcast(const Tensor& m, const Tensor& v, const char* op, Fn fn) {
  PILOTE_CHECK_EQ(m.rank(), 2) << op;
  PILOTE_CHECK_EQ(v.rank(), 1) << op;
  PILOTE_CHECK_EQ(m.cols(), v.dim(0)) << op;
  Tensor out(m.shape());
  const int64_t rows = m.rows();
  const int64_t cols = m.cols();
  const float* pv = v.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* pm = m.row(r);
    float* po = out.row(r);
    for (int64_t c = 0; c < cols; ++c) po[c] = fn(pm[c], pv[c]);
  }
  CountElementwise(m.numel());
  PILOTE_GUARD_NUMERICS(op, out);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, "Add", [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, "Sub", [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, "Mul", [](float x, float y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, "Div", [](float x, float y) { return x / y; });
}

void Axpy(float alpha, const Tensor& b, Tensor& a) {
  CheckSameShape(a, b, "Axpy");
  float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] += alpha * pb[i];
  PILOTE_GUARD_NUMERICS("Axpy", a);
}

Tensor AddScalar(const Tensor& a, float s) {
  return ElementwiseUnary(a, "AddScalar", [s](float x) { return x + s; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return ElementwiseUnary(a, "MulScalar", [s](float x) { return x * s; });
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(a, "Relu", [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor ReluMask(const Tensor& a) {
  return ElementwiseUnary(a, "ReluMask",
                          [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Square(const Tensor& a) {
  return ElementwiseUnary(a, "Square", [](float x) { return x * x; });
}

Tensor Sqrt(const Tensor& a) {
  return ElementwiseUnary(a, "Sqrt", [](float x) { return std::sqrt(x); });
}

Tensor Exp(const Tensor& a) {
  return ElementwiseUnary(a, "Exp", [](float x) { return std::exp(x); });
}

Tensor Neg(const Tensor& a) {
  return ElementwiseUnary(a, "Neg", [](float x) { return -x; });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  return ElementwiseUnary(a, "Clamp",
                          [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  PILOTE_CHECK_EQ(a.rank(), 2);
  PILOTE_CHECK_EQ(b.rank(), 2);
  PILOTE_CHECK_EQ(a.cols(), b.rows())
      << "MatMul " << a.shape().ToString() << " x " << b.shape().ToString();
  Tensor out(Shape::Matrix(a.rows(), b.cols()));
  Gemm(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
  PILOTE_GUARD_NUMERICS("MatMul", out);
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  PILOTE_CHECK_EQ(a.rank(), 2);
  PILOTE_CHECK_EQ(b.rank(), 2);
  PILOTE_CHECK_EQ(a.cols(), b.cols())
      << "MatMulTransB " << a.shape().ToString() << " x "
      << b.shape().ToString();
  Tensor out(Shape::Matrix(a.rows(), b.rows()));  // hotpath-ok: output
  GemmTransB(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows());
  PILOTE_GUARD_NUMERICS("MatMulTransB", out);
  return out;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  PILOTE_CHECK_EQ(a.rank(), 2);
  PILOTE_CHECK_EQ(b.rank(), 2);
  PILOTE_CHECK_EQ(a.rows(), b.rows())
      << "MatMulTransA " << a.shape().ToString() << " x "
      << b.shape().ToString();
  Tensor out(Shape::Matrix(a.cols(), b.cols()));
  GemmTransA(a.data(), b.data(), out.data(), a.cols(), a.rows(), b.cols());
  PILOTE_GUARD_NUMERICS("MatMulTransA", out);
  return out;
}

Tensor Transpose(const Tensor& a) {
  PILOTE_CHECK_EQ(a.rank(), 2);
  Tensor out(Shape::Matrix(a.cols(), a.rows()));
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      out(c, r) = a(r, c);
    }
  }
  return out;
}

Tensor AddRowVector(const Tensor& m, const Tensor& v) {
  return RowBroadcast(m, v, "AddRowVector",
                      [](float x, float y) { return x + y; });
}

Tensor MulRowVector(const Tensor& m, const Tensor& v) {
  return RowBroadcast(m, v, "MulRowVector",
                      [](float x, float y) { return x * y; });
}

Tensor SubRowVector(const Tensor& m, const Tensor& v) {
  return RowBroadcast(m, v, "SubRowVector",
                      [](float x, float y) { return x - y; });
}

Tensor DivRowVector(const Tensor& m, const Tensor& v) {
  return RowBroadcast(m, v, "DivRowVector",
                      [](float x, float y) { return x / y; });
}

float Sum(const Tensor& a) {
  // Pairwise-ish accumulation in double for stability.
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) acc += p[i];
  const float result = static_cast<float>(acc);
  PILOTE_GUARD_NUMERICS_SCALAR("Sum", result);
  return result;
}

float Mean(const Tensor& a) {
  PILOTE_CHECK_GT(a.numel(), 0);
  return Sum(a) / static_cast<float>(a.numel());
}

float MaxValue(const Tensor& a) {
  PILOTE_CHECK_GT(a.numel(), 0);
  return *std::max_element(a.data(), a.data() + a.numel());
}

Tensor ColumnSum(const Tensor& m) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  Tensor out(Shape::Vector(m.cols()));
  float* po = out.data();
  for (int64_t r = 0; r < m.rows(); ++r) {
    const float* pm = m.row(r);
    for (int64_t c = 0; c < m.cols(); ++c) po[c] += pm[c];
  }
  return out;
}

Tensor ColumnMean(const Tensor& m) {
  PILOTE_CHECK_GT(m.rows(), 0);
  return MulScalar(ColumnSum(m), 1.0f / static_cast<float>(m.rows()));
}

Tensor ColumnVariance(const Tensor& m, const Tensor& column_mean) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  PILOTE_CHECK_EQ(column_mean.rank(), 1);
  PILOTE_CHECK_EQ(m.cols(), column_mean.dim(0));
  PILOTE_CHECK_GT(m.rows(), 0);
  Tensor out(Shape::Vector(m.cols()));
  const float* pmean = column_mean.data();
  float* po = out.data();
  for (int64_t r = 0; r < m.rows(); ++r) {
    const float* pm = m.row(r);
    for (int64_t c = 0; c < m.cols(); ++c) {
      const float d = pm[c] - pmean[c];
      po[c] += d * d;
    }
  }
  const float inv_n = 1.0f / static_cast<float>(m.rows());
  for (int64_t c = 0; c < m.cols(); ++c) po[c] *= inv_n;
  return out;
}

Tensor RowSum(const Tensor& m) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  Tensor out(Shape::Vector(m.rows()));
  for (int64_t r = 0; r < m.rows(); ++r) {
    const float* pm = m.row(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < m.cols(); ++c) acc += pm[c];
    out[r] = acc;
  }
  return out;
}

std::vector<int64_t> ArgMaxPerRow(const Tensor& m) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  PILOTE_CHECK_GT(m.cols(), 0);
  std::vector<int64_t> result(static_cast<size_t>(m.rows()));
  for (int64_t r = 0; r < m.rows(); ++r) {
    const float* pm = m.row(r);
    result[static_cast<size_t>(r)] =
        std::max_element(pm, pm + m.cols()) - pm;
  }
  return result;
}

std::vector<int64_t> ArgMinPerRow(const Tensor& m) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  PILOTE_CHECK_GT(m.cols(), 0);
  // hotpath-ok: the per-call output
  std::vector<int64_t> result(static_cast<size_t>(m.rows()));
  for (int64_t r = 0; r < m.rows(); ++r) {
    const float* pm = m.row(r);
    result[static_cast<size_t>(r)] =
        std::min_element(pm, pm + m.cols()) - pm;
  }
  return result;
}

Tensor SliceRows(const Tensor& m, int64_t begin, int64_t end) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  PILOTE_CHECK(begin >= 0 && begin <= end && end <= m.rows())
      << "SliceRows [" << begin << ", " << end << ") of " << m.rows();
  Tensor out(Shape::Matrix(end - begin, m.cols()));
  std::memcpy(out.data(), m.row(begin),
              static_cast<size_t>((end - begin) * m.cols()) * sizeof(float));
  return out;
}

Tensor GatherRows(const Tensor& m, const std::vector<int64_t>& indices) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  Tensor out(Shape::Matrix(static_cast<int64_t>(indices.size()), m.cols()));
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    PILOTE_CHECK(r >= 0 && r < m.rows()) << "GatherRows index " << r;
    std::memcpy(out.row(static_cast<int64_t>(i)), m.row(r),
                static_cast<size_t>(m.cols()) * sizeof(float));
  }
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  PILOTE_CHECK(!parts.empty());
  const int64_t cols = parts.front().cols();
  int64_t total_rows = 0;
  for (const Tensor& part : parts) {
    PILOTE_CHECK_EQ(part.rank(), 2);
    PILOTE_CHECK_EQ(part.cols(), cols);
    total_rows += part.rows();
  }
  Tensor out(Shape::Matrix(total_rows, cols));
  int64_t offset = 0;
  for (const Tensor& part : parts) {
    std::memcpy(out.row(offset), part.data(),
                static_cast<size_t>(part.numel()) * sizeof(float));
    offset += part.rows();
  }
  return out;
}

Tensor RowAt(const Tensor& m, int64_t r) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  PILOTE_CHECK(r >= 0 && r < m.rows());
  Tensor out(Shape::Vector(m.cols()));
  std::memcpy(out.data(), m.row(r),
              static_cast<size_t>(m.cols()) * sizeof(float));
  return out;
}

Tensor PairwiseSquaredDistance(const Tensor& a, const Tensor& b) {
  return PairwiseSquaredDistance(a, b, RowSquaredNorm(b));
}

Tensor PairwiseSquaredDistance(const Tensor& a, const Tensor& b,
                               const Tensor& nb) {
  PILOTE_CHECK_EQ(a.rank(), 2);
  PILOTE_CHECK_EQ(b.rank(), 2);
  PILOTE_CHECK_EQ(a.cols(), b.cols());
  PILOTE_CHECK_EQ(nb.numel(), b.rows());
  // ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y ; the cross term is one GEMM.
  // hotpath-ok: two small temporaries buy the GEMM factorization of
  // the O(n*m*d) naive distance loop; `out` is the per-call output.
  Tensor cross = MatMulTransB(a, b);  // [n,m]
  Tensor na = RowSquaredNorm(a);      // hotpath-ok: [n] temporary
  Tensor out(Shape::Matrix(a.rows(), b.rows()));  // hotpath-ok: output
  SquaredDistanceCombineInto(cross.data(), na.data(), nb.data(), out.data(),
                             a.rows(), b.rows());
  return out;
}

Tensor RowSquaredNorm(const Tensor& m) {
  PILOTE_CHECK_EQ(m.rank(), 2);
  Tensor out(Shape::Vector(m.rows()));  // hotpath-ok: output
  RowSquaredNormInto(m.data(), m.rows(), m.cols(), out.data());
  return out;
}

void RowSquaredNormInto(const float* m, int64_t rows, int64_t cols,
                        float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* pm = m + r * cols;
    float acc = 0.0f;
    for (int64_t c = 0; c < cols; ++c) acc += pm[c] * pm[c];
    out[r] = acc;
  }
}

void SquaredDistanceCombineInto(const float* cross, const float* a_sq_norms,
                                const float* b_sq_norms, float* out,
                                int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    float* po = out + i * cols;
    const float* pc = cross + i * cols;
    const float nai = a_sq_norms[i];
    for (int64_t j = 0; j < cols; ++j) {
      // Clamp tiny negatives from cancellation.
      po[j] = std::max(0.0f, nai + b_sq_norms[j] - 2.0f * pc[j]);
    }
  }
}

float SquaredDistance(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "SquaredDistance");
  const float* pa = a.data();
  const float* pb = b.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
    acc += d * d;
  }
  return static_cast<float>(acc);
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    const float bound = atol + rtol * std::fabs(pb[i]);
    if (diff > bound || std::isnan(diff)) return false;
  }
  return true;
}

}  // namespace pilote
