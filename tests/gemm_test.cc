#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace {

// Naive triple-loop reference used to validate the optimized kernels.
Tensor ReferenceMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(Shape::Matrix(a.rows(), b.cols()));
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(p, j);
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(GemmTest, SmallKnownProduct) {
  Tensor a(Shape::Matrix(2, 3), {1, 2, 3, 4, 5, 6});
  Tensor b(Shape::Matrix(3, 2), {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor(Shape::Matrix(2, 2), {58, 64, 139, 154})));
}

TEST(GemmTest, IdentityIsNeutral) {
  Rng rng(1);
  Tensor a = Tensor::RandNormal(Shape::Matrix(6, 6), rng);
  Tensor eye(Shape::Matrix(6, 6));
  for (int64_t i = 0; i < 6; ++i) eye(i, i) = 1.0f;
  EXPECT_TRUE(AllClose(MatMul(a, eye), a));
  EXPECT_TRUE(AllClose(MatMul(eye, a), a));
}

TEST(GemmTest, TransBMatchesExplicitTranspose) {
  Rng rng(2);
  Tensor a = Tensor::RandNormal(Shape::Matrix(5, 8), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(7, 8), rng);
  EXPECT_TRUE(AllClose(MatMulTransB(a, b), MatMul(a, Transpose(b)), 1e-4f));
}

TEST(GemmTest, TransAMatchesExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::RandNormal(Shape::Matrix(8, 5), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(8, 7), rng);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(Transpose(a), b), 1e-4f));
}

TEST(GemmTest, MismatchedInnerDimIsFatal) {
  Tensor a(Shape::Matrix(2, 3));
  Tensor b(Shape::Matrix(4, 2));
  EXPECT_DEATH(MatMul(a, b), "MatMul");
}

TEST(GemmTest, TransposeInvolution) {
  Rng rng(4);
  Tensor a = Tensor::RandNormal(Shape::Matrix(3, 9), rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a, 0.0f, 0.0f));
}

// Parameterized sweep over shapes, including sizes large enough to cross
// the kernel's parallel-dispatch threshold and degenerate 1-row/1-col
// cases.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  Tensor a = Tensor::RandNormal(Shape::Matrix(m, k), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(k, n), rng);
  EXPECT_TRUE(AllClose(MatMul(a, b), ReferenceMatMul(a, b), 1e-3f, 1e-3f))
      << "m=" << m << " k=" << k << " n=" << n;
}

TEST_P(GemmShapeTest, TransBMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 7 + k * 13 + n * 17));
  Tensor a = Tensor::RandNormal(Shape::Matrix(m, k), rng);
  Tensor bt = Tensor::RandNormal(Shape::Matrix(n, k), rng);
  EXPECT_TRUE(AllClose(MatMulTransB(a, bt),
                       ReferenceMatMul(a, Transpose(bt)), 1e-3f, 1e-3f));
}

TEST_P(GemmShapeTest, TransAMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 19 + k * 23 + n * 29));
  Tensor at = Tensor::RandNormal(Shape::Matrix(k, m), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(k, n), rng);
  EXPECT_TRUE(AllClose(MatMulTransA(at, b),
                       ReferenceMatMul(Transpose(at), b), 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 5),
                      std::make_tuple(7, 1, 3), std::make_tuple(4, 6, 1),
                      std::make_tuple(16, 16, 16), std::make_tuple(33, 17, 29),
                      std::make_tuple(64, 128, 32),
                      std::make_tuple(128, 80, 128)));

// Rounding pins. Every kernel sums over p in order from 0.0f; what differs
// is the rounding of each step, which gemm.cc writes in source. A*B^T is
// unfused (the product rounded, then the sum), A*B and A^T*B are fused
// (std::fma) and skip an exact-zero A entry. The references below spell
// out that contract; the comparisons are memcmp, so a kernel that reorders
// the sum or lets the compiler contract (or stop contracting) a step fails
// here.

// C = A * B^T with C[i,j] = (..((0 + a_i0*b_j0) + a_i1*b_j1) + ..), every
// product rounded on its own: the volatile store keeps it out of an FMA.
Tensor UnfusedTransBReference(const Tensor& a, const Tensor& b) {
  Tensor c(Shape::Matrix(a.rows(), b.rows()));
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < a.cols(); ++p) {
        volatile float product = a(i, p) * b(j, p);
        acc = acc + product;
      }
      c(i, j) = acc;
    }
  }
  return c;
}

// C = A_op * B with C[i,j] = fma(a_ip, b_pj, ..fma(a_i0, b_0j, 0)..), a
// step skipped where a_ip is exactly zero; a_ip comes from A [m, k] or,
// with trans_a, from A [k, m].
Tensor FusedReference(const Tensor& a, const Tensor& b, bool trans_a) {
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t k = trans_a ? a.rows() : a.cols();
  Tensor c(Shape::Matrix(m, b.cols()));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float a_ip = trans_a ? a(p, i) : a(i, p);
        if (a_ip != 0.0f) acc = std::fma(a_ip, b(p, j), acc);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

bool BitIdentical(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

// A ReLU-sparse activation matrix: about half its entries are exactly 0.
Tensor ReluSparse(int64_t rows, int64_t cols, Rng& rng) {
  return Relu(Tensor::RandNormal(Shape::Matrix(rows, cols), rng));
}

// Runs the compiled-plan kernel over B^T packed once, as plan capture does.
Tensor PlanGemm(const Tensor& a, const Tensor& b) {
  Tensor bt(Shape::Matrix(b.cols(), b.rows()));
  PackTransposed(b.data(), bt.data(), b.rows(), b.cols());
  Tensor c(Shape::Matrix(a.rows(), b.rows()));
  GemmPackedSerial(a.data(), bt.data(), c.data(), a.rows(), a.cols(),
                   b.rows());
  return c;
}

// m spans partial register tiles (1, 3, 5) and many full ones (130); k
// is odd, where an earlier dot-product form was partly fused. (1, 129, 5)
// is the NCM cross-term width and (3, 1025, 512) the widest backbone
// layer, where the plan kernel runs only its tail rows. The
// (130, 257, 65) shape is above the 4 MFLOP parallel-dispatch threshold.
class GemmRoundingTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmRoundingTest, TransBIsUnfusedInOrder) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 31 + k * 37 + n * 41));
  Tensor a = ReluSparse(m, k, rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(n, k), rng);
  const Tensor want = UnfusedTransBReference(a, b);
  EXPECT_TRUE(BitIdentical(MatMulTransB(a, b), want));
  EXPECT_TRUE(BitIdentical(PlanGemm(a, b), want));
}

TEST_P(GemmRoundingTest, MatMulIsFusedInOrder) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 43 + k * 47 + n * 53));
  Tensor a = ReluSparse(m, k, rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(k, n), rng);
  const Tensor want = FusedReference(a, b, /*trans_a=*/false);
  EXPECT_TRUE(BitIdentical(MatMul(a, b), want));
}

TEST_P(GemmRoundingTest, TransAIsFusedInOrder) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 59 + k * 61 + n * 67));
  Tensor at = ReluSparse(k, m, rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(k, n), rng);
  const Tensor want = FusedReference(at, b, /*trans_a=*/true);
  EXPECT_TRUE(BitIdentical(MatMulTransA(at, b), want));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmRoundingTest,
    ::testing::Values(std::make_tuple(1, 3, 9), std::make_tuple(5, 7, 13),
                      std::make_tuple(130, 17, 37),
                      std::make_tuple(130, 33, 24),
                      std::make_tuple(5, 33, 64),
                      std::make_tuple(130, 257, 65),
                      std::make_tuple(1, 129, 5),
                      std::make_tuple(3, 1025, 512)));

// Every tail of the register tile (8 rows by 32 columns, two 16-lane
// vectors) and of the 4-row SAXPY rows: m in {1, 7, 8, 9, 33} and n in
// {1, 5, 15, 16, 17, 31, 33, 80}, at a depth of 1, 128 and 1025.
INSTANTIATE_TEST_SUITE_P(
    TileEdges, GemmRoundingTest,
    ::testing::Combine(::testing::Values(1, 7, 8, 9, 33),
                       ::testing::Values(1, 128, 1025),
                       ::testing::Values(1, 5, 15, 16, 17, 31, 33, 80)));

// The three GEMMs of one Linear layer of the paper backbone
// 80 -> [1024, 512, 128, 64] -> 128 at the 128-row training batch: the
// forward Y = X W^T, the input gradient dX = dY W and the weight gradient
// dW = dY^T X, with ReLU-sparse X and dY. Every weight gradient but the
// two smallest is above the 4 MFLOP parallel-dispatch threshold, so these
// also pin the pool's task split.
class GemmTrainingShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GemmTrainingShapeTest, ForwardIsUnfusedInOrder) {
  const auto [in, out] = GetParam();
  Rng rng(static_cast<uint64_t>(in * 71 + out));
  Tensor x = ReluSparse(128, in, rng);
  Tensor w = Tensor::RandNormal(Shape::Matrix(out, in), rng);
  EXPECT_TRUE(BitIdentical(MatMulTransB(x, w), UnfusedTransBReference(x, w)));
}

TEST_P(GemmTrainingShapeTest, InputGradientIsFusedInOrder) {
  const auto [in, out] = GetParam();
  Rng rng(static_cast<uint64_t>(in * 73 + out));
  Tensor dy = ReluSparse(128, out, rng);
  Tensor w = Tensor::RandNormal(Shape::Matrix(out, in), rng);
  EXPECT_TRUE(
      BitIdentical(MatMul(dy, w), FusedReference(dy, w, /*trans_a=*/false)));
}

TEST_P(GemmTrainingShapeTest, WeightGradientIsFusedInOrder) {
  const auto [in, out] = GetParam();
  Rng rng(static_cast<uint64_t>(in * 79 + out));
  Tensor dy = ReluSparse(128, out, rng);
  Tensor x = ReluSparse(128, in, rng);
  EXPECT_TRUE(BitIdentical(MatMulTransA(dy, x),
                           FusedReference(dy, x, /*trans_a=*/true)));
}

INSTANTIATE_TEST_SUITE_P(
    PaperBackbone, GemmTrainingShapeTest,
    ::testing::Values(std::make_tuple(80, 1024), std::make_tuple(1024, 512),
                      std::make_tuple(512, 128), std::make_tuple(128, 64),
                      std::make_tuple(64, 128)));

// A holds an exact zero at the same p where B holds an Inf (0 * Inf is
// NaN), plus a finite row that meets the Inf. The unfused reference keeps
// every term, so each kernel must give NaN exactly where it does:
// GemmTransB, the kernel behind MatMulTransB, and the plan kernel, which
// must never skip a zero activation. m = 17 covers two 8-row register
// tiles (four 4-row tiles of the plan's rows) and a tail row. The raw
// kernels are called because MatMulTransB's numerics guard aborts on the
// NaN under PILOTE_DEBUG_NUMERICS.
TEST(GemmTest, ZeroTimesNonFiniteWeightPropagatesLikeTheReference) {
  for (int64_t m : {3, 17}) {
    SCOPED_TRACE("m " + std::to_string(m));
    const int64_t k = 9;
    const int64_t n = 20;
    Rng rng(static_cast<uint64_t>(m));
    Tensor a = ReluSparse(m, k, rng);
    Tensor b = Tensor::RandNormal(Shape::Matrix(n, k), rng);
    b(2, 4) = std::numeric_limits<float>::infinity();
    b(7, 6) = -std::numeric_limits<float>::infinity();
    for (int64_t i = 0; i < m; ++i) {
      a(i, 4) = 0.0f;
      a(i, 6) = (i % 2 == 0) ? 0.0f : 1.5f;
    }
    const Tensor want = UnfusedTransBReference(a, b);
    ASSERT_TRUE(std::isnan(want(0, 2)));
    ASSERT_TRUE(std::isnan(want(0, 7)));
    ASSERT_TRUE(std::isinf(want(1, 7)));
    Tensor eager(Shape::Matrix(m, n));
    GemmTransB(a.data(), b.data(), eager.data(), m, k, n);
    for (const Tensor& got : {eager, PlanGemm(a, b)}) {
      ASSERT_EQ(got.shape(), want.shape());
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          EXPECT_EQ(std::isnan(got(i, j)), std::isnan(want(i, j)))
              << "(" << i << ", " << j << ")";
          if (!std::isnan(want(i, j))) {
            EXPECT_EQ(got(i, j), want(i, j));
          }
        }
      }
    }
  }
}

// The fused kernels skip a step whose A entry is exactly zero, in every
// row: a zero meeting an Inf in B adds nothing, a nonzero entry meeting it
// gives +-Inf, and a NaN entry is never skipped. Identical rows must give
// identical results wherever they sit, inside a register tile or a 4-row
// tile or in a tail row: m = 5, 9 and 17 cover a partial tile, a full one
// plus a row and two plus a row. The raw kernels are called because the
// numerics guard of MatMul aborts on the Inf under PILOTE_DEBUG_NUMERICS.
TEST(GemmTest, ZeroTimesNonFiniteIsSkippedInEveryRowOfTheFusedKernels) {
  const float inf = std::numeric_limits<float>::infinity();
  for (int64_t m : {5, 9, 17}) {
    SCOPED_TRACE("m " + std::to_string(m));
    const int64_t k = 7;
    const int64_t n = 20;
    Rng rng(static_cast<uint64_t>(m + 100));
    Tensor row = ReluSparse(1, k, rng);
    row(0, 2) = 0.0f;
    row(0, 5) = 1.5f;
    Tensor a(Shape::Matrix(m, k));
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t p = 0; p < k; ++p) a(i, p) = row(0, p);
    }
    a(m - 1, 3) = std::numeric_limits<float>::quiet_NaN();
    Tensor b = Tensor::RandNormal(Shape::Matrix(k, n), rng);
    b(2, 4) = inf;
    b(5, 9) = -inf;
    const Tensor want = FusedReference(a, b, /*trans_a=*/false);
    ASSERT_FALSE(std::isnan(want(0, 4)));
    ASSERT_TRUE(std::isinf(want(0, 9)));
    ASSERT_TRUE(std::isnan(want(m - 1, 0)));
    Tensor at = Transpose(a);
    Tensor plain(Shape::Matrix(m, n));
    Tensor trans_a(Shape::Matrix(m, n));
    Gemm(a.data(), b.data(), plain.data(), m, k, n);
    GemmTransA(at.data(), b.data(), trans_a.data(), m, k, n);
    for (const Tensor& got : {plain, trans_a}) {
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          EXPECT_EQ(std::isnan(got(i, j)), std::isnan(want(i, j)))
              << "(" << i << ", " << j << ")";
          if (!std::isnan(want(i, j))) {
            EXPECT_EQ(got(i, j), want(i, j)) << "(" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

// Two threads run pool-dispatched MatMulTransB and MatMulTransA calls on
// different operands and depths at once. Each result must equal its
// single-thread value: every thread, the callers and the pool workers
// alike, packs B into a column-strip panel of its own.
TEST(GemmTest, ConcurrentCallersKeepTheirOwnPanels) {
  Rng rng(8);
  const Tensor a0 = ReluSparse(130, 257, rng);
  const Tensor b0 = Tensor::RandNormal(Shape::Matrix(65, 257), rng);
  const Tensor a1 = ReluSparse(128, 200, rng);
  const Tensor b1 = Tensor::RandNormal(Shape::Matrix(96, 200), rng);
  const Tensor dy0 = ReluSparse(128, 96, rng);
  const Tensor x0 = ReluSparse(128, 80, rng);
  const Tensor dy1 = ReluSparse(64, 160, rng);
  const Tensor x1 = ReluSparse(64, 130, rng);
  const Tensor want0 = MatMulTransB(a0, b0);
  const Tensor want1 = MatMulTransB(a1, b1);
  const Tensor want_grad0 = MatMulTransA(dy0, x0);
  const Tensor want_grad1 = MatMulTransA(dy1, x1);
  bool same0 = true;
  bool same1 = true;
  std::thread t0([&] {
    for (int r = 0; r < 50; ++r) {
      same0 &= BitIdentical(MatMulTransB(a0, b0), want0);
      same0 &= BitIdentical(MatMulTransA(dy0, x0), want_grad0);
    }
  });
  std::thread t1([&] {
    for (int r = 0; r < 50; ++r) {
      same1 &= BitIdentical(MatMulTransA(dy1, x1), want_grad1);
      same1 &= BitIdentical(MatMulTransB(a1, b1), want1);
    }
  });
  t0.join();
  t1.join();
  EXPECT_TRUE(same0);
  EXPECT_TRUE(same1);
}

}  // namespace
}  // namespace pilote
