#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "common/numerics_guard.h"
#include "losses/contrastive.h"
#include "losses/distillation.h"
#include "losses/joint.h"
#include "optim/adam.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Enables the guard at runtime for the duration of each test so the suite
// exercises the checking path in every build configuration (in a
// -DPILOTE_DEBUG_NUMERICS=ON build the guard is unconditionally on).
class NumericsGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The global thread pool may have live workers (GEMM dispatch); fork()
    // death tests need the threadsafe style to re-exec instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    numerics::SetEnabled(true);
  }
  void TearDown() override { numerics::SetEnabled(false); }
};

using NumericsGuardDeathTest = NumericsGuardTest;

TEST_F(NumericsGuardTest, FiniteTensorsPassAllGuardedOps) {
  Tensor a = Tensor::Full(Shape::Matrix(3, 4), 2.0f);
  Tensor b = Tensor::Full(Shape::Matrix(3, 4), 0.5f);
  (void)Div(a, b);
  (void)Exp(a);
  (void)Sqrt(a);
  (void)MatMul(a, Transpose(b));
  SUCCEED();
}

TEST_F(NumericsGuardDeathTest, DivisionByZeroIsCaughtAndAttributed) {
  Tensor a = Tensor::Ones(Shape::Matrix(2, 2));
  Tensor b = Tensor::Zeros(Shape::Matrix(2, 2));
  EXPECT_DEATH((void)Div(a, b),
               "non-finite value .* produced by \\[Div\\] shape=\\[2, 2\\]");
}

TEST_F(NumericsGuardDeathTest, ReportsFlatIndexOfFirstCorruptElement) {
  Tensor a = Tensor::Ones(Shape::Vector(8));
  Tensor b = Tensor::Ones(Shape::Vector(8));
  b[5] = 0.0f;
  EXPECT_DEATH((void)Div(a, b), "at flat index 5");
}

TEST_F(NumericsGuardDeathTest, ExpOverflowIsCaught) {
  Tensor a = Tensor::Full(Shape::Vector(3), 1000.0f);
  EXPECT_DEATH((void)Exp(a), "produced by \\[Exp\\]");
}

TEST_F(NumericsGuardDeathTest, SqrtOfNegativeIsCaught) {
  Tensor a = Tensor::Full(Shape::Vector(2), -1.0f);
  EXPECT_DEATH((void)Sqrt(a), "produced by \\[Sqrt\\]");
}

TEST_F(NumericsGuardDeathTest, NanPropagationThroughMatMulIsCaughtAtSource) {
  Tensor a = Tensor::Ones(Shape::Matrix(2, 3));
  a(1, 2) = kNan;
  Tensor b = Tensor::Ones(Shape::Matrix(3, 2));
  EXPECT_DEATH((void)MatMul(a, b), "produced by \\[MatMul\\]");
}

// The acceptance scenario: a NaN deliberately injected into a loss input is
// caught at the loss boundary and attributed to the producing op, instead
// of silently corrupting the prototype state downstream.

TEST_F(NumericsGuardDeathTest, NanInDistillationStudentIsAttributed) {
  Tensor student = Tensor::Ones(Shape::Matrix(4, 8));
  student[5] = kNan;
  Tensor teacher = Tensor::Ones(Shape::Matrix(4, 8));
  autograd::Variable student_var = autograd::Variable::Parameter(student);
  EXPECT_DEATH((void)losses::DistillationLoss(student_var, teacher),
               "DistillationLoss student embedding.*shape=\\[4, 8\\]");
}

TEST_F(NumericsGuardDeathTest, InfInDistillationTeacherIsAttributed) {
  Tensor student = Tensor::Ones(Shape::Matrix(2, 4));
  Tensor teacher = Tensor::Ones(Shape::Matrix(2, 4));
  teacher[0] = kInf;
  autograd::Variable student_var = autograd::Variable::Parameter(student);
  EXPECT_DEATH((void)losses::DistillationLoss(student_var, teacher),
               "DistillationLoss teacher embedding");
}

TEST_F(NumericsGuardDeathTest, NanInContrastiveEmbeddingIsAttributed) {
  Tensor left = Tensor::Ones(Shape::Matrix(3, 4));
  Tensor right = Tensor::Ones(Shape::Matrix(3, 4));
  left(2, 1) = kNan;
  Tensor similar(Shape::Vector(3), {1.0f, 0.0f, 1.0f});
  autograd::Variable left_var = autograd::Variable::Parameter(left);
  autograd::Variable right_var = autograd::Variable::Parameter(right);
  EXPECT_DEATH((void)losses::ContrastiveLoss(left_var, right_var, similar,
                                             /*margin=*/1.0f,
                                             losses::ContrastiveForm::kHadsell),
               "ContrastiveLoss left embedding");
}

TEST_F(NumericsGuardDeathTest, NanGradientCaughtAtOptimizerStep) {
  autograd::Variable param =
      autograd::Variable::Parameter(Tensor::Ones(Shape::Vector(4)));
  Tensor bad_grad = Tensor::Ones(Shape::Vector(4));
  bad_grad[2] = kNan;
  param.node()->AccumulateGrad(bad_grad);
  optim::Adam adam({param}, optim::AdamOptions{});
  EXPECT_DEATH(adam.Step(), "Adam step grad");
}

TEST_F(NumericsGuardTest, JointLossStaysFiniteOnCleanInputs) {
  autograd::Variable distill =
      autograd::Variable::Constant(Tensor::Scalar(0.25f));
  autograd::Variable contra =
      autograd::Variable::Constant(Tensor::Scalar(0.75f));
  autograd::Variable joint = losses::JointLoss(distill, contra, 0.5f);
  EXPECT_FLOAT_EQ(joint.value()[0], 0.5f);
}

#ifndef PILOTE_DEBUG_NUMERICS
TEST(NumericsGuardDisabledTest, DisabledGuardLetsNonFiniteValuesThrough) {
  // With the runtime switch off (and no compile-time forcing) the guard
  // must be a no-op: Inf flows through, matching the unguarded hot path.
  numerics::SetEnabled(false);
  Tensor a = Tensor::Ones(Shape::Vector(2));
  Tensor b = Tensor::Zeros(Shape::Vector(2));
  Tensor q = Div(a, b);
  EXPECT_TRUE(std::isinf(q[0]));
}
#endif

TEST(NumericsGuardApiTest, EnableDisableRoundTrip) {
  numerics::SetEnabled(true);
  EXPECT_TRUE(numerics::Enabled());
  numerics::SetEnabled(false);
#ifdef PILOTE_DEBUG_NUMERICS
  EXPECT_TRUE(numerics::Enabled());  // compile-time forcing wins
#else
  EXPECT_FALSE(numerics::Enabled());
#endif
}

}  // namespace
}  // namespace pilote
