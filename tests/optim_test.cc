#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/rng.h"
#include "optim/adam.h"
#include "optim/lr_scheduler.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace {

namespace ag = autograd;

// Minimizes ||x - target||^2 with the given optimizer factory; returns the
// final squared distance to the target.
template <typename MakeOptimizer>
float MinimizeQuadratic(MakeOptimizer make, int steps) {
  ag::Variable x = ag::Variable::Parameter(Tensor(Shape::Vector(4), 5.0f));
  Tensor target(Shape::Vector(4), {1.0f, -2.0f, 0.5f, 3.0f});
  auto optimizer = make(std::vector<ag::Variable>{x});
  for (int i = 0; i < steps; ++i) {
    ag::Variable loss =
        ag::Sum(ag::Square(ag::Sub(x, ag::Variable::Constant(target))));
    optimizer->ZeroGrad();
    loss.Backward();
    optimizer->Step();
  }
  return SquaredDistance(x.value(), target);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  const float dist = MinimizeQuadratic(
      [](std::vector<ag::Variable> params) {
        return std::make_unique<optim::Adam>(std::move(params),
                                             optim::AdamOptions{.lr = 0.1f});
      },
      200);
  EXPECT_LT(dist, 1e-4f);
}

TEST(AdamTest, SkipsParamsWithoutGradients) {
  ag::Variable used = ag::Variable::Parameter(Tensor(Shape::Vector(1), 1.0f));
  ag::Variable unused = ag::Variable::Parameter(Tensor(Shape::Vector(1), 7.0f));
  optim::Adam adam({used, unused}, {.lr = 0.5f});
  ag::Variable loss = ag::Sum(ag::Square(used));
  adam.ZeroGrad();
  loss.Backward();
  adam.Step();
  EXPECT_EQ(unused.value()[0], 7.0f);
  EXPECT_NE(used.value()[0], 1.0f);
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(AdamTest, FirstStepMovesByApproximatelyLr) {
  // With bias correction, the first Adam step has magnitude ~lr.
  ag::Variable x = ag::Variable::Parameter(Tensor(Shape::Vector(1), 10.0f));
  optim::Adam adam({x}, {.lr = 0.01f});
  ag::Variable loss = ag::Sum(ag::Square(x));
  adam.ZeroGrad();
  loss.Backward();
  adam.Step();
  EXPECT_NEAR(x.value()[0], 10.0f - 0.01f, 1e-4f);
}

TEST(ClipGradNormTest, ScalesLargeGradients) {
  ag::Variable x = ag::Variable::Parameter(Tensor(Shape::Vector(2), 0.0f));
  x.node()->AccumulateGrad(Tensor(Shape::Vector(2), {3.0f, 4.0f}));
  std::vector<ag::Variable> params = {x};
  const float norm = optim::ClipGradNorm(params, 1.0f);
  EXPECT_NEAR(norm, 5.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 0.8f, 1e-5f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  ag::Variable x = ag::Variable::Parameter(Tensor(Shape::Vector(2), 0.0f));
  x.node()->AccumulateGrad(Tensor(Shape::Vector(2), {0.3f, 0.4f}));
  std::vector<ag::Variable> params = {x};
  optim::ClipGradNorm(params, 1.0f);
  EXPECT_NEAR(x.grad()[0], 0.3f, 1e-6f);
}

// ---- LR schedule ----

TEST(LrSchedulerTest, HalvingMatchesPaperSchedule) {
  ag::Variable x = ag::Variable::Parameter(Tensor(Shape::Vector(1)));
  optim::Adam adam({x}, {.lr = 0.01f});
  optim::HalvingLr scheduler(&adam, 0.01f, 1e-6f);
  scheduler.OnEpochBegin(0);
  EXPECT_FLOAT_EQ(adam.lr(), 0.01f);
  scheduler.OnEpochBegin(1);
  EXPECT_FLOAT_EQ(adam.lr(), 0.005f);
  scheduler.OnEpochBegin(3);
  EXPECT_FLOAT_EQ(adam.lr(), 0.00125f);
}

TEST(LrSchedulerTest, HalvingRespectsFloor) {
  ag::Variable x = ag::Variable::Parameter(Tensor(Shape::Vector(1)));
  optim::Adam adam({x}, {.lr = 0.01f});
  optim::HalvingLr scheduler(&adam, 0.01f, 1e-4f);
  scheduler.OnEpochBegin(50);
  EXPECT_FLOAT_EQ(adam.lr(), 1e-4f);
}

}  // namespace
}  // namespace pilote
