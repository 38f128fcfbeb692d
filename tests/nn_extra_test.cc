// Additional nn coverage: edge cases, numerical stability, graph reuse,
// and parameterized property sweeps complementing nn_test.cc.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/autograd.h"
#include "nn/modules.h"
#include "nn/optimizer.h"

namespace tpr::nn {
namespace {

Var MakeParam(std::vector<float> values, int rows, int cols) {
  return Var::Leaf(Tensor::FromValues(rows, cols, std::move(values)),
                   /*requires_grad=*/true);
}

TEST(AutogradExtraTest, BackwardTwiceAccumulates) {
  // Calling Backward on two separate graphs over the same leaf adds up.
  Var a = MakeParam({2.0f}, 1, 1);
  Sum(Mul(a, a)).Backward();   // d/da a^2 = 4
  Sum(Scale(a, 3.0f)).Backward();  // + 3
  EXPECT_FLOAT_EQ(a.grad()[0], 7.0f);
}

TEST(AutogradExtraTest, ZeroGradResets) {
  Var a = MakeParam({2.0f}, 1, 1);
  Sum(Mul(a, a)).Backward();
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(AutogradExtraTest, ConstantLeafGetsNoGradient) {
  Var a = MakeParam({1.0f, 2.0f}, 1, 2);
  Var c = Var::Leaf(Tensor::RowVector({3.0f, 4.0f}));
  Var loss = Sum(Mul(a, c));
  loss.Backward();
  EXPECT_TRUE(c.grad().empty());
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
}

TEST(AutogradExtraTest, DeepChainGradient) {
  // 60 chained tanh ops: gradients flow without stack overflow (iterative
  // topo sort) and stay finite.
  Var a = MakeParam({0.5f}, 1, 1);
  Var x = a;
  for (int i = 0; i < 60; ++i) x = Tanh(x);
  Sum(x).Backward();
  EXPECT_TRUE(std::isfinite(a.grad()[0]));
}

TEST(AutogradExtraTest, SigmoidExtremeInputsStable) {
  Var a = MakeParam({100.0f, -100.0f}, 1, 2);
  Var y = Sigmoid(a);
  EXPECT_NEAR(y.value()[0], 1.0f, 1e-6f);
  EXPECT_NEAR(y.value()[1], 0.0f, 1e-6f);
  Sum(y).Backward();
  EXPECT_TRUE(std::isfinite(a.grad()[0]));
}

TEST(AutogradExtraTest, SoftplusExtremeInputsStable) {
  Var a = MakeParam({500.0f, -500.0f}, 1, 2);
  Var y = Softplus(a);
  EXPECT_NEAR(y.value()[0], 500.0f, 1e-3f);
  EXPECT_NEAR(y.value()[1], 0.0f, 1e-6f);
}

TEST(AutogradExtraTest, CosineSimSelfIsOne) {
  Var a = MakeParam({0.3f, -0.7f, 0.2f}, 1, 3);
  EXPECT_NEAR(CosineSim(a, a).scalar(), 1.0f, 1e-5f);
}

TEST(AutogradExtraTest, CosineSimNearZeroVectorFinite) {
  Var a = MakeParam({1e-12f, 0.0f}, 1, 2);
  Var b = MakeParam({1.0f, 0.0f}, 1, 2);
  Var s = CosineSim(a, b);
  EXPECT_TRUE(std::isfinite(s.scalar()));
  s.Backward();
  EXPECT_TRUE(std::isfinite(a.grad()[0]));
}

TEST(AutogradExtraTest, GatherRepeatedIndicesAccumulate) {
  Var table = MakeParam({1, 2, 3, 4}, 2, 2);
  Var g = Gather(table, {0, 0, 0});
  Sum(g).Backward();
  EXPECT_FLOAT_EQ(table.grad().at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(table.grad().at(1, 0), 0.0f);
}

TEST(AutogradExtraTest, MseLossZeroAtTarget) {
  Var pred = MakeParam({1.0f, 2.0f}, 1, 2);
  Var loss = MseLoss(pred, Tensor::RowVector({1.0f, 2.0f}));
  EXPECT_FLOAT_EQ(loss.scalar(), 0.0f);
}

TEST(AutogradExtraTest, RowMeanOfSingleRowIsIdentity) {
  Var a = MakeParam({1, 2, 3}, 1, 3);
  Var m = RowMean(a);
  for (int j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(m.value()[j], a.value()[j]);
  }
}

TEST(ModulesExtraTest, LinearNoBias) {
  Rng rng(51);
  Linear layer(2, 2, rng, /*bias=*/false);
  EXPECT_EQ(layer.Parameters().size(), 1u);
  // Zero input -> zero output without bias.
  Var zero = Var::Leaf(Tensor(1, 2));
  Var y = layer.Forward(zero);
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 0.0f);
}

TEST(ModulesExtraTest, LstmForgetBiasInitialisedToOne) {
  Rng rng(52);
  LstmLayer layer(2, 3, rng);
  const auto params = layer.Parameters();
  const Tensor& bias = params[2].value();
  // Gate order [i, f, g, o]: forget block is columns [h, 2h).
  for (int j = 3; j < 6; ++j) EXPECT_FLOAT_EQ(bias.at(0, j), 1.0f);
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(bias.at(0, j), 0.0f);
}

TEST(ModulesExtraTest, LstmLearnsToCountSteps) {
  // Distinguish length-2 from length-6 constant sequences — requires the
  // recurrent state to integrate over time.
  Rng rng(53);
  Lstm lstm(1, 4, 1, rng);
  Linear head(4, 1, rng);
  std::vector<Var> params = lstm.Parameters();
  auto hp = head.Parameters();
  params.insert(params.end(), hp.begin(), hp.end());
  Adam opt(params, 0.02f);

  auto example = [&](int steps, float target) {
    Var x = Var::Leaf(Tensor(steps, 1, 0.5f));
    Var seq = lstm.Forward(x);
    Var pred = head.Forward(SliceRow(seq, steps - 1));
    return MseLoss(pred, Tensor::RowVector({target}));
  };
  float first = 0, last = 0;
  for (int e = 0; e < 150; ++e) {
    Var loss = Add(example(2, -1.0f), example(6, 1.0f));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    if (e == 0) first = loss.scalar();
    last = loss.scalar();
  }
  EXPECT_LT(last, first * 0.3f);
}

TEST(OptimizerExtraTest, AdamHandlesSparseGradients) {
  // A parameter that never receives gradient must remain unchanged.
  Var used = MakeParam({1.0f}, 1, 1);
  Var unused = MakeParam({2.0f}, 1, 1);
  Adam opt({used, unused}, 0.1f);
  for (int i = 0; i < 5; ++i) {
    Var loss = Sum(Mul(used, used));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_FLOAT_EQ(unused.value()[0], 2.0f);
  EXPECT_LT(used.value()[0], 1.0f);
}

// Property sweep: gradient of Sum(activation(x)) has the same shape as x
// and is finite across activations and shapes.
struct ActivationCase {
  const char* name;
  Var (*fn)(const Var&);
};

class ActivationSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ActivationSweepTest, FiniteGradients) {
  const auto [rows, cols] = GetParam();
  Rng rng(54);
  const ActivationCase cases[] = {
      {"tanh", &Tanh}, {"sigmoid", &Sigmoid}, {"relu", &Relu},
      {"softplus", &Softplus}};
  for (const auto& c : cases) {
    Var x = UniformParam(rows, cols, 0.9f, rng);
    Var loss = Sum(c.fn(x));
    loss.Backward();
    ASSERT_TRUE(x.grad().SameShape(x.value())) << c.name;
    for (size_t i = 0; i < x.grad().size(); ++i) {
      EXPECT_TRUE(std::isfinite(x.grad()[i])) << c.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ActivationSweepTest,
    ::testing::Combine(::testing::Values(1, 3, 7),
                       ::testing::Values(1, 4, 16)));

}  // namespace
}  // namespace tpr::nn
