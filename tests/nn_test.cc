#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "gradcheck.h"
#include "nn/autograd.h"
#include "nn/modules.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "util/rng.h"

namespace tpr::nn {
namespace {

// Numerically checks d(loss)/d(param) for every element of `param`, where
// `loss_fn` rebuilds the graph from scratch each call.
void CheckGradient(Var param, const std::function<Var()>& loss_fn,
                   float tolerance = 2e-2f) {
  Var loss = loss_fn();
  param.ZeroGrad();
  loss.Backward();
  Tensor analytic = param.grad();
  ASSERT_FALSE(analytic.empty());

  const float eps = 1e-3f;
  Tensor& value = param.mutable_value();
  for (size_t i = 0; i < value.size(); ++i) {
    const float original = value[i];
    value[i] = original + eps;
    const float up = loss_fn().scalar();
    value[i] = original - eps;
    const float down = loss_fn().scalar();
    value[i] = original;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0f, std::fabs(numeric)))
        << "at element " << i;
  }
}

Var MakeParam(std::vector<float> values, int rows, int cols) {
  return Var::Leaf(Tensor::FromValues(rows, cols, std::move(values)),
                   /*requires_grad=*/true);
}

TEST(TensorTest, ShapeAndFill) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.Sum(), 9.0f);
  t.Fill(0.0f);
  EXPECT_FLOAT_EQ(t.Sum(), 0.0f);
}

TEST(TensorTest, MatMulAccumulate) {
  Tensor a = Tensor::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromValues(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor out(2, 2);
  MatMulAccumulate(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154);
}

TEST(TensorTest, TransposedMatMulsAgreeWithExplicit) {
  // a^T * b == transpose(a) matmul b
  Tensor a = Tensor::FromValues(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromValues(3, 2, {1, 0, 0, 1, 1, 1});
  Tensor out(2, 2);
  MatMulTransAAccumulate(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 1 * 1 + 3 * 0 + 5 * 1);
  EXPECT_FLOAT_EQ(out.at(1, 1), 2 * 0 + 4 * 1 + 6 * 1);

  Tensor c = Tensor::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor d = Tensor::FromValues(2, 3, {1, 1, 0, 0, 1, 1});
  Tensor out2(2, 2);
  MatMulTransBAccumulate(c, d, out2);
  EXPECT_FLOAT_EQ(out2.at(0, 0), 1 + 2);
  EXPECT_FLOAT_EQ(out2.at(0, 1), 2 + 3);
}

TEST(AutogradTest, AddBackward) {
  Var a = MakeParam({1, 2, 3}, 1, 3);
  Var b = MakeParam({4, 5, 6}, 1, 3);
  CheckGradient(a, [&] { return Sum(Add(a, b)); });
  CheckGradient(b, [&] { return Sum(Add(a, b)); });
}

TEST(AutogradTest, MatMulBackward) {
  Var a = MakeParam({0.5f, -1.0f, 2.0f, 0.3f, 0.7f, -0.2f}, 2, 3);
  Var b = MakeParam({1.0f, 0.2f, -0.4f, 0.9f, 0.1f, -0.6f}, 3, 2);
  CheckGradient(a, [&] { return Sum(MatMul(a, b)); });
  CheckGradient(b, [&] { return Sum(MatMul(a, b)); });
}

TEST(AutogradTest, MulDivBackward) {
  Var a = MakeParam({0.5f, -1.0f, 2.0f}, 1, 3);
  Var b = MakeParam({1.5f, 2.0f, 4.0f}, 1, 3);
  CheckGradient(a, [&] { return Sum(Mul(a, b)); });
  CheckGradient(a, [&] { return Sum(Div(a, b)); });
  CheckGradient(b, [&] { return Sum(Div(a, b)); });
}

TEST(AutogradTest, ActivationsBackward) {
  Var a = MakeParam({0.5f, -1.0f, 2.0f, -0.3f}, 1, 4);
  CheckGradient(a, [&] { return Sum(Tanh(a)); });
  CheckGradient(a, [&] { return Sum(Sigmoid(a)); });
  CheckGradient(a, [&] { return Sum(Softplus(a)); });
}

TEST(AutogradTest, ReluBackward) {
  Var a = MakeParam({0.5f, -1.0f, 2.0f}, 1, 3);
  Var loss = Sum(Relu(a));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 0.0f);
  EXPECT_FLOAT_EQ(a.grad()[2], 1.0f);
}

TEST(AutogradTest, LogSqrtBackward) {
  Var a = MakeParam({0.5f, 1.0f, 2.0f}, 1, 3);
  CheckGradient(a, [&] { return Sum(Log(a)); });
}

TEST(AutogradTest, RowMeanRowMaxBackward) {
  Var a = MakeParam({1, 2, 3, 7, 5, 0.5f}, 2, 3);
  CheckGradient(a, [&] { return Sum(RowMean(a)); });
  CheckGradient(a, [&] { return Sum(RowMax(a)); });
}

TEST(AutogradTest, ConcatSliceGatherBackward) {
  Var a = MakeParam({1, 2, 3, 4}, 2, 2);
  Var b = MakeParam({5, 6, 7, 8}, 2, 2);
  CheckGradient(a, [&] { return Sum(ConcatCols({a, b})); });
  CheckGradient(a, [&] { return Sum(ConcatRows({a, b})); });
  CheckGradient(a, [&] { return Sum(SliceCols(ConcatCols({a, b}), 1, 2)); });
  CheckGradient(a, [&] { return Sum(SliceRow(a, 1)); });
  CheckGradient(a, [&] { return Sum(Gather(a, {1, 1, 0})); });
}

TEST(AutogradTest, CosineSimMatchesDefinition) {
  Var a = MakeParam({1, 0, 1}, 1, 3);
  Var b = MakeParam({1, 1, 0}, 1, 3);
  EXPECT_NEAR(CosineSim(a, b).scalar(), 0.5f, 1e-5f);
}

TEST(AutogradTest, CosineSimBackward) {
  Var a = MakeParam({0.5f, -1.0f, 2.0f}, 1, 3);
  Var b = MakeParam({1.5f, 2.0f, -0.5f}, 1, 3);
  CheckGradient(a, [&] { return CosineSim(a, b); });
  CheckGradient(b, [&] { return CosineSim(a, b); });
}

TEST(AutogradTest, LogSumExpBackward) {
  Var a = MakeParam({0.5f, -1.0f, 2.0f, 0.0f}, 1, 4);
  CheckGradient(a, [&] { return LogSumExp(a); });
  // Stability: large inputs must not overflow.
  Var big = MakeParam({1000.0f, 999.0f}, 1, 2);
  EXPECT_NEAR(LogSumExp(big).scalar(), 1000.0f + std::log(1 + std::exp(-1.0f)),
              1e-2f);
}

TEST(AutogradTest, SoftmaxRowsBackward) {
  Var a = MakeParam({0.5f, -1.0f, 2.0f, 1.0f, 0.0f, -0.5f}, 2, 3);
  CheckGradient(a, [&] { return Sum(Mul(SoftmaxRows(a), a)); });
}

TEST(AutogradTest, SoftmaxRowsSumsToOne) {
  Var a = MakeParam({3.0f, 1.0f, -2.0f}, 1, 3);
  Var y = SoftmaxRows(a);
  EXPECT_NEAR(y.value().Sum(), 1.0f, 1e-5f);
}

TEST(AutogradTest, GradAccumulatesAcrossSharedUse) {
  Var a = MakeParam({2.0f}, 1, 1);
  Var loss = Sum(Add(a, a));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(AutogradTest, NoGradGuardSkipsGraph) {
  Var a = MakeParam({1.0f, 2.0f}, 1, 2);
  NoGradGuard guard;
  Var s = Sum(a);
  EXPECT_FALSE(s.requires_grad());
}

TEST(AutogradTest, DiamondGraphBackward) {
  // loss = sum(a*a + a), checks topological ordering with shared parents.
  Var a = MakeParam({1.5f, -0.5f}, 1, 2);
  CheckGradient(a, [&] { return Sum(Add(Mul(a, a), a)); });
}

TEST(ModulesTest, LinearShapesAndGradient) {
  Rng rng(11);
  Linear layer(3, 2, rng);
  Var x = MakeParam({0.5f, -1.0f, 2.0f}, 1, 3);
  Var y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 1);
  EXPECT_EQ(y.cols(), 2);
  for (auto& p : layer.Parameters()) {
    CheckGradient(p, [&] { return Sum(layer.Forward(x)); });
  }
}

TEST(ModulesTest, EmbeddingLookup) {
  Rng rng(12);
  Embedding emb(5, 4, rng);
  Var out = emb.Forward({1, 3, 1});
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
  // Rows 0 and 2 must be identical (same id).
  for (int j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.value().at(0, j), out.value().at(2, j));
  }
}

TEST(ModulesTest, LstmShapesAndGradient) {
  Rng rng(13);
  Lstm lstm(4, 3, 2, rng);
  Var x = MakeParam({0.1f, 0.2f, -0.1f, 0.4f, -0.3f, 0.5f, 0.2f, 0.0f,
                     0.3f, -0.2f, 0.1f, 0.6f},
                    3, 4);
  Var y = lstm.Forward(x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 3);
  CheckGradient(x, [&] { return Sum(lstm.Forward(x)); }, 5e-2f);
}

TEST(ModulesTest, GruShapesAndGradient) {
  Rng rng(14);
  GruLayer gru(3, 2, rng);
  Var x = MakeParam({0.1f, 0.2f, -0.1f, 0.4f, -0.3f, 0.5f}, 2, 3);
  Var y = gru.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 2);
  CheckGradient(x, [&] { return Sum(gru.Forward(x)); }, 5e-2f);
}

TEST(ModulesTest, MlpReducesLossOnToyRegression) {
  Rng rng(15);
  Mlp mlp({2, 8, 1}, rng);
  Adam opt(mlp.Parameters(), 0.01f);
  // Learn y = x0 + 2*x1 on a few points.
  std::vector<std::pair<std::vector<float>, float>> points = {
      {{0.0f, 0.0f}, 0.0f}, {{1.0f, 0.0f}, 1.0f},
      {{0.0f, 1.0f}, 2.0f}, {{1.0f, 1.0f}, 3.0f}};
  auto epoch_loss = [&] {
    float total = 0;
    for (auto& [xv, yv] : points) {
      Var x = Var::Leaf(Tensor::RowVector(xv));
      Var loss = MseLoss(mlp.Forward(x), Tensor::RowVector({yv}));
      opt.ZeroGrad();
      loss.Backward();
      opt.Step();
      total += loss.scalar();
    }
    return total / points.size();
  };
  const float first = epoch_loss();
  float last = first;
  for (int e = 0; e < 200; ++e) last = epoch_loss();
  EXPECT_LT(last, first * 0.2f);
}

TEST(ModulesTest, CopyParamsFromTransplantsValues) {
  Rng rng1(16), rng2(17);
  Linear a(3, 2, rng1), b(3, 2, rng2);
  ASSERT_TRUE(a.CopyParamsFrom(b).ok());
  Var x = MakeParam({1, 2, 3}, 1, 3);
  Var ya = a.Forward(x);
  Var yb = b.Forward(x);
  for (size_t i = 0; i < ya.value().size(); ++i) {
    EXPECT_FLOAT_EQ(ya.value()[i], yb.value()[i]);
  }
}

TEST(ModulesTest, CopyParamsFromRejectsMismatch) {
  Rng rng(18);
  Linear a(3, 2, rng), b(2, 2, rng);
  EXPECT_FALSE(a.CopyParamsFrom(b).ok());
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Var w = MakeParam({5.0f}, 1, 1);
  Adam opt({w}, 0.3f);
  for (int i = 0; i < 200; ++i) {
    Var loss = Sum(Mul(w, w));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.value()[0], 0.0f, 0.05f);
}

TEST(OptimizerTest, ClipGradNormBoundsNorm) {
  Var w = MakeParam({3.0f, 4.0f}, 1, 2);
  Adam opt({w}, 0.1f);
  Var loss = Sum(Mul(w, Var::Leaf(Tensor::RowVector({30.0f, 40.0f}))));
  opt.ZeroGrad();
  loss.Backward();
  const float pre_norm = opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre_norm, 50.0f, 1e-3f);
  EXPECT_NEAR(w.grad().Norm(), 1.0f, 1e-4f);
}

// Fixed input sequence for the module-level gradient checks.
Var FixedSequence(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Gaussian(0.0, 0.5));
  }
  return Var::Leaf(std::move(t));
}

TEST(GradCheckModules, LstmMatchesFiniteDifferences) {
  Rng rng(101);
  Lstm lstm(3, 4, 2, rng);
  Var x = FixedSequence(5, 3, 7);
  tpr::testing::ExpectGradientsMatch([&] { return Sum(lstm.Forward(x)); },
                                     lstm.Parameters());
}

TEST(GradCheckModules, GruMatchesFiniteDifferences) {
  Rng rng(102);
  GruLayer gru(3, 4, rng);
  Var x = FixedSequence(5, 3, 8);
  tpr::testing::ExpectGradientsMatch([&] { return Sum(gru.Forward(x)); },
                                     gru.Parameters());
}

TEST(GradCheckModules, SelfAttentionMatchesFiniteDifferences) {
  Rng rng(103);
  SelfAttention attention(4, 4, rng);
  Var x = FixedSequence(6, 4, 9);
  tpr::testing::ExpectGradientsMatch(
      [&] { return Sum(attention.Forward(x)); }, attention.Parameters());
}

}  // namespace
}  // namespace tpr::nn
