#include "nn/transformer.h"

#include <cmath>
#include <vector>

namespace tpr::nn {

SelfAttention::SelfAttention(int input_dim, int attention_dim, Rng& rng)
    : input_dim_(input_dim),
      attention_dim_(attention_dim),
      query_(input_dim, attention_dim, rng),
      key_(input_dim, attention_dim, rng),
      value_(input_dim, attention_dim, rng) {}

namespace {

// Fused scores = q k^T / sqrt(d) op (there is no standalone transpose
// in the autograd vocabulary; the gradient is pushed manually).
Var ScaledDotScores(const Var& q, const Var& k, float scale) {
  const Tensor& qv = q.value();
  const Tensor& kv = k.value();
  const int t = qv.rows();
  Tensor scores(t, t);
  MatMulTransBAccumulate(qv, kv, scores);
  for (size_t i = 0; i < scores.size(); ++i) scores[i] *= scale;
  auto q_impl = q.impl_ptr();
  auto k_impl = k.impl_ptr();
  return MakeOp(
      std::move(scores), {q, k},
      [q_impl, k_impl, scale](internal::VarImpl* self) {
        // dQ = dS * K * scale ; dK = dS^T * Q * scale
        if (q_impl->requires_grad) {
          float* g = q_impl->EnsureGrad().data();
          Tensor tmp(q_impl->value.rows(), q_impl->value.cols());
          MatMulAccumulate(self->grad, k_impl->value, tmp);
          for (size_t i = 0; i < tmp.size(); ++i) g[i] += tmp[i] * scale;
        }
        if (k_impl->requires_grad) {
          float* g = k_impl->EnsureGrad().data();
          Tensor tmp(k_impl->value.rows(), k_impl->value.cols());
          MatMulTransAAccumulate(self->grad, q_impl->value, tmp);
          for (size_t i = 0; i < tmp.size(); ++i) g[i] += tmp[i] * scale;
        }
      });
}

}  // namespace

Var SelfAttention::Forward(const Var& sequence) const {
  TPR_CHECK(sequence.cols() == input_dim_);
  Var q = query_.Forward(sequence);  // T x d
  Var k = key_.Forward(sequence);
  Var v = value_.Forward(sequence);
  const float scale = 1.0f / std::sqrt(static_cast<float>(attention_dim_));
  Var scores_var = ScaledDotScores(q, k, scale);
  Var weights = SoftmaxRows(scores_var);  // T x T
  return MatMul(weights, v);              // T x d
}

std::vector<Var> SelfAttention::Parameters() const {
  std::vector<Var> params = query_.Parameters();
  for (const auto* layer : {&key_, &value_}) {
    auto p = layer->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

TransformerBlock::TransformerBlock(int dim, int ff_dim, Rng& rng)
    : attention_(dim, dim, rng),
      ff1_(dim, ff_dim, rng),
      ff2_(ff_dim, dim, rng) {}

Var TransformerBlock::Forward(const Var& sequence) const {
  Var attended = Add(sequence, attention_.Forward(sequence));
  Var ff = ff2_.Forward(Relu(ff1_.Forward(attended)));
  return Tanh(Add(attended, ff));  // tanh bounds activations sans layernorm
}

std::vector<Var> TransformerBlock::Parameters() const {
  std::vector<Var> params = attention_.Parameters();
  for (const auto* layer : {&ff1_, &ff2_}) {
    auto p = layer->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

TransformerEncoder::TransformerEncoder(int input_dim, int hidden_dim,
                                       int num_layers, Rng& rng)
    : hidden_dim_(hidden_dim), input_proj_(input_dim, hidden_dim, rng) {
  TPR_CHECK(num_layers >= 1);
  blocks_.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    blocks_.emplace_back(hidden_dim, 2 * hidden_dim, rng);
  }
}

Tensor TransformerEncoder::PositionEncoding(int steps) const {
  Tensor pe(steps, hidden_dim_);
  for (int pos = 0; pos < steps; ++pos) {
    for (int i = 0; i < hidden_dim_; ++i) {
      const double angle =
          pos / std::pow(10000.0, 2.0 * (i / 2) / hidden_dim_);
      pe.at(pos, i) = static_cast<float>(i % 2 == 0 ? std::sin(angle)
                                                    : std::cos(angle));
    }
  }
  return pe;
}

Var TransformerEncoder::Forward(const Var& sequence) const {
  Var x = input_proj_.Forward(sequence);
  x = Add(x, Var::Leaf(PositionEncoding(x.rows())));
  for (const auto& block : blocks_) x = block.Forward(x);
  return x;
}

std::vector<Var> TransformerEncoder::Parameters() const {
  std::vector<Var> params = input_proj_.Parameters();
  for (const auto& block : blocks_) {
    auto p = block.Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

}  // namespace tpr::nn
