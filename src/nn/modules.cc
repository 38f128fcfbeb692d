#include "nn/modules.h"

#include <cmath>

namespace tpr::nn {

Status Module::CopyParamsFrom(const Module& other) {
  auto dst = Parameters();
  auto src = other.Parameters();
  if (dst.size() != src.size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    if (!dst[i].value().SameShape(src[i].value())) {
      return Status::InvalidArgument("parameter shape mismatch at index " +
                                     std::to_string(i));
    }
    dst[i].mutable_value() = src[i].value();
  }
  return Status::OK();
}

Var XavierParam(int rows, int cols, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(rows + cols));
  return UniformParam(rows, cols, bound, rng);
}

Var UniformParam(int rows, int cols, float bound, Rng& rng) {
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(-bound, bound));
  }
  return Var::Leaf(std::move(t), /*requires_grad=*/true);
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(int in_features, int out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(XavierParam(in_features, out_features, rng)) {
  if (bias) bias_ = Var::Leaf(Tensor(1, out_features), /*requires_grad=*/true);
}

Var Linear::Forward(const Var& x) const {
  if (bias_.defined()) return Affine(x, weight_, bias_);
  return MatMul(x, weight_);
}

std::vector<Var> Linear::Parameters() const {
  std::vector<Var> params = {weight_};
  if (bias_.defined()) params.push_back(bias_);
  return params;
}

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

Embedding::Embedding(int num_embeddings, int dim, Rng& rng)
    : num_embeddings_(num_embeddings),
      dim_(dim),
      table_(UniformParam(num_embeddings, dim,
                          1.0f / std::sqrt(static_cast<float>(dim)), rng)) {}

Var Embedding::Forward(const std::vector<int>& ids) const {
  return Gather(table_, ids);
}

std::vector<Var> Embedding::Parameters() const { return {table_}; }

// ---------------------------------------------------------------------------
// LSTM
// ---------------------------------------------------------------------------

LstmLayer::LstmLayer(int input_size, int hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      w_ih_(XavierParam(input_size, 4 * hidden_size, rng)),
      w_hh_(XavierParam(hidden_size, 4 * hidden_size, rng)),
      bias_(Var::Leaf(Tensor(1, 4 * hidden_size), /*requires_grad=*/true)) {
  // Initialise the forget-gate bias to 1 (standard trick for gradient flow).
  Tensor& b = bias_.mutable_value();
  for (int j = hidden_size; j < 2 * hidden_size; ++j) b.at(0, j) = 1.0f;
}

Var LstmLayer::Forward(const Var& sequence) const {
  TPR_CHECK(sequence.cols() == input_size_);
  return LstmSequence(sequence, w_ih_, w_hh_, bias_);
}

std::vector<Var> LstmLayer::Parameters() const { return {w_ih_, w_hh_, bias_}; }

Lstm::Lstm(int input_size, int hidden_size, int num_layers, Rng& rng)
    : hidden_size_(hidden_size) {
  TPR_CHECK(num_layers >= 1);
  layers_.reserve(num_layers);
  layers_.emplace_back(input_size, hidden_size, rng);
  for (int l = 1; l < num_layers; ++l) {
    layers_.emplace_back(hidden_size, hidden_size, rng);
  }
}

Var Lstm::Forward(const Var& sequence) const {
  Var x = sequence;
  for (const auto& layer : layers_) x = layer.Forward(x);
  return x;
}

std::vector<Var> Lstm::Parameters() const {
  std::vector<Var> params;
  for (const auto& layer : layers_) {
    auto p = layer.Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

// ---------------------------------------------------------------------------
// GRU
// ---------------------------------------------------------------------------

GruLayer::GruLayer(int input_size, int hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      w_ih_(XavierParam(input_size, 3 * hidden_size, rng)),
      w_hh_(XavierParam(hidden_size, 3 * hidden_size, rng)),
      b_ih_(Var::Leaf(Tensor(1, 3 * hidden_size), /*requires_grad=*/true)),
      b_hh_(Var::Leaf(Tensor(1, 3 * hidden_size), /*requires_grad=*/true)) {}

Var GruLayer::Forward(const Var& sequence) const {
  TPR_CHECK(sequence.cols() == input_size_);
  const int steps = sequence.rows();
  const int h = hidden_size_;
  Var h_prev = Var::Leaf(Tensor(1, h));
  kern::ArenaVector<Var> outputs;
  outputs.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    Var row_t = SliceRow(sequence, t);
    Var gi = Affine(row_t, w_ih_, b_ih_);
    Var gh = Affine(h_prev, w_hh_, b_hh_);
    // Fused cell: h_t = (1 - z) * n + z * h_prev with r/z/n computed
    // in one pass over the gate preactivations.
    Var h_t = GruCellOp(gi, gh, h_prev);
    outputs.push_back(h_t);
    h_prev = h_t;
  }
  return ConcatRows(outputs);
}

std::vector<Var> GruLayer::Parameters() const {
  return {w_ih_, w_hh_, b_ih_, b_hh_};
}

// ---------------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------------

Mlp::Mlp(const std::vector<int>& dims, Rng& rng) {
  TPR_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Var Mlp::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = Relu(h);
  }
  return h;
}

std::vector<Var> Mlp::Parameters() const {
  std::vector<Var> params;
  for (const auto& layer : layers_) {
    auto p = layer.Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

}  // namespace tpr::nn
