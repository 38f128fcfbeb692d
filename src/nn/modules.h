#ifndef TPR_NN_MODULES_H_
#define TPR_NN_MODULES_H_

#include <string>
#include <vector>

#include "nn/autograd.h"
#include "util/rng.h"
#include "util/status.h"

namespace tpr::nn {

/// Base class for parameterised layers. Parameters are leaf Vars with
/// requires_grad=true; optimizers operate on the flat parameter list.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters of this module (recursively).
  virtual std::vector<Var> Parameters() const = 0;

  /// Copies parameter values (not gradients) from another module with an
  /// identical parameter layout. Used to transplant a pre-trained encoder
  /// into a supervised model (paper Fig. 7).
  Status CopyParamsFrom(const Module& other);
};

/// Fully connected layer: y = x W + b, with optional bias.
class Linear : public Module {
 public:
  /// Initialises weights Xavier-uniform with the given RNG.
  Linear(int in_features, int out_features, Rng& rng, bool bias = true);

  /// Forward: (m x in) -> (m x out).
  Var Forward(const Var& x) const;

  std::vector<Var> Parameters() const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Var weight_;  // in x out
  Var bias_;    // 1 x out (undefined when bias=false)
};

/// Lookup table mapping integer ids to dense rows. Implements the paper's
/// one-hot-times-matrix embeddings (Eq. 3) without materialising one-hots.
class Embedding : public Module {
 public:
  Embedding(int num_embeddings, int dim, Rng& rng);

  /// Looks up a batch of ids -> (|ids| x dim).
  Var Forward(const std::vector<int>& ids) const;

  /// Direct access to the table (e.g., to freeze node2vec vectors).
  Var& table() { return table_; }
  const Var& table() const { return table_; }

  int dim() const { return dim_; }
  int num_embeddings() const { return num_embeddings_; }

  std::vector<Var> Parameters() const override;

 private:
  int num_embeddings_;
  int dim_;
  Var table_;  // num_embeddings x dim
};

/// Single LSTM layer: one nn::LstmSequence node per sequence.
class LstmLayer : public Module {
 public:
  LstmLayer(int input_size, int hidden_size, Rng& rng);

  /// Processes a (T x input) sequence, returns the (T x hidden) outputs.
  Var Forward(const Var& sequence) const;

  std::vector<Var> Parameters() const override;

  int hidden_size() const { return hidden_size_; }

 private:
  int input_size_;
  int hidden_size_;
  Var w_ih_;  // input x 4*hidden, gate order [i, f, g, o]
  Var w_hh_;  // hidden x 4*hidden
  Var bias_;  // 1 x 4*hidden
};

/// Multi-layer LSTM (paper: 2 layers, Eq. 7).
class Lstm : public Module {
 public:
  Lstm(int input_size, int hidden_size, int num_layers, Rng& rng);

  /// (T x input) -> (T x hidden) from the top layer.
  Var Forward(const Var& sequence) const;

  std::vector<Var> Parameters() const override;

  int hidden_size() const { return hidden_size_; }

 private:
  int hidden_size_;
  std::vector<LstmLayer> layers_;
};

/// Single GRU layer (used by the PathRank baseline).
class GruLayer : public Module {
 public:
  GruLayer(int input_size, int hidden_size, Rng& rng);

  /// Processes a (T x input) sequence, returns the (T x hidden) outputs.
  Var Forward(const Var& sequence) const;

  std::vector<Var> Parameters() const override;

 private:
  int input_size_;
  int hidden_size_;
  Var w_ih_;  // input x 3*hidden, gate order [r, z, n]
  Var w_hh_;  // hidden x 3*hidden
  Var b_ih_;  // 1 x 3*hidden
  Var b_hh_;  // 1 x 3*hidden
};

/// A small multi-layer perceptron head: Linear -> ReLU -> ... -> Linear.
class Mlp : public Module {
 public:
  /// dims = {in, h1, ..., out}; at least {in, out}.
  Mlp(const std::vector<int>& dims, Rng& rng);

  Var Forward(const Var& x) const;

  std::vector<Var> Parameters() const override;

 private:
  std::vector<Linear> layers_;
};

/// Xavier-uniform initialised leaf parameter of the given shape.
Var XavierParam(int rows, int cols, Rng& rng);

/// Uniform(-bound, bound) initialised leaf parameter.
Var UniformParam(int rows, int cols, float bound, Rng& rng);

}  // namespace tpr::nn

#endif  // TPR_NN_MODULES_H_
