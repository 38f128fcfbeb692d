#ifndef TPR_NN_TRANSFORMER_H_
#define TPR_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/modules.h"

namespace tpr::nn {

/// Single-head scaled dot-product self-attention over a (T x d) sequence.
/// Returns a (T x d_out) sequence.
class SelfAttention : public Module {
 public:
  SelfAttention(int input_dim, int attention_dim, Rng& rng);

  Var Forward(const Var& sequence) const;

  std::vector<Var> Parameters() const override;

  int attention_dim() const { return attention_dim_; }

 private:
  int input_dim_;
  int attention_dim_;
  Linear query_;
  Linear key_;
  Linear value_;
};

/// A small pre-norm-free transformer encoder block: self-attention with a
/// residual connection followed by a position-wise feed-forward layer with
/// a residual connection. Kept deliberately minimal (no layer norm — at
/// these depths tanh-bounded activations stay stable) so it can serve as
/// the drop-in "more advanced sequential model" the paper mentions as an
/// alternative to the LSTM (Section IV-C).
class TransformerBlock : public Module {
 public:
  TransformerBlock(int dim, int ff_dim, Rng& rng);

  Var Forward(const Var& sequence) const;

  std::vector<Var> Parameters() const override;

 private:
  SelfAttention attention_;
  Linear ff1_;
  Linear ff2_;
};

/// Stacked transformer encoder with an input projection and sinusoidal
/// position encodings, mirroring the Lstm interface: (T x input) ->
/// (T x hidden).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int input_dim, int hidden_dim, int num_layers, Rng& rng);

  Var Forward(const Var& sequence) const;

  std::vector<Var> Parameters() const override;

  int hidden_size() const { return hidden_dim_; }

 private:
  /// (T x hidden) sinusoidal position encoding.
  Tensor PositionEncoding(int steps) const;

  int hidden_dim_;
  Linear input_proj_;
  std::vector<TransformerBlock> blocks_;
};

}  // namespace tpr::nn

#endif  // TPR_NN_TRANSFORMER_H_
