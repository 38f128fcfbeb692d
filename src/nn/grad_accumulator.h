#ifndef TPR_NN_GRAD_ACCUMULATOR_H_
#define TPR_NN_GRAD_ACCUMULATOR_H_

#include <vector>

#include "nn/autograd.h"

namespace tpr::nn {

/// Deterministic gradient reduction for data-parallel training.
///
/// Each minibatch is split into a fixed number of shards — a pure
/// function of the batch, never of the thread count. Every shard builds
/// its autograd graph directly on the master parameters, and Backward()
/// sends that shard's parameter gradients into the shard's own *slot*,
/// never into the parameters, so shards can run concurrently on one
/// model. Reduce() sums the slots into the master parameters' gradients
/// in increasing shard order, so the reduced gradient is bitwise
/// identical no matter how many threads ran the shards — including a
/// single thread. Nothing may write a parameter while shards run.
class GradAccumulator {
 public:
  explicit GradAccumulator(std::vector<Var> master_params);

  const std::vector<Var>& params() const { return master_; }

  /// Prepares `num_shards` empty gradient slots for the next reduction.
  void BeginBatch(int num_shards);

  /// Backpropagates `loss` with the gradients of the master parameters
  /// sent to slot `shard` (starting from zero) instead of the parameters
  /// themselves (Var::BackwardInto). Safe to call concurrently for
  /// distinct shard indices.
  void Backward(int shard, const Var& loss);

  /// Moves the gradients accumulated on `params` (same layout as the
  /// master list) into slot `shard`, leaving those gradients cleared.
  /// Safe to call concurrently for distinct shard indices.
  void CaptureShard(int shard, const std::vector<Var>& params);

  /// Number of slots filled since BeginBatch. Call only after all
  /// Backward and CaptureShard calls of the batch have completed.
  int captured() const;

  /// master.grad += scale * sum over filled slots, iterating slots in
  /// increasing index order. Does not zero the master gradients first;
  /// pair with Optimizer::ZeroGrad().
  void Reduce(float scale);

 private:
  std::vector<Var> master_;
  std::vector<std::vector<Tensor>> shard_grads_;
  std::vector<char> filled_;
};

}  // namespace tpr::nn

#endif  // TPR_NN_GRAD_ACCUMULATOR_H_
