#ifndef TPR_NN_GRAD_ACCUMULATOR_H_
#define TPR_NN_GRAD_ACCUMULATOR_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "nn/autograd.h"

namespace tpr::nn {

/// Fixed-size element chunks over a parameter list, for the elementwise
/// passes of an optimizer step (GradAccumulator::Reduce, Adam::Step).
/// The chunks tile the parameters' elements concatenated in list order,
/// kElements each, so they depend only on the shapes; an elementwise
/// pass gives the same bits for any chunking and any thread count.
class ParamChunks {
 public:
  static constexpr size_t kElements = 16384;

  explicit ParamChunks(const std::vector<Var>& params);

  /// Calls fn(k, begin, end) for every piece [begin, end) of parameter k
  /// that falls inside one chunk, so every element is visited exactly
  /// once. The chunks run in a ParallelFor on par::DefaultPool(), which
  /// runs a single chunk inline.
  void ForEach(const std::function<void(size_t, size_t, size_t)>& fn) const;

 private:
  std::vector<size_t> offsets_;  // prefix sums of the element counts
};

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
///
/// Slots persist: a slot tensor is allocated, zeroed, the first time a
/// shard's backward touches its parameter, and lives as long as the
/// accumulator. Reduce() zeroes every slot it adds, so the next batch
/// starts from zero without freeing or allocating anything. A slot a
/// parameter never touched stays empty and is skipped.
class GradAccumulator {
 public:
  explicit GradAccumulator(std::vector<Var> master_params);

  const std::vector<Var>& params() const { return master_; }

  /// Starts a batch of `num_shards` shards with no slot filled. Zeroes
  /// only the slots a Backward left unreduced (it threw).
  void BeginBatch(int num_shards);

  /// Backpropagates `loss` with the gradients of the master parameters
  /// sent to slot `shard` (which starts the batch at zero) instead of the
  /// parameters themselves (Var::BackwardInto). Safe to call concurrently
  /// for distinct shard indices.
  void Backward(int shard, const Var& loss);

  /// Moves the gradients accumulated on `params` (same layout as the
  /// master list) into slot `shard`, leaving those gradients cleared.
  /// Safe to call concurrently for distinct shard indices.
  void CaptureShard(int shard, const std::vector<Var>& params);

  /// Number of slots filled since BeginBatch. Call only after all
  /// Backward and CaptureShard calls of the batch have completed.
  int captured() const;

  /// master.grad = scale * sum over filled slots, then zeroes those
  /// slots. Each element starts at +0.0 and adds the slots in increasing
  /// index order, and every non-empty master gradient is overwritten, so
  /// a parameter no slot reached ends the reduce at zero and no ZeroGrad()
  /// comes first. Adding a zero slot is a bitwise no-op: a sum that
  /// starts at +0.0 never becomes -0.0. The master gradients are
  /// allocated on the calling thread; the zeroing and the adds run in
  /// ParamChunks.
  void Reduce(float scale);

 private:
  std::vector<Var> master_;
  ParamChunks chunks_;
  std::vector<std::vector<Tensor>> shard_grads_;  // grows, never shrinks
  std::vector<char> dirty_;   // slot may hold unreduced gradients
  std::vector<char> filled_;  // per shard of the current batch
};

}  // namespace tpr::nn

#endif  // TPR_NN_GRAD_ACCUMULATOR_H_
