#include "nn/grad_accumulator.h"

namespace tpr::nn {

GradAccumulator::GradAccumulator(std::vector<Var> master_params)
    : master_(std::move(master_params)) {}

void GradAccumulator::BeginBatch(int num_shards) {
  TPR_CHECK(num_shards >= 1);
  shard_grads_.assign(num_shards, {});
  filled_.assign(num_shards, 0);
}

void GradAccumulator::Backward(int shard, const Var& loss) {
  TPR_CHECK(shard >= 0 && shard < static_cast<int>(shard_grads_.size()));
  auto& slot = shard_grads_[shard];
  slot.resize(master_.size());
  loss.BackwardInto(master_, slot);
  filled_[shard] = 1;
}

void GradAccumulator::CaptureShard(int shard,
                                   const std::vector<Var>& params) {
  TPR_CHECK(shard >= 0 && shard < static_cast<int>(shard_grads_.size()));
  TPR_CHECK(params.size() == master_.size());
  auto& slot = shard_grads_[shard];
  slot.resize(params.size());
  for (size_t p = 0; p < params.size(); ++p) {
    internal::VarImpl* impl = params[p].impl();
    // Moving leaves the gradient empty == zeroed for the next use.
    slot[p] = std::move(impl->grad);
    impl->grad = Tensor();
  }
  filled_[shard] = 1;
}

int GradAccumulator::captured() const {
  int n = 0;
  for (char f : filled_) n += f;
  return n;
}

void GradAccumulator::Reduce(float scale) {
  for (size_t s = 0; s < shard_grads_.size(); ++s) {
    if (!filled_[s]) continue;
    const auto& slot = shard_grads_[s];
    for (size_t p = 0; p < master_.size(); ++p) {
      const Tensor& g = slot[p];
      if (g.empty()) continue;  // parameter unused by this shard's graph
      Tensor& master_grad = master_[p].impl()->EnsureGrad();
      TPR_CHECK(master_grad.SameShape(g));
      float* dst = master_grad.data();
      const float* src = g.data();
      for (size_t i = 0; i < g.size(); ++i) dst[i] += scale * src[i];
    }
  }
}

}  // namespace tpr::nn
