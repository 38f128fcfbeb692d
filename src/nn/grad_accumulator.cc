#include "nn/grad_accumulator.h"

#include <algorithm>

#include "par/thread_pool.h"

namespace tpr::nn {

ParamChunks::ParamChunks(const std::vector<Var>& params) {
  offsets_.reserve(params.size() + 1);
  offsets_.push_back(0);
  for (const auto& p : params) {
    offsets_.push_back(offsets_.back() + p.value().size());
  }
}

void ParamChunks::ForEach(
    const std::function<void(size_t, size_t, size_t)>& fn) const {
  const size_t total = offsets_.back();
  const size_t chunks = (total + kElements - 1) / kElements;
  par::DefaultPool().ParallelFor(static_cast<int>(chunks), [&](int c) {
    size_t lo = static_cast<size_t>(c) * kElements;
    const size_t hi = std::min(total, lo + kElements);
    // The last parameter starting at or before lo holds it.
    size_t k = static_cast<size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), lo) -
        offsets_.begin() - 1);
    for (; lo < hi; ++k) {
      const size_t end = std::min(hi, offsets_[k + 1]);
      if (end > lo) fn(k, lo - offsets_[k], end - offsets_[k]);
      lo = end;
    }
  });
}

GradAccumulator::GradAccumulator(std::vector<Var> master_params)
    : master_(std::move(master_params)), chunks_(master_) {}

void GradAccumulator::BeginBatch(int num_shards) {
  TPR_CHECK(num_shards >= 1);
  if (shard_grads_.size() < static_cast<size_t>(num_shards)) {
    shard_grads_.resize(num_shards);
    dirty_.resize(num_shards, 0);
  }
  for (size_t s = 0; s < shard_grads_.size(); ++s) {
    if (!dirty_[s]) continue;
    for (Tensor& g : shard_grads_[s]) g.Fill(0.0f);
    dirty_[s] = 0;
  }
  filled_.assign(num_shards, 0);
}

void GradAccumulator::Backward(int shard, const Var& loss) {
  TPR_CHECK(shard >= 0 && shard < static_cast<int>(filled_.size()));
  auto& slot = shard_grads_[shard];
  slot.resize(master_.size());
  dirty_[shard] = 1;
  loss.BackwardInto(master_, slot);
  filled_[shard] = 1;
}

void GradAccumulator::CaptureShard(int shard,
                                   const std::vector<Var>& params) {
  TPR_CHECK(shard >= 0 && shard < static_cast<int>(filled_.size()));
  TPR_CHECK(params.size() == master_.size());
  auto& slot = shard_grads_[shard];
  slot.resize(params.size());
  for (size_t p = 0; p < params.size(); ++p) {
    internal::VarImpl* impl = params[p].impl();
    // Moving leaves the gradient empty == zeroed for the next use.
    slot[p] = std::move(impl->grad);
    impl->grad = Tensor();
  }
  dirty_[shard] = 1;
  filled_[shard] = 1;
}

int GradAccumulator::captured() const {
  int n = 0;
  for (char f : filled_) n += f;
  return n;
}

void GradAccumulator::Reduce(float scale) {
  for (size_t s = 0; s < filled_.size(); ++s) {
    if (!filled_[s]) continue;
    dirty_[s] = 0;  // the chunks below zero the whole slot
    for (size_t p = 0; p < master_.size(); ++p) {
      const Tensor& g = shard_grads_[s][p];
      if (g.empty()) continue;  // the parameter never reached this slot
      TPR_CHECK(master_[p].impl()->EnsureGrad().SameShape(g));
    }
  }
  chunks_.ForEach([&](size_t p, size_t begin, size_t end) {
    Tensor& master_grad = master_[p].impl()->grad;
    if (master_grad.empty()) return;
    float* dst = master_grad.data();
    std::fill(dst + begin, dst + end, 0.0f);
    for (size_t s = 0; s < filled_.size(); ++s) {
      if (!filled_[s]) continue;
      Tensor& g = shard_grads_[s][p];
      if (g.empty()) continue;
      float* src = g.data();
      for (size_t i = begin; i < end; ++i) dst[i] += scale * src[i];
      std::fill(src + begin, src + end, 0.0f);
    }
  });
}

}  // namespace tpr::nn
