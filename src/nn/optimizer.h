#ifndef TPR_NN_OPTIMIZER_H_
#define TPR_NN_OPTIMIZER_H_

#include <vector>

#include "nn/autograd.h"
#include "nn/grad_accumulator.h"
#include "util/status.h"

namespace tpr::nn {

/// The mutable state of an Adam optimizer: step count and first/second
/// moment estimates, in parameter order. Hyper-parameters (lr, betas,
/// eps) are configuration, not state — a restored optimizer keeps the
/// values it was constructed with.
struct AdamState {
  int t = 0;
  std::vector<Tensor> m;
  std::vector<Tensor> v;
};

/// Adam (Kingma & Ba) over a fixed list of leaf parameters. The paper
/// trains with lr = 3e-4. Step() updates the parameters in ParamChunks on
/// the default pool; the update is elementwise, so it keeps its bits at
/// any thread count. A parameter whose gradient is empty is left
/// untouched.
class Adam {
 public:
  Adam(std::vector<Var> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update using the gradients currently stored on the
  /// parameters, then leaves the gradients untouched.
  void Step();

  /// Clears all parameter gradients, for a loss.Backward() that
  /// accumulates into them. GradAccumulator::Reduce needs no clearing:
  /// it overwrites the gradients.
  void ZeroGrad() {
    for (auto& p : params_) p.ZeroGrad();
  }

  /// Rescales gradients so their global L2 norm is at most max_norm.
  /// Returns the pre-clipping norm.
  float ClipGradNorm(float max_norm);

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

  /// Copies out the moment estimates and step count (checkpointing).
  AdamState ExportState() const;

  /// Restores previously exported state. The moment tensors must match
  /// this optimizer's parameter list in count and shape.
  Status ImportState(AdamState state);

 private:
  std::vector<Var> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  ParamChunks chunks_;
};

}  // namespace tpr::nn

#endif  // TPR_NN_OPTIMIZER_H_
