#ifndef TPR_NN_AUTOGRAD_H_
#define TPR_NN_AUTOGRAD_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "kern/arena.h"
#include "nn/tensor.h"

namespace tpr::nn {

class Var;

namespace internal {

struct VarImpl;

/// Parent edges and backward closures of the tape live in the
/// thread-local arena, like tensor storage, so a steady-state training
/// step allocates nothing fresh.
using ParentVec =
    std::vector<std::shared_ptr<VarImpl>,
                kern::ArenaStlAllocator<std::shared_ptr<VarImpl>>>;
using BackwardFn = kern::ArenaFn<void(VarImpl*)>;

/// Node of the dynamic computation graph. Holds the forward value, the
/// accumulated gradient, and a closure that pushes this node's gradient to
/// its parents. Not used directly by clients; see Var.
struct VarImpl {
  Tensor value;
  Tensor grad;  // allocated lazily, same shape as value; see EnsureGrad()
  bool requires_grad = false;
  uint64_t visit_epoch = 0;  // Backward() traversal mark; see autograd.cc
  ParentVec parents;
  BackwardFn backward_fn;

  /// The tensor this node's gradient accumulates into, allocated (zeroed)
  /// if absent. Every backward closure writes its parents' gradients
  /// through it. It is `grad`, except for a leaf that a
  /// Var::BackwardInto running on the calling thread redirects.
  Tensor& EnsureGrad();
};

/// Allocates a graph node in the thread arena (via allocate_shared, so
/// the control block recycles too).
std::shared_ptr<VarImpl> NewVarImpl();

/// Wraps a node handle as a Var (private-constructor access point for
/// the MakeOp templates).
Var WrapVar(std::shared_ptr<VarImpl> impl);

}  // namespace internal

/// While a NoGradGuard is alive, newly created ops do not record backward
/// closures, making pure inference cheaper. Guards nest.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

/// True when gradient recording is currently enabled.
bool GradEnabled();

/// A differentiable variable: a shared handle to a graph node. Ops on Vars
/// build a define-by-run graph; calling Backward() on a scalar result
/// accumulates gradients into every reachable leaf with requires_grad.
class Var {
 public:
  Var() = default;

  /// Creates a leaf holding `value`. Set requires_grad for parameters.
  static Var Leaf(Tensor value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const Tensor& value() const { return impl_->value; }
  Tensor& mutable_value() { return impl_->value; }
  const Tensor& grad() const { return impl_->grad; }
  bool requires_grad() const { return impl_ && impl_->requires_grad; }

  int rows() const { return impl_->value.rows(); }
  int cols() const { return impl_->value.cols(); }

  /// Convenience for 1x1 results.
  float scalar() const {
    TPR_CHECK(rows() == 1 && cols() == 1);
    return impl_->value.at(0, 0);
  }

  /// Zeroes this leaf's gradient (used by optimizers between steps).
  void ZeroGrad() {
    if (impl_ && !impl_->grad.empty()) impl_->grad.Fill(0.0f);
  }

  /// Runs reverse-mode accumulation from this node. The node must be a
  /// 1x1 scalar; its seed gradient is 1.
  void Backward() const;

  /// Backward(), except that the gradients of the leaves in `params`
  /// accumulate into the same-index tensors of `grads` (sized like
  /// `params`; an empty tensor starts from zero) and the leaves' own
  /// gradients stay untouched. Backward() writes no other leaf field,
  /// so threads can run this at once over graphs built on one set of
  /// parameters, each into its own `grads`.
  void BackwardInto(const std::vector<Var>& params,
                    std::vector<Tensor>& grads) const;

  internal::VarImpl* impl() const { return impl_.get(); }
  const std::shared_ptr<internal::VarImpl>& impl_ptr() const { return impl_; }

 private:
  explicit Var(std::shared_ptr<internal::VarImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<internal::VarImpl> impl_;

  friend Var internal::WrapVar(std::shared_ptr<internal::VarImpl> impl);
};

/// Creates an interior graph node from a parent range. The backward
/// closure is stored in the arena-backed BackwardFn (no std::function, no
/// per-op heap allocation). Exposed for clients that add custom fused
/// ops; library ops below cover the common cases.
template <typename ParentRange, typename F>
Var MakeOpRange(Tensor value, const ParentRange& parents, F&& backward_fn) {
  auto impl = internal::NewVarImpl();
  impl->value = std::move(value);
  bool needs_grad = false;
  if (GradEnabled()) {
    for (const Var& p : parents) needs_grad = needs_grad || p.requires_grad();
  }
  impl->requires_grad = needs_grad;
  if (needs_grad) {
    impl->parents.reserve(parents.size());
    for (const Var& p : parents) impl->parents.push_back(p.impl_ptr());
    impl->backward_fn = std::forward<F>(backward_fn);
  }
  return internal::WrapVar(std::move(impl));
}

template <typename F>
Var MakeOp(Tensor value, std::initializer_list<Var> parents, F&& backward_fn) {
  return MakeOpRange(std::move(value), parents, std::forward<F>(backward_fn));
}

template <typename F>
Var MakeOp(Tensor value, const std::vector<Var>& parents, F&& backward_fn) {
  return MakeOpRange(std::move(value), parents, std::forward<F>(backward_fn));
}

// ---------------------------------------------------------------------------
// Core ops. All return fresh graph nodes.
// ---------------------------------------------------------------------------

/// Matrix product: (m x k) * (k x n) -> (m x n).
Var MatMul(const Var& a, const Var& b);

/// Elementwise sum of two same-shaped tensors.
Var Add(const Var& a, const Var& b);

/// Adds a 1 x n row vector to every row of an m x n matrix.
Var AddRow(const Var& m, const Var& row);

/// Elementwise difference a - b.
Var Sub(const Var& a, const Var& b);

/// Elementwise (Hadamard) product.
Var Mul(const Var& a, const Var& b);

/// Elementwise quotient a / b. b must be nonzero.
Var Div(const Var& a, const Var& b);

/// Multiplies every element by constant s.
Var Scale(const Var& a, float s);

/// Adds constant s to every element.
Var AddScalar(const Var& a, float s);

/// Elementwise hyperbolic tangent.
Var Tanh(const Var& a);

/// Elementwise logistic sigmoid.
Var Sigmoid(const Var& a);

/// Elementwise rectified linear unit.
Var Relu(const Var& a);

/// Elementwise natural log. Inputs must be positive.
Var Log(const Var& a);

/// Elementwise numerically-stable softplus log(1 + e^x).
Var Softplus(const Var& a);

/// Sum of all elements -> 1x1.
Var Sum(const Var& a);

/// Mean of all elements -> 1x1.
Var Mean(const Var& a);

/// Mean over rows: (m x n) -> (1 x n). This is the paper's aggregate
/// function (Eq. 8) applied to the sequence of edge representations.
Var RowMean(const Var& a);

/// Max over rows: (m x n) -> (1 x n), used by max-pooling baselines.
Var RowMax(const Var& a);

/// Horizontal concatenation of row-compatible tensors.
Var ConcatCols(const std::vector<Var>& parts);
Var ConcatCols(std::initializer_list<Var> parts);

/// Vertical stacking of column-compatible tensors.
Var ConcatRows(const std::vector<Var>& parts);
Var ConcatRows(const kern::ArenaVector<Var>& parts);
Var ConcatRows(std::initializer_list<Var> parts);

/// Column slice [start, start + len).
Var SliceCols(const Var& a, int start, int len);

/// Selects row r of an m x n matrix as a 1 x n vector.
Var SliceRow(const Var& a, int r);

/// Row gather: selects rows of `table` by index (embedding lookup).
/// Backward scatter-adds into the table's gradient.
Var Gather(const Var& table, const std::vector<int>& indices);

/// Cosine similarity of two 1 x n row vectors -> 1x1. Fused op with an
/// epsilon-stabilised gradient (used by the WSC losses, Eq. 10-11).
Var CosineSim(const Var& a, const Var& b);

/// Dot product of two same-shaped tensors -> 1x1.
Var Dot(const Var& a, const Var& b);

/// Numerically stable log(sum(exp(a))) over all elements -> 1x1.
Var LogSumExp(const Var& a);

/// Row-wise softmax of an m x n matrix.
Var SoftmaxRows(const Var& a);

/// Mean squared error between prediction and constant target.
Var MseLoss(const Var& pred, const Tensor& target);

// ---------------------------------------------------------------------------
// Fused ops. One graph node and one output tensor where the naive
// composition would record several of each; the recurrent cells stop
// materialising per-gate intermediates entirely, and an LSTM layer is
// one node for the whole sequence.
// ---------------------------------------------------------------------------

/// Fused affine map: x (m x k) * w (k x n) + bias (1 x n, row-broadcast).
/// Equivalent to AddRow(MatMul(x, w), bias) with one node and no
/// intermediate.
Var Affine(const Var& x, const Var& w, const Var& bias);

/// One LSTM layer over a whole sequence, from the zero state: x (T x k),
/// w_ih (k x 4h), w_hh (h x 4h) and bias (1 x 4h), gate order [i f g o].
/// Returns the (T x h) hidden states, where
/// c_t = sigmoid(f)*c_{t-1} + sigmoid(i)*tanh(g), h_t = sigmoid(o)*tanh(c_t).
/// Forward: the bias, one x*w_ih GEMM over all T rows, then per step one
/// h_{t-1}*w_hh row GEMM (step 0 included) and kern::LstmCellRow, the
/// fp32 op order of core::InferencePlan. Backward: BPTT over the saved
/// activations with one recurrent row GEMM per step, then dx, dw_ih,
/// dw_hh and dbias once over the whole sequence. The op counters count
/// per step: two nn.matmul_ops and one nn.fused_cell_ops each.
Var LstmSequence(const Var& x, const Var& w_ih, const Var& w_hh,
                 const Var& bias);

/// Fused GRU cell. gi, gh: (m x 3h) preactivations in order [r z n];
/// h_prev: (m x h). Returns h_t = (1-z)*n + z*h_prev with
/// r = sigmoid(gi_r + gh_r), z = sigmoid(gi_z + gh_z),
/// n = tanh(gi_n + r*gh_n).
Var GruCellOp(const Var& gi, const Var& gh, const Var& h_prev);

}  // namespace tpr::nn

#endif  // TPR_NN_AUTOGRAD_H_
