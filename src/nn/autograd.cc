#include "nn/autograd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>

#include "kern/kern.h"
#include "obs/metrics.h"

namespace tpr::nn {

namespace {

// Thread-local so that concurrent workers can build autograd graphs (or
// run inference under NoGradGuard) without observing each other's mode.
thread_local int g_no_grad_depth = 0;

constexpr float kCosineEps = 1e-8f;

}  // namespace

NoGradGuard::NoGradGuard() { ++g_no_grad_depth; }
NoGradGuard::~NoGradGuard() { --g_no_grad_depth; }

bool GradEnabled() { return g_no_grad_depth == 0; }

namespace internal {

std::shared_ptr<VarImpl> NewVarImpl() {
  return std::allocate_shared<VarImpl>(kern::ArenaStlAllocator<VarImpl>());
}

Var WrapVar(std::shared_ptr<VarImpl> impl) { return Var(std::move(impl)); }

namespace {

// The leaf-gradient redirect of the innermost Var::BackwardInto running
// on this thread, if any.
struct GradRoute {
  const std::vector<Var>* params;
  std::vector<Tensor>* grads;
};
thread_local const GradRoute* t_grad_route = nullptr;

}  // namespace

Tensor& VarImpl::EnsureGrad() {
  Tensor* g = &grad;
  // Only leaves are redirected: an interior node belongs to the one
  // graph, and so the one thread, that built it.
  if (t_grad_route != nullptr && !backward_fn) {
    const std::vector<Var>& params = *t_grad_route->params;
    for (size_t p = 0; p < params.size(); ++p) {
      if (params[p].impl() == this) {
        g = &(*t_grad_route->grads)[p];
        break;
      }
    }
  }
  if (g->empty() && !value.empty()) *g = Tensor(value.rows(), value.cols());
  return *g;
}

}  // namespace internal

Var Var::Leaf(Tensor value, bool requires_grad) {
  auto impl = internal::NewVarImpl();
  impl->value = std::move(value);
  impl->requires_grad = requires_grad;
  return internal::WrapVar(std::move(impl));
}

namespace {

// Monotone traversal stamp shared by all Backward() calls. Each call
// claims a fresh epoch and marks reached nodes with it, which replaces a
// per-call unordered_set with one integer compare per edge. Only interior
// nodes are reached and marked, and each belongs to the thread that built
// it. Leaves have no closure to run, so the traversal never pushes them
// and never writes a parameter leaf that other threads' graphs share;
// the closures' writes to leaf gradients are what BackwardInto redirects.
std::atomic<uint64_t> g_backward_epoch{0};

}  // namespace

void Var::Backward() const {
  TPR_CHECK(defined());
  TPR_CHECK(rows() == 1 && cols() == 1) << "Backward() requires a scalar";
  if (!impl_->requires_grad) return;

  const uint64_t epoch = g_backward_epoch.fetch_add(1) + 1;

  // Iterative post-order topological sort over the parent DAG. The
  // scratch vectors persist per thread so steady-state steps reuse their
  // capacity instead of reallocating.
  thread_local std::vector<internal::VarImpl*> order;
  thread_local std::vector<std::pair<internal::VarImpl*, size_t>> stack;
  order.clear();
  stack.clear();
  // The root needs no mark: in a DAG none of its ancestors reaches it.
  stack.emplace_back(impl_.get(), 0);
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      internal::VarImpl* parent = node->parents[idx].get();
      ++idx;
      if (parent->backward_fn && parent->visit_epoch != epoch) {
        parent->visit_epoch = epoch;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  impl_->EnsureGrad().at(0, 0) = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::VarImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) node->backward_fn(node);
  }
}

void Var::BackwardInto(const std::vector<Var>& params,
                       std::vector<Tensor>& grads) const {
  TPR_CHECK(grads.size() == params.size());
  const internal::GradRoute route{&params, &grads};
  // The enclosing route comes back on every exit, also when Backward()
  // throws.
  struct Restore {
    const internal::GradRoute* outer;
    ~Restore() { internal::t_grad_route = outer; }
  } restore{std::exchange(internal::t_grad_route, &route)};
  Backward();
}

namespace {

// Accumulates `delta` into the gradient of `p` if it participates in
// differentiation.
void AccumulateGrad(internal::VarImpl* p, const Tensor& delta) {
  if (!p->requires_grad) return;
  Tensor& g = p->EnsureGrad();
  TPR_CHECK(g.SameShape(delta));
  kern::AddAcc(delta.data(), g.data(), static_cast<int>(delta.size()));
}

// Elementwise unary op helper: forward maps x->f(x); backward multiplies
// incoming gradient by dfd(value_in, value_out). The backward closure
// reads the forward output straight from the node (self->value), so no
// copy of the output is captured.
template <typename Fwd, typename Bwd>
Var UnaryOp(const Var& a, Fwd fwd, Bwd dfd) {
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const Tensor& in = a.value();
  for (size_t i = 0; i < in.size(); ++i) out[i] = fwd(in[i]);
  return MakeOp(std::move(out), {a}, [dfd](internal::VarImpl* self) {
    internal::VarImpl* p = self->parents[0].get();
    if (!p->requires_grad) return;
    const Tensor& in = p->value;
    const Tensor& out = self->value;
    float* g = p->EnsureGrad().data();
    const float* go = self->grad.data();
    for (size_t i = 0; i < in.size(); ++i) {
      g[i] += go[i] * dfd(in[i], out[i]);
    }
  });
}

// Copies the 1 x n bias row into every row of an uninitialised m x n
// output (shared by the fused affine forwards).
void BroadcastBiasRows(const Tensor& bias, Tensor& out) {
  const int m = out.rows(), n = out.cols();
  TPR_CHECK(bias.rows() == 1 && bias.cols() == n);
  const float* b = bias.data();
  for (int i = 0; i < m; ++i) {
    std::memcpy(out.data() + static_cast<size_t>(i) * n, b,
                static_cast<size_t>(n) * sizeof(float));
  }
}

// dBias += column sums of dOut.
void AccumulateBiasGrad(internal::VarImpl* bias, const Tensor& gout) {
  if (!bias->requires_grad) return;
  const int m = gout.rows(), n = gout.cols();
  float* bg = bias->EnsureGrad().data();
  for (int i = 0; i < m; ++i) {
    kern::AddAcc(gout.data() + static_cast<size_t>(i) * n, bg, n);
  }
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  static obs::Counter& ops = obs::GetCounter("nn.matmul_ops");
  static obs::Counter& flops = obs::GetCounter("nn.matmul_flops");
  ops.Add();
  flops.Add(2ull * a.rows() * a.cols() * b.cols());
  Tensor out(a.rows(), b.cols());
  MatMulAccumulate(a.value(), b.value(), out);
  return MakeOp(std::move(out), {a, b}, [](internal::VarImpl* self) {
    internal::VarImpl* a_impl = self->parents[0].get();
    internal::VarImpl* b_impl = self->parents[1].get();
    // dA = dOut * B^T ; dB = A^T * dOut
    if (a_impl->requires_grad) {
      MatMulTransBAccumulate(self->grad, b_impl->value, a_impl->EnsureGrad());
    }
    if (b_impl->requires_grad) {
      MatMulTransAAccumulate(a_impl->value, self->grad, b_impl->EnsureGrad());
    }
  });
}

Var Add(const Var& a, const Var& b) {
  TPR_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  const float* bd = b.value().data();
  for (size_t i = 0; i < out.size(); ++i) out[i] += bd[i];
  return MakeOp(std::move(out), {a, b}, [](internal::VarImpl* self) {
    AccumulateGrad(self->parents[0].get(), self->grad);
    AccumulateGrad(self->parents[1].get(), self->grad);
  });
}

Var AddRow(const Var& m, const Var& row) {
  TPR_CHECK(row.rows() == 1 && row.cols() == m.cols());
  Tensor out = m.value();
  const float* r = row.value().data();
  for (int i = 0; i < out.rows(); ++i) {
    float* o = out.data() + static_cast<size_t>(i) * out.cols();
    for (int j = 0; j < out.cols(); ++j) o[j] += r[j];
  }
  return MakeOp(std::move(out), {m, row}, [](internal::VarImpl* self) {
    AccumulateGrad(self->parents[0].get(), self->grad);
    AccumulateBiasGrad(self->parents[1].get(), self->grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  TPR_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  const float* bd = b.value().data();
  for (size_t i = 0; i < out.size(); ++i) out[i] -= bd[i];
  return MakeOp(std::move(out), {a, b}, [](internal::VarImpl* self) {
    AccumulateGrad(self->parents[0].get(), self->grad);
    internal::VarImpl* b_impl = self->parents[1].get();
    if (b_impl->requires_grad) {
      kern::AxpyAcc(-1.0f, self->grad.data(), b_impl->EnsureGrad().data(),
                    static_cast<int>(self->grad.size()));
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  TPR_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  const float* bd = b.value().data();
  for (size_t i = 0; i < out.size(); ++i) out[i] *= bd[i];
  return MakeOp(std::move(out), {a, b}, [](internal::VarImpl* self) {
    internal::VarImpl* a_impl = self->parents[0].get();
    internal::VarImpl* b_impl = self->parents[1].get();
    const int n = static_cast<int>(self->grad.size());
    if (a_impl->requires_grad) {
      kern::HadamardAcc(self->grad.data(), b_impl->value.data(),
                        a_impl->EnsureGrad().data(), n);
    }
    if (b_impl->requires_grad) {
      kern::HadamardAcc(self->grad.data(), a_impl->value.data(),
                        b_impl->EnsureGrad().data(), n);
    }
  });
}

Var Div(const Var& a, const Var& b) {
  TPR_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  const float* bd = b.value().data();
  for (size_t i = 0; i < out.size(); ++i) out[i] /= bd[i];
  return MakeOp(std::move(out), {a, b}, [](internal::VarImpl* self) {
    internal::VarImpl* a_impl = self->parents[0].get();
    internal::VarImpl* b_impl = self->parents[1].get();
    const float* go = self->grad.data();
    const float* av = a_impl->value.data();
    const float* bv = b_impl->value.data();
    if (a_impl->requires_grad) {
      float* g = a_impl->EnsureGrad().data();
      for (size_t i = 0; i < self->grad.size(); ++i) g[i] += go[i] / bv[i];
    }
    if (b_impl->requires_grad) {
      float* g = b_impl->EnsureGrad().data();
      for (size_t i = 0; i < self->grad.size(); ++i)
        g[i] -= go[i] * av[i] / (bv[i] * bv[i]);
    }
  });
}

Var Scale(const Var& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Var AddScalar(const Var& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Var Tanh(const Var& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Var Sigmoid(const Var& a) {
  return UnaryOp(
      a, [](float x) { return kern::SigmoidScalar(x); },
      [](float, float y) { return y * (1.0f - y); });
}

Var Relu(const Var& a) {
  return UnaryOp(
      a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float x, float) { return x > 0 ? 1.0f : 0.0f; });
}

Var Log(const Var& a) {
  return UnaryOp(
      a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Var Softplus(const Var& a) {
  return UnaryOp(
      a,
      [](float x) {
        // log(1 + e^x) = max(x, 0) + log(1 + e^{-|x|})
        return std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) { return kern::SigmoidScalar(x); });
}

Var Sum(const Var& a) {
  Tensor out(1, 1);
  out.at(0, 0) = a.value().Sum();
  return MakeOp(std::move(out), {a}, [](internal::VarImpl* self) {
    internal::VarImpl* a_impl = self->parents[0].get();
    if (!a_impl->requires_grad) return;
    const float g = self->grad.at(0, 0);
    float* pg = a_impl->EnsureGrad().data();
    for (size_t i = 0; i < a_impl->value.size(); ++i) pg[i] += g;
  });
}

Var Mean(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  return Scale(Sum(a), inv);
}

Var RowMean(const Var& a) {
  const int m = a.rows(), n = a.cols();
  TPR_CHECK(m > 0);
  Tensor out(1, n);
  for (int i = 0; i < m; ++i) {
    const float* row = a.value().data() + static_cast<size_t>(i) * n;
    kern::AddAcc(row, out.data(), n);
  }
  const float inv = 1.0f / static_cast<float>(m);
  for (int j = 0; j < n; ++j) out[j] *= inv;
  return MakeOp(std::move(out), {a}, [m, n, inv](internal::VarImpl* self) {
    internal::VarImpl* a_impl = self->parents[0].get();
    if (!a_impl->requires_grad) return;
    const float* go = self->grad.data();
    float* ga = a_impl->EnsureGrad().data();
    for (int i = 0; i < m; ++i) {
      float* g = ga + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) g[j] += go[j] * inv;
    }
  });
}

Var RowMax(const Var& a) {
  const int m = a.rows(), n = a.cols();
  TPR_CHECK(m > 0);
  Tensor out(1, n);
  kern::ArenaVector<int> argmax(n, 0);
  for (int j = 0; j < n; ++j) {
    float best = a.value().at(0, j);
    for (int i = 1; i < m; ++i) {
      if (a.value().at(i, j) > best) {
        best = a.value().at(i, j);
        argmax[j] = i;
      }
    }
    out[j] = best;
  }
  return MakeOp(std::move(out), {a},
                [argmax = std::move(argmax), n](internal::VarImpl* self) {
                  internal::VarImpl* a_impl = self->parents[0].get();
                  if (!a_impl->requires_grad) return;
                  Tensor& ga = a_impl->EnsureGrad();
                  const float* go = self->grad.data();
                  for (int j = 0; j < n; ++j) ga.at(argmax[j], j) += go[j];
                });
}

namespace {

// Shared concat-columns implementation over any contiguous Var range.
template <typename PartsVec>
Var ConcatColsImpl(const PartsVec& parts) {
  static obs::Counter& ops = obs::GetCounter("nn.concat_ops");
  ops.Add();
  TPR_CHECK(parts.size() > 0);
  const int m = parts.begin()->rows();
  int total = 0;
  for (const Var& p : parts) {
    TPR_CHECK(p.rows() == m);
    total += p.cols();
  }
  Tensor out = Tensor::Uninitialized(m, total);
  for (int i = 0; i < m; ++i) {
    float* dst = out.data() + static_cast<size_t>(i) * total;
    for (const Var& p : parts) {
      const float* src = p.value().data() + static_cast<size_t>(i) * p.cols();
      std::memcpy(dst, src, static_cast<size_t>(p.cols()) * sizeof(float));
      dst += p.cols();
    }
  }
  return MakeOpRange(std::move(out), parts,
                     [m, total](internal::VarImpl* self) {
                       int offset = 0;
                       for (const auto& p : self->parents) {
                         const int n = p->value.cols();
                         if (p->requires_grad) {
                           float* pg = p->EnsureGrad().data();
                           for (int i = 0; i < m; ++i) {
                             const float* src = self->grad.data() +
                                                static_cast<size_t>(i) * total +
                                                offset;
                             float* dst = pg + static_cast<size_t>(i) * n;
                             kern::AddAcc(src, dst, n);
                           }
                         }
                         offset += n;
                       }
                     });
}

// Shared concat-rows implementation: row stacking is a pure append in
// row-major layout.
template <typename PartsVec>
Var ConcatRowsImpl(const PartsVec& parts) {
  static obs::Counter& ops = obs::GetCounter("nn.concat_ops");
  ops.Add();
  TPR_CHECK(parts.size() > 0);
  const int n = parts.begin()->cols();
  int total = 0;
  for (const Var& p : parts) {
    TPR_CHECK(p.cols() == n);
    total += p.rows();
  }
  Tensor out = Tensor::Uninitialized(total, n);
  float* dst = out.data();
  for (const Var& p : parts) {
    std::memcpy(dst, p.value().data(), p.value().size() * sizeof(float));
    dst += p.value().size();
  }
  return MakeOpRange(std::move(out), parts, [n](internal::VarImpl* self) {
    size_t offset = 0;
    for (const auto& p : self->parents) {
      const size_t sz = static_cast<size_t>(p->value.rows()) * n;
      if (p->requires_grad) {
        kern::AddAcc(self->grad.data() + offset, p->EnsureGrad().data(),
                     static_cast<int>(sz));
      }
      offset += sz;
    }
  });
}

}  // namespace

Var ConcatCols(const std::vector<Var>& parts) { return ConcatColsImpl(parts); }

Var ConcatCols(std::initializer_list<Var> parts) {
  return ConcatColsImpl(parts);
}

Var ConcatRows(const std::vector<Var>& parts) { return ConcatRowsImpl(parts); }

Var ConcatRows(const kern::ArenaVector<Var>& parts) {
  return ConcatRowsImpl(parts);
}

Var ConcatRows(std::initializer_list<Var> parts) {
  return ConcatRowsImpl(parts);
}

Var SliceCols(const Var& a, int start, int len) {
  TPR_CHECK(start >= 0 && len > 0 && start + len <= a.cols());
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::Uninitialized(m, len);
  for (int i = 0; i < m; ++i) {
    const float* src = a.value().data() + static_cast<size_t>(i) * n + start;
    std::copy(src, src + len, out.data() + static_cast<size_t>(i) * len);
  }
  return MakeOp(std::move(out), {a},
                [start, len, m, n](internal::VarImpl* self) {
                  internal::VarImpl* a_impl = self->parents[0].get();
                  if (!a_impl->requires_grad) return;
                  float* ga = a_impl->EnsureGrad().data();
                  for (int i = 0; i < m; ++i) {
                    const float* src =
                        self->grad.data() + static_cast<size_t>(i) * len;
                    float* dst = ga + static_cast<size_t>(i) * n + start;
                    kern::AddAcc(src, dst, len);
                  }
                });
}

Var SliceRow(const Var& a, int r) {
  TPR_CHECK(r >= 0 && r < a.rows());
  const int n = a.cols();
  Tensor out = Tensor::Uninitialized(1, n);
  const float* src = a.value().data() + static_cast<size_t>(r) * n;
  std::copy(src, src + n, out.data());
  return MakeOp(std::move(out), {a}, [r, n](internal::VarImpl* self) {
    internal::VarImpl* a_impl = self->parents[0].get();
    if (!a_impl->requires_grad) return;
    kern::AddAcc(self->grad.data(),
                 a_impl->EnsureGrad().data() + static_cast<size_t>(r) * n, n);
  });
}

Var Gather(const Var& table, const std::vector<int>& indices) {
  const int n = table.cols();
  Tensor out = Tensor::Uninitialized(static_cast<int>(indices.size()), n);
  for (size_t i = 0; i < indices.size(); ++i) {
    TPR_CHECK(indices[i] >= 0 && indices[i] < table.rows());
    const float* src =
        table.value().data() + static_cast<size_t>(indices[i]) * n;
    std::copy(src, src + n, out.data() + i * n);
  }
  kern::ArenaVector<int> idx(indices.begin(), indices.end());
  return MakeOp(std::move(out), {table},
                [idx = std::move(idx), n](internal::VarImpl* self) {
                  internal::VarImpl* t_impl = self->parents[0].get();
                  if (!t_impl->requires_grad) return;
                  float* gt = t_impl->EnsureGrad().data();
                  for (size_t i = 0; i < idx.size(); ++i) {
                    const float* src = self->grad.data() + i * n;
                    float* dst = gt + static_cast<size_t>(idx[i]) * n;
                    kern::AddAcc(src, dst, n);
                  }
                });
}

Var CosineSim(const Var& a, const Var& b) {
  TPR_CHECK(a.rows() == 1 && b.rows() == 1 && a.cols() == b.cols());
  const int n = a.cols();
  const float* av = a.value().data();
  const float* bv = b.value().data();
  double dot = 0, na2 = 0, nb2 = 0;
  for (int i = 0; i < n; ++i) {
    dot += static_cast<double>(av[i]) * bv[i];
    na2 += static_cast<double>(av[i]) * av[i];
    nb2 += static_cast<double>(bv[i]) * bv[i];
  }
  const float na = static_cast<float>(std::sqrt(na2)) + kCosineEps;
  const float nb = static_cast<float>(std::sqrt(nb2)) + kCosineEps;
  const float cos = static_cast<float>(dot) / (na * nb);
  Tensor out(1, 1);
  out.at(0, 0) = cos;
  return MakeOp(std::move(out), {a, b},
                [na, nb, cos, n](internal::VarImpl* self) {
                  internal::VarImpl* a_impl = self->parents[0].get();
                  internal::VarImpl* b_impl = self->parents[1].get();
                  const float g = self->grad.at(0, 0);
                  const float* av = a_impl->value.data();
                  const float* bv = b_impl->value.data();
                  if (a_impl->requires_grad) {
                    float* ga = a_impl->EnsureGrad().data();
                    for (int i = 0; i < n; ++i) {
                      ga[i] +=
                          g * (bv[i] / (na * nb) - cos * av[i] / (na * na));
                    }
                  }
                  if (b_impl->requires_grad) {
                    float* gb = b_impl->EnsureGrad().data();
                    for (int i = 0; i < n; ++i) {
                      gb[i] +=
                          g * (av[i] / (na * nb) - cos * bv[i] / (nb * nb));
                    }
                  }
                });
}

Var Dot(const Var& a, const Var& b) { return Sum(Mul(a, b)); }

Var LogSumExp(const Var& a) {
  const Tensor& v = a.value();
  TPR_CHECK(!v.empty());
  float mx = v[0];
  for (size_t i = 1; i < v.size(); ++i) mx = std::max(mx, v[i]);
  double s = 0;
  for (size_t i = 0; i < v.size(); ++i) s += std::exp(v[i] - mx);
  Tensor out(1, 1);
  out.at(0, 0) = mx + static_cast<float>(std::log(s));
  const float lse = out.at(0, 0);
  return MakeOp(std::move(out), {a}, [lse](internal::VarImpl* self) {
    internal::VarImpl* a_impl = self->parents[0].get();
    if (!a_impl->requires_grad) return;
    const float g = self->grad.at(0, 0);
    const float* v = a_impl->value.data();
    float* pg = a_impl->EnsureGrad().data();
    for (size_t i = 0; i < a_impl->value.size(); ++i) {
      pg[i] += g * std::exp(v[i] - lse);
    }
  });
}

Var SoftmaxRows(const Var& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::Uninitialized(m, n);
  for (int i = 0; i < m; ++i) {
    const float* row = a.value().data() + static_cast<size_t>(i) * n;
    float* orow = out.data() + static_cast<size_t>(i) * n;
    float mx = row[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float s = 0;
    for (int j = 0; j < n; ++j) {
      orow[j] = std::exp(row[j] - mx);
      s += orow[j];
    }
    for (int j = 0; j < n; ++j) orow[j] /= s;
  }
  return MakeOp(std::move(out), {a}, [m, n](internal::VarImpl* self) {
    internal::VarImpl* a_impl = self->parents[0].get();
    if (!a_impl->requires_grad) return;
    float* ga = a_impl->EnsureGrad().data();
    for (int i = 0; i < m; ++i) {
      const float* y = self->value.data() + static_cast<size_t>(i) * n;
      const float* go = self->grad.data() + static_cast<size_t>(i) * n;
      float* g = ga + static_cast<size_t>(i) * n;
      float dotv = 0;
      for (int j = 0; j < n; ++j) dotv += go[j] * y[j];
      for (int j = 0; j < n; ++j) g[j] += y[j] * (go[j] - dotv);
    }
  });
}

Var MseLoss(const Var& pred, const Tensor& target) {
  TPR_CHECK(pred.value().SameShape(target));
  Var t = Var::Leaf(target, /*requires_grad=*/false);
  Var diff = Sub(pred, t);
  return Mean(Mul(diff, diff));
}

// ---------------------------------------------------------------------------
// Fused ops
// ---------------------------------------------------------------------------

Var Affine(const Var& x, const Var& w, const Var& bias) {
  static obs::Counter& ops = obs::GetCounter("nn.matmul_ops");
  static obs::Counter& flops = obs::GetCounter("nn.matmul_flops");
  ops.Add();
  flops.Add(2ull * x.rows() * x.cols() * w.cols());
  TPR_CHECK(x.cols() == w.rows());
  Tensor out = Tensor::Uninitialized(x.rows(), w.cols());
  BroadcastBiasRows(bias.value(), out);
  kern::GemmAcc(x.value().data(), w.value().data(), out.data(), x.rows(),
                x.cols(), w.cols());
  return MakeOp(std::move(out), {x, w, bias}, [](internal::VarImpl* self) {
    internal::VarImpl* x_impl = self->parents[0].get();
    internal::VarImpl* w_impl = self->parents[1].get();
    if (x_impl->requires_grad) {
      MatMulTransBAccumulate(self->grad, w_impl->value, x_impl->EnsureGrad());
    }
    if (w_impl->requires_grad) {
      MatMulTransAAccumulate(x_impl->value, self->grad, w_impl->EnsureGrad());
    }
    AccumulateBiasGrad(self->parents[2].get(), self->grad);
  });
}

Var LstmSequence(const Var& x, const Var& w_ih, const Var& w_hh,
                 const Var& bias) {
  static obs::Counter& ops = obs::GetCounter("nn.matmul_ops");
  static obs::Counter& flops = obs::GetCounter("nn.matmul_flops");
  static obs::Counter& cells = obs::GetCounter("nn.fused_cell_ops");
  const int steps = x.rows(), k = x.cols();
  const int h = w_hh.rows(), n4 = 4 * h;
  TPR_CHECK(steps > 0 && w_ih.rows() == k && w_ih.cols() == n4 &&
            w_hh.cols() == n4);
  // Counted per step, as the two gate GEMMs and the cell of one step.
  ops.Add(2ull * steps);
  flops.Add(2ull * steps * (k + h) * n4);
  cells.Add(steps);
  // Every gate row gets the bias, then x_t W_ih, then h_{t-1} W_hh (the
  // zero state at t = 0): core::InferencePlan's fp32 op order, so every
  // hidden row has the plan's bits.
  Tensor gates = Tensor::Uninitialized(steps, n4);
  BroadcastBiasRows(bias.value(), gates);
  kern::GemmAcc(x.value().data(), w_ih.value().data(), gates.data(), steps, k,
                n4);
  Tensor out = Tensor::Uninitialized(steps, h);
  // Saved for backward: [i f g o tanh(c_t)] per step, and [h_t | c_t] as
  // row t + 1 of hc, whose row 0 is the zero state.
  Tensor act = Tensor::Uninitialized(steps, 5 * h);
  Tensor hc(steps + 1, 2 * h);
  for (int t = 0; t < steps; ++t) {
    const float* prev = hc.data() + static_cast<size_t>(t) * 2 * h;
    float* next = hc.data() + static_cast<size_t>(t + 1) * 2 * h;
    float* g = gates.data() + static_cast<size_t>(t) * n4;
    kern::GemmAcc(prev, w_hh.value().data(), g, 1, h, n4);
    kern::LstmCellRow(g, prev + h, act.data() + static_cast<size_t>(t) * 5 * h,
                      next, h);
    std::memcpy(out.data() + static_cast<size_t>(t) * h, next,
                static_cast<size_t>(h) * sizeof(float));
  }
  return MakeOp(
      std::move(out), {x, w_ih, w_hh, bias},
      [act = std::move(act), hc = std::move(hc)](internal::VarImpl* self) {
        internal::VarImpl* x_impl = self->parents[0].get();
        internal::VarImpl* wih_impl = self->parents[1].get();
        internal::VarImpl* whh_impl = self->parents[2].get();
        const int steps = self->value.rows(), h = self->value.cols();
        const int k = x_impl->value.cols(), n4 = 4 * h;
        // BPTT, last step first. dh = dY_t + dG_{t+1} W_hh^T and dc (the
        // cell gradient carried back from step t + 1) are per-step rows;
        // dG collects every step's gate-preactivation gradient.
        Tensor dgates = Tensor::Uninitialized(steps, n4);
        Tensor dh(1, h);
        Tensor dc(1, h);
        for (int t = steps - 1; t >= 0; --t) {
          kern::AddAcc(self->grad.data() + static_cast<size_t>(t) * h,
                       dh.data(), h);
          const float* a = act.data() + static_cast<size_t>(t) * 5 * h;
          const float* cp = hc.data() + static_cast<size_t>(t) * 2 * h + h;
          float* dg = dgates.data() + static_cast<size_t>(t) * n4;
          for (int j = 0; j < h; ++j) {
            const float ig = a[j];
            const float fg = a[h + j];
            const float gg = a[2 * h + j];
            const float og = a[3 * h + j];
            const float tc = a[4 * h + j];
            const float dcj = dc[j] + dh[j] * og * (1.0f - tc * tc);
            dg[j] = dcj * gg * ig * (1.0f - ig);
            dg[h + j] = dcj * cp[j] * fg * (1.0f - fg);
            dg[2 * h + j] = dcj * ig * (1.0f - gg * gg);
            dg[3 * h + j] = dh[j] * tc * og * (1.0f - og);
            dc[j] = dcj * fg;
          }
          if (t > 0) {
            dh.Fill(0.0f);
            kern::GemmTransBAcc(dg, whh_impl->value.data(), dh.data(), 1, n4,
                                h);
          }
        }
        // The sequence-wide gradients, each one GEMM over the T rows.
        if (x_impl->requires_grad) {
          kern::GemmTransBAcc(dgates.data(), wih_impl->value.data(),
                              x_impl->EnsureGrad().data(), steps, n4, k);
        }
        if (wih_impl->requires_grad) {
          kern::GemmTransAAcc(x_impl->value.data(), dgates.data(),
                              wih_impl->EnsureGrad().data(), steps, k, n4);
        }
        // h_{t-1} pairs with dG_t for t >= 1; at T = 1 W_hh still gets
        // its (zero) gradient.
        if (whh_impl->requires_grad) {
          kern::GemmTransAAcc(self->value.data(), dgates.data() + n4,
                              whh_impl->EnsureGrad().data(), steps - 1, h, n4);
        }
        AccumulateBiasGrad(self->parents[3].get(), dgates);
      });
}

Var GruCellOp(const Var& gi, const Var& gh, const Var& h_prev) {
  static obs::Counter& cells = obs::GetCounter("nn.fused_cell_ops");
  cells.Add();
  const int m = gi.rows();
  const int h = h_prev.cols();
  TPR_CHECK(gi.cols() == 3 * h && gh.cols() == 3 * h);
  TPR_CHECK(gh.rows() == m && h_prev.rows() == m);
  Tensor out = Tensor::Uninitialized(m, h);
  // Saved activations for backward: [r z n] per row.
  Tensor act = Tensor::Uninitialized(m, 3 * h);
  const float* giv = gi.value().data();
  const float* ghv = gh.value().data();
  const float* hpv = h_prev.value().data();
  for (int r = 0; r < m; ++r) {
    kern::GruCellRow(giv + static_cast<size_t>(r) * 3 * h,
                     ghv + static_cast<size_t>(r) * 3 * h,
                     hpv + static_cast<size_t>(r) * h,
                     act.data() + static_cast<size_t>(r) * 3 * h,
                     out.data() + static_cast<size_t>(r) * h, h);
  }
  return MakeOp(
      std::move(out), {gi, gh, h_prev},
      [act = std::move(act), m, h](internal::VarImpl* self) {
        internal::VarImpl* gi_impl = self->parents[0].get();
        internal::VarImpl* gh_impl = self->parents[1].get();
        internal::VarImpl* hp_impl = self->parents[2].get();
        const bool need_gi = gi_impl->requires_grad;
        const bool need_gh = gh_impl->requires_grad;
        const bool need_hp = hp_impl->requires_grad;
        float* gi_grad = need_gi ? gi_impl->EnsureGrad().data() : nullptr;
        float* gh_grad = need_gh ? gh_impl->EnsureGrad().data() : nullptr;
        float* hp_grad = need_hp ? hp_impl->EnsureGrad().data() : nullptr;
        const float* ghv = gh_impl->value.data();
        const float* hpv = hp_impl->value.data();
        for (int r = 0; r < m; ++r) {
          const float* go = self->grad.data() + static_cast<size_t>(r) * h;
          const float* a = act.data() + static_cast<size_t>(r) * 3 * h;
          const float* ghr = ghv + static_cast<size_t>(r) * 3 * h;
          const float* hp = hpv + static_cast<size_t>(r) * h;
          float* dgi =
              need_gi ? gi_grad + static_cast<size_t>(r) * 3 * h : nullptr;
          float* dgh =
              need_gh ? gh_grad + static_cast<size_t>(r) * 3 * h : nullptr;
          float* dhp = need_hp ? hp_grad + static_cast<size_t>(r) * h : nullptr;
          for (int j = 0; j < h; ++j) {
            const float rg = a[j];
            const float zg = a[h + j];
            const float ng = a[2 * h + j];
            const float dh = go[j];
            const float dz = dh * (hp[j] - ng);
            const float dn = dh * (1.0f - zg);
            const float dn_pre = dn * (1.0f - ng * ng);
            const float dr = dn_pre * ghr[2 * h + j];
            const float dr_pre = dr * rg * (1.0f - rg);
            const float dz_pre = dz * zg * (1.0f - zg);
            if (need_gi) {
              dgi[j] += dr_pre;
              dgi[h + j] += dz_pre;
              dgi[2 * h + j] += dn_pre;
            }
            if (need_gh) {
              dgh[j] += dr_pre;
              dgh[h + j] += dz_pre;
              dgh[2 * h + j] += dn_pre * rg;
            }
            if (need_hp) dhp[j] += dh * zg;
          }
        }
      });
}

}  // namespace tpr::nn
