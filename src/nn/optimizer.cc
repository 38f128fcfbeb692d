#include "nn/optimizer.h"

#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tpr::nn {

float Adam::ClipGradNorm(float max_norm) {
  double total = 0.0;
  for (const auto& p : params_) {
    const Tensor& g = p.grad();
    for (size_t i = 0; i < g.size(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (obs::MetricsEnabled()) {
    obs::GetHistogram("nn.grad_norm",
                      {1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2, 5, 10, 50, 1e3, 1e6})
        .Observe(norm);
    obs::GetGauge("nn.last_grad_norm").Set(norm);
  }
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (auto& p : params_) {
      if (p.grad().empty()) continue;
      Tensor& g = const_cast<Tensor&>(p.grad());
      for (size_t i = 0; i < g.size(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      chunks_(params_) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  obs::ScopedSpan span("nn.adam_step");
  const bool observe = obs::MetricsEnabled();
  const auto start = observe ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point();
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  chunks_.ForEach([&](size_t k, size_t begin, size_t end) {
    const Tensor& g = params_[k].grad();
    if (g.empty()) return;
    Tensor& w = params_[k].mutable_value();
    Tensor& m = m_[k];
    Tensor& v = v_[k];
    for (size_t i = begin; i < end; ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  });
  if (observe) {
    obs::GetCounter("nn.adam_steps").Add();
    obs::GetHistogram("nn.adam_step_seconds")
        .Observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.t = t_;
  state.m = m_;
  state.v = v_;
  return state;
}

Status Adam::ImportState(AdamState state) {
  if (state.m.size() != params_.size() ||
      state.v.size() != params_.size()) {
    return Status::FailedPrecondition(
        "Adam state holds " + std::to_string(state.m.size()) +
        " moment tensors, optimizer has " + std::to_string(params_.size()) +
        " parameters");
  }
  for (size_t k = 0; k < params_.size(); ++k) {
    if (!state.m[k].SameShape(params_[k].value()) ||
        !state.v[k].SameShape(params_[k].value())) {
      return Status::FailedPrecondition(
          "Adam moment shape mismatch at parameter " + std::to_string(k));
    }
  }
  t_ = state.t;
  m_ = std::move(state.m);
  v_ = std::move(state.v);
  return Status::OK();
}

}  // namespace tpr::nn
