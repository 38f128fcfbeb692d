#include "core/probe.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/rng.h"

namespace tpr::core {
namespace {

/// Solves A x = b in place for a symmetric positive-definite A (n x n,
/// row-major) via Cholesky. Returns false when A is not SPD (a pivot
/// underflows), which with the ridge term only happens on non-finite
/// input.
bool CholeskySolve(std::vector<double>& a, std::vector<double>& b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (size_t k = 0; k < j; ++k) sum -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        if (!(sum > 0.0) || !std::isfinite(sum)) return false;
        a[i * n + i] = std::sqrt(sum);
      } else {
        a[i * n + j] = sum / a[j * n + j];
      }
    }
  }
  // Forward substitution L y = b, then back substitution L^T x = y.
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= a[i * n + k] * b[k];
    b[i] = sum / a[i * n + i];
  }
  for (size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= a[k * n + ii] * b[k];
    b[ii] = sum / a[ii * n + ii];
  }
  return true;
}

}  // namespace

ProbeSet BuildProbeSet(const synth::CityDataset& data, size_t n,
                       uint64_t seed) {
  ProbeSet probe;
  const auto& pool = data.labeled;
  if (pool.empty() || n == 0) return probe;
  // Deterministic sample without replacement: shuffle indices with a
  // seeded Rng, take the first n.
  std::vector<size_t> idx(pool.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(MixSeed(seed, 0x9011DE9085EULL));
  for (size_t i = idx.size(); i-- > 1;) {
    const size_t j = rng.UniformInt(i + 1);
    std::swap(idx[i], idx[j]);
  }
  const size_t take = std::min(n, idx.size());
  probe.queries.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    const auto& s = pool[idx[i]];
    probe.queries.push_back({s.path, s.depart_time_s, s.travel_time_s});
  }
  return probe;
}

bool AllParametersFinite(const TemporalPathEncoder& encoder) {
  for (const nn::Var& p : encoder.Parameters()) {
    if (!p.defined()) continue;
    const nn::Tensor& t = p.value();
    const float* data = t.data();
    for (size_t i = 0; i < t.size(); ++i) {
      if (!std::isfinite(data[i])) return false;
    }
  }
  return true;
}

StatusOr<double> ProbeTravelTimeMae(const TemporalPathEncoder& encoder,
                                    const ProbeSet& probe) {
  return ProbeTravelTimeMaeWith(
      [&encoder](const std::vector<PathTimeItem>& items) {
        return encoder.EncodeValueBatch(items);
      },
      encoder.representation_dim(), probe);
}

StatusOr<double> ProbeTravelTimeMaeWith(const BatchEmbedFn& embed,
                                        int representation_dim,
                                        const ProbeSet& probe) {
  const size_t n = probe.queries.size();
  if (n == 0) return Status::InvalidArgument("empty probe set");
  const size_t d = static_cast<size_t>(representation_dim) + 1;

  // Embed every probe query once, in one batch.
  std::vector<PathTimeItem> items;
  items.reserve(n);
  for (const ProbeQuery& q : probe.queries) {
    items.push_back({&q.path, q.depart_time_s});
  }
  const std::vector<std::vector<float>> rows = embed(items);
  if (rows.size() != n) {
    return Status::InvalidArgument(
        "probe embedding returned " + std::to_string(rows.size()) +
        " rows for " + std::to_string(n) + " queries");
  }

  // Design matrix with the bias feature appended.
  std::vector<double> x(n * d, 1.0);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<float>& e = rows[i];
    if (e.size() + 1 != d) {
      return Status::InvalidArgument(
          "probe embedding row " + std::to_string(i) + " has width " +
          std::to_string(e.size()) + ", want " +
          std::to_string(representation_dim));
    }
    std::copy(e.begin(), e.end(), x.begin() + i * d);
    y[i] = probe.queries[i].travel_time_s;
  }

  // Normal equations: (X^T X + lambda I) w = X^T y.
  std::vector<double> xtx(d * d, 0.0);
  std::vector<double> xty(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const double xij = x[i * d + j];
      xty[j] += xij * y[i];
      for (size_t k = 0; k <= j; ++k) xtx[j * d + k] += xij * x[i * d + k];
    }
  }
  for (size_t j = 0; j < d; ++j) {
    for (size_t k = j + 1; k < d; ++k) xtx[j * d + k] = xtx[k * d + j];
    xtx[j * d + j] += probe.ridge_lambda;
  }
  if (!CholeskySolve(xtx, xty, d)) {
    return Status::Internal("probe ridge solve failed (non-finite inputs)");
  }

  double abs_err = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double pred = 0.0;
    for (size_t j = 0; j < d; ++j) pred += x[i * d + j] * xty[j];
    abs_err += std::fabs(pred - y[i]);
  }
  const double mae = abs_err / static_cast<double>(n);
  if (!std::isfinite(mae)) {
    return Status::Internal("probe MAE is not finite");
  }
  return mae;
}

}  // namespace tpr::core
