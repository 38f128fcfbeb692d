#ifndef TPR_CORE_PROBE_H_
#define TPR_CORE_PROBE_H_

// Golden probe sets: a small, fixed collection of (path, depart_time,
// travel_time) queries used to compare encoder generations *offline*,
// before a candidate ever takes traffic. The quality signal is the MAE
// of a closed-form ridge-regression read-out from the candidate's
// embeddings to the weak travel-time labels — deliberately cheap (no
// gradient steps, no GBDT) and a pure function of the encoder
// parameters and the probe set, so two evaluations of the same model
// agree bitwise. tpr::rollout gates promotion on this: a candidate
// whose probe error regresses past the budget relative to the incumbent
// is quarantined without serving a single request.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/encoder.h"
#include "synth/dataset.h"
#include "util/status.h"

namespace tpr::core {

/// One probe query: a temporal path plus its weak travel-time label.
struct ProbeQuery {
  graph::Path path;
  int64_t depart_time_s = 0;
  double travel_time_s = 0.0;
};

/// A fixed golden probe set. Build once (deterministically) and reuse
/// for every candidate so generations are compared on identical inputs.
struct ProbeSet {
  std::vector<ProbeQuery> queries;
  /// Ridge regularizer for the travel-time read-out. Keeps the normal
  /// equations well-conditioned even when n < representation_dim.
  double ridge_lambda = 1e-2;
};

/// Deterministically samples `n` queries from the labeled pool of
/// `data` (fewer when the pool is smaller). The same (data, n, seed)
/// always yields the same probe set.
ProbeSet BuildProbeSet(const synth::CityDataset& data, size_t n,
                       uint64_t seed);

/// True iff every parameter value of the encoder is finite. The cheapest
/// sanity gate: a NaN/Inf anywhere poisons every embedding.
bool AllParametersFinite(const TemporalPathEncoder& encoder);

/// Travel-time MAE of a ridge-regression read-out over the encoder's
/// embeddings of the probe queries (one EncodeValueBatch call): fit w on
/// (embedding + bias) -> label in closed form (normal equations +
/// Cholesky), report mean |error| on the probe set itself.
/// Deterministic; InvalidArgument on an empty probe set, Internal if the
/// solve fails (non-finite embeddings).
StatusOr<double> ProbeTravelTimeMae(const TemporalPathEncoder& encoder,
                                    const ProbeSet& probe);

/// Maps a batch of (path, departure) items to one embedding row each,
/// in order.
using BatchEmbedFn = std::function<std::vector<std::vector<float>>(
    const std::vector<PathTimeItem>&)>;

/// Same read-out as ProbeTravelTimeMae over an arbitrary batch embedding
/// function, called once with every probe query — used to score the
/// int8-quantized twin of a candidate on the identical probe set, making
/// fp32 and quantized MAE directly comparable. InvalidArgument when
/// `embed` returns a row count other than the query count or a row
/// whose width is not `representation_dim`.
StatusOr<double> ProbeTravelTimeMaeWith(const BatchEmbedFn& embed,
                                        int representation_dim,
                                        const ProbeSet& probe);

}  // namespace tpr::core

#endif  // TPR_CORE_PROBE_H_
