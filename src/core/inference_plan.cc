#include "core/inference_plan.h"

#include <algorithm>
#include <numeric>

#include "graph/road_network.h"
#include "kern/kern.h"
#include "util/logging.h"

namespace tpr::core {
namespace {

/// Per-thread scratch. Serving calls the forward at a high rate with
/// small shapes, so every buffer keeps its capacity across calls.
struct Scratch {
  std::vector<int> order;   // rank -> item index, longest first
  std::vector<int> offset;  // step -> first packed row of that step
  std::vector<float> x, y, gates, cell, zeros, hc, act;
  std::vector<int8_t> q;
  std::vector<int32_t> acc;
};

Scratch& ThreadScratch() {
  static thread_local Scratch s;
  return s;
}

const float* TableRow(const PlanTable& table, int id) {
  TPR_CHECK(id >= 0 && id < table.rows)
      << "embedding lookup out of range: " << id << " vs " << table.rows;
  return table.data + static_cast<size_t>(id) * table.cols;
}

/// The item's temporal vector, or null when the plan drops the
/// temporal channel.
const float* TemporalVector(const InferencePlan& plan, int64_t depart_time_s) {
  if (!plan.use_temporal) return nullptr;
  const FeatureSpace& fs = *plan.features;
  return fs.temporal_embeddings[fs.TemporalNodeFor(depart_time_s)].data();
}

/// Writes one feature row [rt | lanes | oneway | signal | from | to |
/// t_vec] for edge `edge_id`.
void FillRow(const InferencePlan& plan, int edge_id, const float* t_vec,
             float* row) {
  const FeatureSpace& fs = *plan.features;
  const graph::RoadEdge& e = fs.data->network->edge(edge_id);
  const auto put = [&row](const float* src, int n) {
    row = std::copy(src, src + n, row);
  };
  put(TableRow(plan.road_type, static_cast<int>(e.road_type)),
      plan.road_type.cols);
  put(TableRow(plan.lanes, e.num_lanes - 1), plan.lanes.cols);
  put(TableRow(plan.oneway, e.one_way ? 1 : 0), plan.oneway.cols);
  put(TableRow(plan.signal, e.has_signal ? 1 : 0), plan.signal.cols);
  const int d_road = fs.config.road_embedding_dim;
  put(fs.road_embeddings[e.from].data(), d_road);
  put(fs.road_embeddings[e.to].data(), d_road);
  if (t_vec != nullptr) put(t_vec, fs.config.temporal_embedding_dim);
}

/// gates (rows x 4h) = the input-side gate preactivations of x (rows x
/// in_dim), bias included.
void InputGates(const InferencePlan& plan, const PlanLayer& layer,
                const float* x, int rows, int in_dim, float* gates,
                Scratch& s) {
  const int n4 = 4 * plan.d_hidden;
  if (plan.precision == InferencePlan::Precision::kFp32) {
    for (int r = 0; r < rows; ++r) {
      std::copy(layer.bias, layer.bias + n4,
                gates + static_cast<size_t>(r) * n4);
    }
    kern::GemmAcc(x, layer.w_ih, gates, rows, in_dim, n4);
    return;
  }
  s.q.resize(static_cast<size_t>(rows) * in_dim);
  s.acc.resize(static_cast<size_t>(rows) * n4);
  kern::QuantizeRow(x, 1.0f / layer.in_scale, s.q.data(), rows * in_dim);
  kern::GemmInt8Wide(s.q.data(), layer.w_ih_wide, s.acc.data(), rows, in_dim,
                     n4);
  kern::DequantBias(s.acc.data(), layer.in_scale, layer.w_ih_scales,
                    layer.bias, gates, rows, n4);
}

/// gates (m x 4h) += the recurrent gate preactivations of h_prev (m x h).
void RecurrentGates(const InferencePlan& plan, const PlanLayer& layer,
                    const float* h_prev, int m, float* gates, Scratch& s) {
  const int h = plan.d_hidden;
  const int n4 = 4 * h;
  if (plan.precision == InferencePlan::Precision::kFp32) {
    kern::GemmAcc(h_prev, layer.w_hh, gates, m, h, n4);
    return;
  }
  s.q.resize(static_cast<size_t>(m) * h);
  s.acc.resize(static_cast<size_t>(m) * n4);
  kern::QuantizeRow(h_prev, 1.0f / layer.hidden_scale, s.q.data(), m * h);
  kern::GemmInt8Wide(s.q.data(), layer.w_hh_wide, s.acc.data(), m, h, n4);
  kern::DequantAcc(s.acc.data(), layer.hidden_scale, layer.w_hh_scales, gates,
                   m, n4);
}

}  // namespace

int InferencePlan::input_dim() const {
  int dim = road_type.cols + lanes.cols + oneway.cols + signal.cols +
            2 * features->config.road_embedding_dim;
  if (use_temporal) dim += features->config.temporal_embedding_dim;
  return dim;
}

std::optional<std::vector<std::vector<float>>> InferencePlan::Encode(
    const std::vector<PathTimeItem>& items,
    const std::function<bool()>& cancelled,
    const LayerObserver& observe) const {
  const auto is_cancelled = [&cancelled] { return cancelled && cancelled(); };
  if (is_cancelled()) return std::nullopt;
  const int n = static_cast<int>(items.size());
  const int h = d_hidden;
  const int n4 = 4 * h;
  Scratch& s = ThreadScratch();

  // Longest first, so the items active at step t are a prefix of the
  // ranks. Stable: a fixed batch always packs the same way.
  for (const PathTimeItem& item : items) {
    TPR_CHECK(item.path != nullptr && !item.path->empty());
  }
  s.order.resize(static_cast<size_t>(n));
  std::iota(s.order.begin(), s.order.end(), 0);
  std::stable_sort(s.order.begin(), s.order.end(), [&items](int a, int b) {
    return items[a].path->size() > items[b].path->size();
  });
  const auto length = [&items, &s](int rank) {
    return static_cast<int>(items[s.order[rank]].path->size());
  };
  // offset[t] is the first packed row of step t; step t has
  // offset[t + 1] - offset[t] active items.
  const int steps = n > 0 ? length(0) : 0;
  s.offset.assign(static_cast<size_t>(steps) + 1, 0);
  for (int r = 0; r < n; ++r) {
    for (int t = 0; t < length(r); ++t) ++s.offset[t + 1];
  }
  std::partial_sum(s.offset.begin(), s.offset.end(), s.offset.begin());
  const int rows = s.offset[steps];
  const auto packed = [&s](int t, int rank) {
    return static_cast<size_t>(s.offset[t]) + rank;
  };

  const int in0 = input_dim();
  s.x.resize(static_cast<size_t>(rows) * in0);
  for (int r = 0; r < n; ++r) {
    const PathTimeItem& item = items[s.order[r]];
    const float* t_vec = TemporalVector(*this, item.depart_time_s);
    for (int t = 0; t < length(r); ++t) {
      FillRow(*this, (*item.path)[t], t_vec, s.x.data() + packed(t, r) * in0);
    }
  }
  if (is_cancelled()) return std::nullopt;

  s.zeros.assign(static_cast<size_t>(n) * h, 0.0f);  // the step-0 state
  s.cell.resize(static_cast<size_t>(n) * h);
  s.gates.resize(static_cast<size_t>(rows) * n4);
  s.hc.resize(2 * static_cast<size_t>(h));
  s.act.resize(5 * static_cast<size_t>(h));
  int in_dim = in0;
  for (size_t l = 0; l < layers.size(); ++l) {
    const PlanLayer& layer = layers[l];
    InputGates(*this, layer, s.x.data(), rows, in_dim, s.gates.data(), s);
    s.y.resize(static_cast<size_t>(rows) * h);
    std::fill(s.cell.begin(), s.cell.end(), 0.0f);
    for (int t = 0; t < steps; ++t) {
      const int m = s.offset[t + 1] - s.offset[t];
      float* g = s.gates.data() + packed(t, 0) * n4;
      const float* h_prev =
          t == 0 ? s.zeros.data() : s.y.data() + packed(t - 1, 0) * h;
      RecurrentGates(*this, layer, h_prev, m, g, s);
      for (int r = 0; r < m; ++r) {
        float* c = s.cell.data() + static_cast<size_t>(r) * h;
        kern::LstmCellRow(g + static_cast<size_t>(r) * n4, c, s.act.data(),
                          s.hc.data(), h);
        std::copy(s.hc.begin(), s.hc.begin() + h,
                  s.y.data() + packed(t, r) * h);
        std::copy(s.hc.begin() + h, s.hc.end(), c);
      }
    }
    if (observe) {
      observe(static_cast<int>(l),
              {s.x.data(), static_cast<size_t>(rows) * in_dim},
              {s.y.data(), static_cast<size_t>(rows) * h});
    }
    std::swap(s.x, s.y);
    in_dim = h;
  }
  if (is_cancelled()) return std::nullopt;

  // s.x now holds the top layer's packed hidden states.
  std::vector<std::vector<float>> out(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    const int len = length(r);
    const auto row = [&s, &packed, h, r](int t) {
      return s.x.data() + packed(t, r) * h;
    };
    std::vector<float>& v = out[static_cast<size_t>(s.order[r])];
    switch (aggregation) {
      case Aggregation::kMean: {
        v.assign(static_cast<size_t>(h), 0.0f);
        for (int t = 0; t < len; ++t) kern::AddAcc(row(t), v.data(), h);
        const float inv = 1.0f / static_cast<float>(len);
        for (float& e : v) e *= inv;
        break;
      }
      case Aggregation::kMax:
        v.assign(row(0), row(0) + h);
        for (int t = 1; t < len; ++t) {
          const float* x = row(t);
          for (int j = 0; j < h; ++j) {
            if (x[j] > v[j]) v[j] = x[j];
          }
        }
        break;
      case Aggregation::kLast:
        v.assign(row(len - 1), row(len - 1) + h);
        break;
    }
  }
  return out;
}

}  // namespace tpr::core
