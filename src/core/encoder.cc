#include "core/encoder.h"

#include <algorithm>

#include "core/inference_plan.h"
#include "graph/road_network.h"
#include "util/logging.h"

namespace tpr::core {

TemporalPathEncoder::TemporalPathEncoder(
    std::shared_ptr<const FeatureSpace> features, const EncoderConfig& config)
    : features_(std::move(features)), config_(config) {
  TPR_CHECK(features_ != nullptr);
  Rng rng(config.seed);
  road_type_emb_ =
      std::make_unique<nn::Embedding>(graph::kNumRoadTypes, config.d_rt, rng);
  lanes_emb_ =
      std::make_unique<nn::Embedding>(graph::kMaxLanes, config.d_lanes, rng);
  oneway_emb_ = std::make_unique<nn::Embedding>(2, config.d_oneway, rng);
  signal_emb_ = std::make_unique<nn::Embedding>(2, config.d_signal, rng);
  if (config.sequence_model == SequenceModel::kLstm) {
    lstm_ = std::make_unique<nn::Lstm>(input_dim(), config.d_hidden,
                                       config.lstm_layers, rng);
  } else {
    transformer_ = std::make_unique<nn::TransformerEncoder>(
        input_dim(), config.d_hidden, config.lstm_layers, rng);
  }
  if (config.use_projection_head) {
    proj1_ = std::make_unique<nn::Linear>(config.d_hidden,
                                          config.d_hidden, rng);
    proj2_ = std::make_unique<nn::Linear>(config.d_hidden,
                                          config.projection_dim, rng);
  }
}

int TemporalPathEncoder::input_dim() const {
  const int d_topo = 2 * features_->config.road_embedding_dim;
  int dim = config_.d_rt + config_.d_lanes + config_.d_oneway +
            config_.d_signal + d_topo;
  if (config_.use_temporal) dim += features_->config.temporal_embedding_dim;
  return dim;
}

nn::Var TemporalPathEncoder::BuildStaticFeatures(const graph::Path& path,
                                                 int64_t depart_time_s) const {
  const auto& network = *features_->data->network;
  const int d_road = features_->config.road_embedding_dim;
  const int d_topo = 2 * d_road;
  const int d_tem =
      config_.use_temporal ? features_->config.temporal_embedding_dim : 0;
  const int T = static_cast<int>(path.size());

  nn::Tensor static_features(T, d_topo + d_tem);
  const int t_node = features_->TemporalNodeFor(depart_time_s);
  const auto& t_vec = features_->temporal_embeddings[t_node];
  for (int i = 0; i < T; ++i) {
    const auto& e = network.edge(path[i]);
    const auto& from_vec = features_->road_embeddings[e.from];
    const auto& to_vec = features_->road_embeddings[e.to];
    float* row = static_features.data() +
                 static_cast<size_t>(i) * (d_topo + d_tem);
    std::copy(from_vec.begin(), from_vec.end(), row);
    std::copy(to_vec.begin(), to_vec.end(), row + d_road);
    if (config_.use_temporal) {
      std::copy(t_vec.begin(), t_vec.end(), row + d_topo);
    }
  }
  return nn::Var::Leaf(std::move(static_features), /*requires_grad=*/false);
}

EncodedPath TemporalPathEncoder::Encode(const graph::Path& path,
                                        int64_t depart_time_s) const {
  TPR_CHECK(!path.empty());
  const auto& network = *features_->data->network;
  const int T = static_cast<int>(path.size());

  std::vector<int> rt_ids(T), lane_ids(T), ow_ids(T), ts_ids(T);
  for (int i = 0; i < T; ++i) {
    const auto& e = network.edge(path[i]);
    rt_ids[i] = static_cast<int>(e.road_type);
    lane_ids[i] = e.num_lanes - 1;
    ow_ids[i] = e.one_way ? 1 : 0;
    ts_ids[i] = e.has_signal ? 1 : 0;
  }

  // s_type = [M_RT s_RT, M_NoL s_NoL, M_OW s_OW, M_TS s_TS]      (Eq. 3-4)
  // s_all  = [s_rn, s_type], x = [t_all, s_all]                  (Eq. 5-6)
  nn::Var x = nn::ConcatCols({road_type_emb_->Forward(rt_ids),
                              lanes_emb_->Forward(lane_ids),
                              oneway_emb_->Forward(ow_ids),
                              signal_emb_->Forward(ts_ids),
                              BuildStaticFeatures(path, depart_time_s)});

  EncodedPath out;
  out.edge_reps = lstm_ != nullptr ? lstm_->Forward(x)
                                   : transformer_->Forward(x);  // Eq. 7
  switch (config_.aggregation) {            // Eq. 8 (mean by default)
    case Aggregation::kMean:
      out.tpr = nn::RowMean(out.edge_reps);
      break;
    case Aggregation::kMax:
      out.tpr = nn::RowMax(out.edge_reps);
      break;
    case Aggregation::kLast:
      out.tpr = nn::SliceRow(out.edge_reps, out.edge_reps.rows() - 1);
      break;
  }
  if (proj1_ != nullptr) {
    auto project = [this](const nn::Var& v) {
      return proj2_->Forward(nn::Relu(proj1_->Forward(v)));
    };
    out.tpr_proj = project(out.tpr);
    out.edge_reps_proj = project(out.edge_reps);
  } else {
    out.tpr_proj = out.tpr;
    out.edge_reps_proj = out.edge_reps;
  }
  return out;
}

std::vector<std::vector<float>> TemporalPathEncoder::EncodeValueBatch(
    const std::vector<PathTimeItem>& items) const {
  auto out = EncodeValueBatchCancellable(items, /*cancelled=*/{});
  TPR_CHECK(out.has_value());  // never cancelled without a callback
  return *std::move(out);
}

std::optional<std::vector<std::vector<float>>>
TemporalPathEncoder::EncodeValueBatchCancellable(
    const std::vector<PathTimeItem>& items,
    const std::function<bool()>& cancelled) const {
  if (lstm_ != nullptr) return Plan().Encode(items, cancelled);
  // Transformer encoders serve nothing; they encode item by item.
  nn::NoGradGuard no_grad;
  std::vector<std::vector<float>> out;
  out.reserve(items.size());
  for (const PathTimeItem& item : items) {
    if (cancelled && cancelled()) return std::nullopt;
    TPR_CHECK(item.path != nullptr);
    const EncodedPath encoded = Encode(*item.path, item.depart_time_s);
    const nn::Tensor& v = encoded.tpr.value();
    out.emplace_back(v.data(), v.data() + v.size());
  }
  return out;
}

InferencePlan TemporalPathEncoder::Plan() const {
  TPR_CHECK(lstm_ != nullptr) << "inference plans serve LSTM encoders only";
  InferencePlan plan;
  plan.features = features_.get();
  plan.aggregation = config_.aggregation;
  plan.use_temporal = config_.use_temporal;
  plan.d_hidden = config_.d_hidden;
  const auto table = [](const nn::Embedding& emb) {
    const nn::Tensor& t = emb.table().value();
    return PlanTable{t.data(), t.rows(), t.cols()};
  };
  plan.road_type = table(*road_type_emb_);
  plan.lanes = table(*lanes_emb_);
  plan.oneway = table(*oneway_emb_);
  plan.signal = table(*signal_emb_);
  // Lstm::Parameters() is {w_ih, w_hh, bias} per layer.
  const std::vector<nn::Var> params = lstm_->Parameters();
  for (size_t i = 0; i < params.size(); i += 3) {
    PlanLayer layer;
    layer.w_ih = params[i].value().data();
    layer.w_hh = params[i + 1].value().data();
    layer.bias = params[i + 2].value().data();
    plan.layers.push_back(layer);
  }
  return plan;
}

std::vector<float> TemporalPathEncoder::EncodeValue(
    const graph::Path& path, int64_t depart_time_s) const {
  return std::move(EncodeValueBatch({{&path, depart_time_s}}).front());
}

std::vector<nn::Var> TemporalPathEncoder::Parameters() const {
  std::vector<nn::Var> params;
  for (const auto* m : std::initializer_list<const nn::Module*>{
           road_type_emb_.get(), lanes_emb_.get(), oneway_emb_.get(),
           signal_emb_.get(), lstm_.get(), transformer_.get()}) {
    if (m == nullptr) continue;
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const nn::Linear* proj : {proj1_.get(), proj2_.get()}) {
    if (proj != nullptr) {
      auto p = proj->Parameters();
      params.insert(params.end(), p.begin(), p.end());
    }
  }
  return params;
}

}  // namespace tpr::core
