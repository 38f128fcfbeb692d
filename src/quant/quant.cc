#include "quant/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "graph/road_network.h"
#include "kern/kern.h"
#include "par/thread_pool.h"
#include "util/logging.h"

namespace tpr::quant {
namespace {

constexpr char kModelTag[] = "tpr-quant-model";
constexpr uint32_t kModelVersion = 1;

// Sanity ceiling for decoded dimensions: far above any real encoder
// config, low enough that a corrupt length can never drive a huge
// allocation.
constexpr int kMaxDim = 1 << 20;

const float* TableRow(const FloatTable& table, int id) {
  TPR_CHECK(id >= 0 && id < table.rows)
      << "quant table lookup out of range: " << id << " vs " << table.rows;
  return table.data.data() + static_cast<size_t>(id) * table.cols;
}

FloatTable CopyTable(const nn::Tensor& t) {
  FloatTable out;
  out.rows = t.rows();
  out.cols = t.cols();
  out.data.assign(t.data(), t.data() + t.size());
  return out;
}

/// Writes the T x input_dim fp32 feature rows for one path into `x` —
/// the exact assembly of TemporalPathEncoder::Encode: [rt | lanes |
/// oneway | signal | from | to | t_vec], with the same temporal vector
/// on every row. `x` must hold path.size() * model.input_dim floats;
/// the raw-pointer form lets the batched forward interleave many items
/// into one time-major buffer.
void FillFeatureRows(const core::FeatureSpace& features,
                     const QuantizedModel& model, const graph::Path& path,
                     int64_t depart_time_s, float* x) {
  TPR_CHECK(!path.empty());
  const auto& network = *features.data->network;
  const int d_road = features.config.road_embedding_dim;
  const int T = static_cast<int>(path.size());
  const int dim = model.input_dim;

  const int t_node = features.TemporalNodeFor(depart_time_s);
  const auto& t_vec = features.temporal_embeddings[t_node];
  for (int i = 0; i < T; ++i) {
    const auto& e = network.edge(path[i]);
    float* row = x + static_cast<size_t>(i) * dim;
    const float* rt = TableRow(model.road_type_table,
                               static_cast<int>(e.road_type));
    const float* lanes = TableRow(model.lanes_table, e.num_lanes - 1);
    const float* ow = TableRow(model.oneway_table, e.one_way ? 1 : 0);
    const float* ts = TableRow(model.signal_table, e.has_signal ? 1 : 0);
    float* p = row;
    p = std::copy(rt, rt + model.road_type_table.cols, p);
    p = std::copy(lanes, lanes + model.lanes_table.cols, p);
    p = std::copy(ow, ow + model.oneway_table.cols, p);
    p = std::copy(ts, ts + model.signal_table.cols, p);
    const auto& from_vec = features.road_embeddings[e.from];
    const auto& to_vec = features.road_embeddings[e.to];
    p = std::copy(from_vec.begin(), from_vec.begin() + d_road, p);
    p = std::copy(to_vec.begin(), to_vec.begin() + d_road, p);
    if (model.use_temporal) p = std::copy(t_vec.begin(), t_vec.end(), p);
    TPR_CHECK(p == row + dim);
  }
}

/// Vector-filling wrapper over FillFeatureRows; reuses `out`'s capacity.
void BuildFeatureMatrix(const core::FeatureSpace& features,
                        const QuantizedModel& model, const graph::Path& path,
                        int64_t depart_time_s, std::vector<float>* out) {
  out->resize(path.size() * static_cast<size_t>(model.input_dim));
  FillFeatureRows(features, model, path, depart_time_s, out->data());
}

/// The fp32 weight views of one LSTM layer, in Parameters() order.
struct FpLayer {
  const nn::Tensor* w_ih;  // input x 4h
  const nn::Tensor* w_hh;  // h x 4h
  const nn::Tensor* bias;  // 1 x 4h
};

/// Scalar fp32 reference forward of one layer (fixed loop order,
/// std::exp-based cell) feeding the min/max observers. This is the
/// calibration anchor: it never touches the dispatched kernels, so the
/// observed ranges — and therefore the artifact bytes — are identical
/// under any TPR_KERNEL / TPR_THREADS setting.
void ReferenceLayerForward(const FpLayer& layer, const std::vector<float>& x,
                           int T, int in_dim, int h, std::vector<float>* out,
                           MinMaxObserver* in_obs, MinMaxObserver* hid_obs) {
  in_obs->Observe(x.data(), x.size());
  const float* w_ih = layer.w_ih->data();
  const float* w_hh = layer.w_hh->data();
  const float* bias = layer.bias->data();
  const int n4 = 4 * h;
  out->assign(static_cast<size_t>(T) * h, 0.0f);
  std::vector<float> h_prev(h, 0.0f), c_prev(h, 0.0f), gates(n4, 0.0f);
  for (int t = 0; t < T; ++t) {
    const float* xr = x.data() + static_cast<size_t>(t) * in_dim;
    for (int j = 0; j < n4; ++j) gates[j] = bias[j];
    for (int kk = 0; kk < in_dim; ++kk) {
      const float xv = xr[kk];
      if (xv == 0.0f) continue;
      const float* wr = w_ih + static_cast<size_t>(kk) * n4;
      for (int j = 0; j < n4; ++j) gates[j] += xv * wr[j];
    }
    for (int kk = 0; kk < h; ++kk) {
      const float hv = h_prev[kk];
      if (hv == 0.0f) continue;
      const float* wr = w_hh + static_cast<size_t>(kk) * n4;
      for (int j = 0; j < n4; ++j) gates[j] += hv * wr[j];
    }
    float* hr = out->data() + static_cast<size_t>(t) * h;
    for (int j = 0; j < h; ++j) {
      const float ig = kern::SigmoidScalar(gates[j]);
      const float fg = kern::SigmoidScalar(gates[h + j]);
      const float gg = std::tanh(gates[2 * h + j]);
      const float og = kern::SigmoidScalar(gates[3 * h + j]);
      const float c = fg * c_prev[j] + ig * gg;
      c_prev[j] = c;
      hr[j] = og * std::tanh(c);
    }
    std::copy(hr, hr + h, h_prev.begin());
    hid_obs->Observe(hr, static_cast<size_t>(h));
  }
}

void WriteFloatTable(ckpt::Writer& w, const FloatTable& t) {
  w.I32(t.rows);
  w.I32(t.cols);
  w.Bytes(t.data.data(), t.data.size() * sizeof(float));
}

Status ReadFloatTable(ckpt::Reader& r, FloatTable* t) {
  if (auto s = r.I32(&t->rows); !s.ok()) return s;
  if (auto s = r.I32(&t->cols); !s.ok()) return s;
  if (t->rows < 0 || t->cols < 0 || t->rows > kMaxDim || t->cols > kMaxDim) {
    return Status::DataLoss("quant table shape out of range");
  }
  t->data.resize(static_cast<size_t>(t->rows) * t->cols);
  return r.Bytes(t->data.data(), t->data.size() * sizeof(float));
}

void WriteQuantTensor(ckpt::Writer& w, const QuantizedTensor& t) {
  w.I32(t.rows);
  w.I32(t.cols);
  w.Bytes(t.data.data(), t.data.size());
  w.Bytes(t.scales.data(), t.scales.size() * sizeof(float));
}

Status ReadQuantTensor(ckpt::Reader& r, QuantizedTensor* t) {
  if (auto s = r.I32(&t->rows); !s.ok()) return s;
  if (auto s = r.I32(&t->cols); !s.ok()) return s;
  if (t->rows < 0 || t->cols < 0 || t->rows > kMaxDim || t->cols > kMaxDim) {
    return Status::DataLoss("quant tensor shape out of range");
  }
  t->data.resize(static_cast<size_t>(t->rows) * t->cols);
  if (auto s = r.Bytes(t->data.data(), t->data.size()); !s.ok()) return s;
  t->scales.resize(static_cast<size_t>(t->rows));
  return r.Bytes(t->scales.data(), t->scales.size() * sizeof(float));
}

}  // namespace

size_t QuantizedModel::WeightBytes() const {
  size_t n = 0;
  for (const auto& layer : layers) {
    n += layer.w_ih.data.size() + layer.w_hh.data.size();
  }
  return n;
}

QuantizedTensor QuantizePerChannel(const nn::Tensor& w) {
  const int k = w.rows();
  const int n = w.cols();
  QuantizedTensor out;
  out.rows = n;
  out.cols = k;
  out.data.resize(static_cast<size_t>(n) * k);
  out.scales.resize(n);
  for (int j = 0; j < n; ++j) {
    float max_abs = 0.0f;
    for (int kk = 0; kk < k; ++kk) {
      const float v = w.data()[static_cast<size_t>(kk) * n + j];
      const float a = v < 0.0f ? -v : v;
      if (a > max_abs) max_abs = a;
    }
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    out.scales[j] = scale;
    int8_t* row = out.data.data() + static_cast<size_t>(j) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float v = w.data()[static_cast<size_t>(kk) * n + j];
      // Division (not multiply-by-reciprocal): |v / scale| <= 127 by
      // construction of scale, so dequantization error is a true
      // half-step bound.
      float r = std::nearbyintf(v / scale);
      if (r > 127.0f) r = 127.0f;
      if (r < -127.0f) r = -127.0f;
      row[kk] = static_cast<int8_t>(r);
    }
  }
  return out;
}

StatusOr<QuantizedModel> QuantizeEncoder(
    const core::TemporalPathEncoder& encoder,
    const std::vector<core::PathTimeItem>& calibration) {
  const core::EncoderConfig& config = encoder.config();
  if (config.sequence_model != core::SequenceModel::kLstm) {
    return Status::FailedPrecondition(
        "int8 quantization supports LSTM encoders only");
  }
  if (calibration.empty()) {
    return Status::InvalidArgument("empty quantization calibration set");
  }

  // Parameters() order: 4 categorical tables, then per LSTM layer
  // {w_ih, w_hh, bias}, then the projection head (dropped — serving
  // consumes the pre-projection TPR).
  const std::vector<nn::Var> params = encoder.Parameters();
  const int num_layers = config.lstm_layers;
  TPR_CHECK(static_cast<int>(params.size()) >= 4 + 3 * num_layers)
      << "unexpected encoder parameter count " << params.size();

  QuantizedModel model;
  model.input_dim = encoder.input_dim();
  model.d_hidden = config.d_hidden;
  model.aggregation = static_cast<uint8_t>(config.aggregation);
  model.use_temporal = config.use_temporal;
  model.road_type_table = CopyTable(params[0].value());
  model.lanes_table = CopyTable(params[1].value());
  model.oneway_table = CopyTable(params[2].value());
  model.signal_table = CopyTable(params[3].value());

  std::vector<FpLayer> fp_layers(num_layers);
  model.layers.resize(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    const nn::Tensor& w_ih = params[4 + 3 * l].value();
    const nn::Tensor& w_hh = params[4 + 3 * l + 1].value();
    const nn::Tensor& bias = params[4 + 3 * l + 2].value();
    fp_layers[l] = {&w_ih, &w_hh, &bias};
    QuantizedLstmLayer& q = model.layers[l];
    q.w_ih = QuantizePerChannel(w_ih);
    q.w_hh = QuantizePerChannel(w_hh);
    q.bias.assign(bias.data(), bias.data() + bias.size());
  }

  // Activation observers over the calibration set, parallel over items.
  // Each item reduces into its own observer slot; the final sequential
  // merge is a max-reduction, so the result is bitwise identical at any
  // thread count.
  const int n_items = static_cast<int>(calibration.size());
  std::vector<std::vector<MinMaxObserver>> item_in(n_items),
      item_hid(n_items);
  const core::FeatureSpace& features = *encoder.features();
  par::DefaultPool().ParallelFor(n_items, [&](int i) {
    item_in[i].resize(num_layers);
    item_hid[i].resize(num_layers);
    const core::PathTimeItem& item = calibration[i];
    TPR_CHECK(item.path != nullptr && !item.path->empty());
    const int T = static_cast<int>(item.path->size());
    std::vector<float> x;
    BuildFeatureMatrix(features, model, *item.path, item.depart_time_s, &x);
    int in_dim = model.input_dim;
    std::vector<float> next;
    for (int l = 0; l < num_layers; ++l) {
      ReferenceLayerForward(fp_layers[l], x, T, in_dim, model.d_hidden,
                            &next, &item_in[i][l], &item_hid[i][l]);
      x = std::move(next);
      in_dim = model.d_hidden;
    }
  });
  for (int l = 0; l < num_layers; ++l) {
    MinMaxObserver in_obs, hid_obs;
    for (int i = 0; i < n_items; ++i) {
      in_obs.Merge(item_in[i][l]);
      hid_obs.Merge(item_hid[i][l]);
    }
    model.layers[l].in_scale = in_obs.Scale();
    model.layers[l].hidden_scale = hid_obs.Scale();
  }
  return model;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string EncodeQuantizedModel(const QuantizedModel& model) {
  ckpt::Writer w;
  w.Str(kModelTag);
  w.U32(kModelVersion);
  w.U64(model.generation);
  w.I32(model.input_dim);
  w.I32(model.d_hidden);
  w.U8(model.aggregation);
  w.U8(model.use_temporal ? 1 : 0);
  WriteFloatTable(w, model.road_type_table);
  WriteFloatTable(w, model.lanes_table);
  WriteFloatTable(w, model.oneway_table);
  WriteFloatTable(w, model.signal_table);
  w.U32(static_cast<uint32_t>(model.layers.size()));
  for (const auto& layer : model.layers) {
    WriteQuantTensor(w, layer.w_ih);
    WriteQuantTensor(w, layer.w_hh);
    w.U64(layer.bias.size());
    w.Bytes(layer.bias.data(), layer.bias.size() * sizeof(float));
    w.F32(layer.in_scale);
    w.F32(layer.hidden_scale);
  }
  return w.TakeBytes();
}

StatusOr<QuantizedModel> DecodeQuantizedModel(std::string_view payload) {
  ckpt::Reader r(payload);
  std::string tag;
  if (auto s = r.Str(&tag); !s.ok()) return s;
  if (tag != kModelTag) {
    return Status::DataLoss("not a quantized-model payload: tag '" + tag +
                            "'");
  }
  uint32_t version = 0;
  if (auto s = r.U32(&version); !s.ok()) return s;
  if (version != kModelVersion) {
    return Status::DataLoss("unsupported quantized-model version " +
                            std::to_string(version));
  }
  QuantizedModel model;
  if (auto s = r.U64(&model.generation); !s.ok()) return s;
  if (auto s = r.I32(&model.input_dim); !s.ok()) return s;
  if (auto s = r.I32(&model.d_hidden); !s.ok()) return s;
  uint8_t aggregation = 0, use_temporal = 0;
  if (auto s = r.U8(&aggregation); !s.ok()) return s;
  if (auto s = r.U8(&use_temporal); !s.ok()) return s;
  model.aggregation = aggregation;
  model.use_temporal = use_temporal != 0;
  if (model.input_dim <= 0 || model.input_dim > kMaxDim ||
      model.d_hidden <= 0 || model.d_hidden > kMaxDim) {
    return Status::DataLoss("quantized-model dims out of range");
  }
  if (auto s = ReadFloatTable(r, &model.road_type_table); !s.ok()) return s;
  if (auto s = ReadFloatTable(r, &model.lanes_table); !s.ok()) return s;
  if (auto s = ReadFloatTable(r, &model.oneway_table); !s.ok()) return s;
  if (auto s = ReadFloatTable(r, &model.signal_table); !s.ok()) return s;
  uint32_t num_layers = 0;
  if (auto s = r.U32(&num_layers); !s.ok()) return s;
  if (num_layers == 0 || num_layers > 64) {
    return Status::DataLoss("quantized-model layer count out of range");
  }
  model.layers.resize(num_layers);
  for (auto& layer : model.layers) {
    if (auto s = ReadQuantTensor(r, &layer.w_ih); !s.ok()) return s;
    if (auto s = ReadQuantTensor(r, &layer.w_hh); !s.ok()) return s;
    uint64_t bias_n = 0;
    if (auto s = r.U64(&bias_n); !s.ok()) return s;
    if (bias_n > static_cast<uint64_t>(kMaxDim)) {
      return Status::DataLoss("quantized-model bias size out of range");
    }
    layer.bias.resize(bias_n);
    if (auto s = r.Bytes(layer.bias.data(), bias_n * sizeof(float)); !s.ok())
      return s;
    if (auto s = r.F32(&layer.in_scale); !s.ok()) return s;
    if (auto s = r.F32(&layer.hidden_scale); !s.ok()) return s;
    const int h4 = 4 * model.d_hidden;
    if (layer.w_ih.rows != h4 || layer.w_hh.rows != h4 ||
        layer.w_hh.cols != model.d_hidden ||
        static_cast<int>(layer.bias.size()) != h4) {
      return Status::DataLoss("quantized-model layer shape mismatch");
    }
  }
  if (model.layers[0].w_ih.cols != model.input_dim) {
    return Status::DataLoss("quantized-model input_dim mismatch");
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("quantized-model payload has trailing bytes");
  }
  return model;
}

std::string QuantArtifactPath(const std::string& dir, uint64_t seq) {
  return dir + "/quant-" + std::to_string(seq) + ".q8";
}

Status SaveQuantizedModel(const std::string& dir, const QuantizedModel& model,
                          uint64_t seq) {
  return ckpt::AtomicWriteFile(QuantArtifactPath(dir, seq),
                               ckpt::WrapPayload(EncodeQuantizedModel(model)));
}

StatusOr<QuantizedModel> LoadQuantizedModel(const std::string& dir,
                                            uint64_t seq) {
  auto bytes = ckpt::ReadFileBytes(QuantArtifactPath(dir, seq));
  if (!bytes.ok()) return bytes.status();
  auto payload = ckpt::UnwrapPayload(*bytes);
  if (!payload.ok()) return payload.status();
  return DecodeQuantizedModel(*payload);
}

void RemoveQuantArtifact(const std::string& dir, uint64_t seq) {
  std::remove(QuantArtifactPath(dir, seq).c_str());
}

// ---------------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------------

QuantizedEncoder::QuantizedEncoder(
    std::shared_ptr<const core::FeatureSpace> features, QuantizedModel model)
    : features_(std::move(features)), model_(std::move(model)) {
  TPR_CHECK(features_ != nullptr);
  TPR_CHECK(!model_.layers.empty());
  w_ih_wide_.reserve(model_.layers.size());
  w_hh_wide_.reserve(model_.layers.size());
  auto widen = [](const QuantizedTensor& t) {
    return std::vector<int16_t>(t.data.begin(), t.data.end());
  };
  for (const QuantizedLstmLayer& layer : model_.layers) {
    w_ih_wide_.push_back(widen(layer.w_ih));
    w_hh_wide_.push_back(widen(layer.w_hh));
  }
}

std::vector<float> QuantizedEncoder::BuildFeatures(
    const graph::Path& path, int64_t depart_time_s) const {
  std::vector<float> x;
  BuildFeatureMatrix(*features_, model_, path, depart_time_s, &x);
  return x;
}

namespace {

/// Per-thread scratch for the quantized forward. EncodeValue sits on the
/// serving hot path where the recurrent steps are tiny (m=1 GEMMs), so a
/// dozen per-call heap allocations — several tens of KB each for the
/// time-batched buffers — are a measurable slice of the latency budget.
/// Reusing capacity across calls keeps the rung's speedup intact without
/// touching the math.
struct EncodeScratch {
  std::vector<float> x, next, gates, h_prev, c_prev, act, hc;
  std::vector<int8_t> qx, qh;
  std::vector<int32_t> acc, acc_h;
  std::vector<int> active;
};

EncodeScratch& Scratch() {
  static thread_local EncodeScratch s;
  return s;
}

/// Pools T hidden-state rows into one representation — the tail of both
/// the single and the batched forward, so their outputs agree bitwise.
std::vector<float> AggregateRows(core::Aggregation agg, const float* x, int T,
                                 int h) {
  std::vector<float> out(h, 0.0f);
  switch (agg) {
    case core::Aggregation::kMean:
      for (int t = 0; t < T; ++t) {
        const float* row = x + static_cast<size_t>(t) * h;
        for (int j = 0; j < h; ++j) out[j] += row[j];
      }
      for (int j = 0; j < h; ++j) out[j] /= static_cast<float>(T);
      break;
    case core::Aggregation::kMax:
      std::copy(x, x + h, out.begin());
      for (int t = 1; t < T; ++t) {
        const float* row = x + static_cast<size_t>(t) * h;
        for (int j = 0; j < h; ++j) out[j] = std::max(out[j], row[j]);
      }
      break;
    case core::Aggregation::kLast:
      std::copy(x + static_cast<size_t>(T - 1) * h,
                x + static_cast<size_t>(T) * h, out.begin());
      break;
  }
  return out;
}

}  // namespace

std::vector<float> QuantizedEncoder::EncodeValue(const graph::Path& path,
                                                 int64_t depart_time_s) const {
  const int T = static_cast<int>(path.size());
  const int h = model_.d_hidden;
  const int n4 = 4 * h;
  EncodeScratch& s = Scratch();
  std::vector<float>& x = s.x;
  BuildFeatureMatrix(*features_, model_, path, depart_time_s, &x);
  int in_dim = model_.input_dim;

  std::vector<int8_t>& qx = s.qx;
  std::vector<int8_t>& qh = s.qh;
  qh.resize(h);
  std::vector<int32_t>& acc = s.acc;
  std::vector<int32_t>& acc_h = s.acc_h;
  acc.resize(static_cast<size_t>(T) * n4);
  acc_h.resize(n4);
  std::vector<float>& gates = s.gates;
  gates.resize(static_cast<size_t>(T) * n4);
  std::vector<float>& h_prev = s.h_prev;
  std::vector<float>& c_prev = s.c_prev;
  std::vector<float>& act = s.act;
  std::vector<float>& hc = s.hc;
  h_prev.resize(h);
  c_prev.resize(h);
  act.resize(5 * h);
  hc.resize(2 * h);
  std::vector<float>& next = s.next;
  next.resize(static_cast<size_t>(T) * h);

  for (size_t li = 0; li < model_.layers.size(); ++li) {
    const QuantizedLstmLayer& layer = model_.layers[li];
    // All T input-side gate GEMMs in one int8 call — the batched-over-
    // time shape is what buys the >=2x speedup over the stepwise fp32
    // path. Both GEMMs run against the pre-widened weight panels;
    // GemmInt8Wide is bit-identical to GemmInt8.
    qx.resize(x.size());
    kern::QuantizeRow(x.data(), 1.0f / layer.in_scale, qx.data(),
                      static_cast<int>(x.size()));
    kern::GemmInt8Wide(qx.data(), w_ih_wide_[li].data(), acc.data(), T,
                       in_dim, n4);
    kern::DequantBias(acc.data(), layer.in_scale, layer.w_ih.scales.data(),
                      layer.bias.data(), gates.data(), T, n4);

    std::fill(h_prev.begin(), h_prev.end(), 0.0f);
    std::fill(c_prev.begin(), c_prev.end(), 0.0f);
    for (int t = 0; t < T; ++t) {
      float* g = gates.data() + static_cast<size_t>(t) * n4;
      kern::QuantizeRow(h_prev.data(), 1.0f / layer.hidden_scale, qh.data(),
                        h);
      kern::GemmInt8Wide(qh.data(), w_hh_wide_[li].data(), acc_h.data(), 1, h,
                         n4);
      kern::DequantAcc(acc_h.data(), layer.hidden_scale,
                       layer.w_hh.scales.data(), g, 1, n4);
      kern::LstmCellRow(g, c_prev.data(), act.data(), hc.data(), h);
      std::copy(hc.begin(), hc.begin() + h, h_prev.begin());
      std::copy(hc.begin() + h, hc.end(), c_prev.begin());
      std::copy(h_prev.begin(), h_prev.end(),
                next.begin() + static_cast<size_t>(t) * h);
    }
    x.assign(next.begin(), next.begin() + static_cast<size_t>(T) * h);
    in_dim = h;
  }

  return AggregateRows(static_cast<core::Aggregation>(model_.aggregation),
                       x.data(), T, h);
}

std::vector<std::vector<float>> QuantizedEncoder::EncodeValueBatch(
    const std::vector<core::PathTimeItem>& items) const {
  // Truly batched forward: all items' timesteps share one input-side
  // GEMM, and the recurrent steps run in lockstep across items so every
  // per-step GEMM is m = (items still active) instead of m = 1 — the
  // shape that keeps the int8 kernels compute-bound under serving
  // traffic. Every per-row operation (quantize, exact GEMM row, dequant,
  // cell) is identical to the single-item path, so a batch row is
  // bitwise the single EncodeValue of that item and group-level serving
  // decisions never change an embedding.
  const int n_items = static_cast<int>(items.size());
  std::vector<std::vector<float>> out(n_items);
  if (n_items == 0) return out;
  if (n_items == 1) {
    TPR_CHECK(items[0].path != nullptr);
    out[0] = EncodeValue(*items[0].path, items[0].depart_time_s);
    return out;
  }
  const int h = model_.d_hidden;
  const int n4 = 4 * h;

  // Item i owns rows [off[i], off[i] + T[i]) of every time-major buffer.
  std::vector<int> T(n_items), off(n_items);
  int total = 0, t_max = 0;
  for (int i = 0; i < n_items; ++i) {
    TPR_CHECK(items[i].path != nullptr && !items[i].path->empty());
    T[i] = static_cast<int>(items[i].path->size());
    off[i] = total;
    total += T[i];
    if (T[i] > t_max) t_max = T[i];
  }

  EncodeScratch& s = Scratch();
  int in_dim = model_.input_dim;
  std::vector<float>& x = s.x;
  x.resize(static_cast<size_t>(total) * in_dim);
  for (int i = 0; i < n_items; ++i) {
    FillFeatureRows(*features_, model_, *items[i].path, items[i].depart_time_s,
                    x.data() + static_cast<size_t>(off[i]) * in_dim);
  }

  std::vector<int8_t>& qx = s.qx;
  std::vector<int32_t>& acc = s.acc;
  std::vector<float>& gates = s.gates;
  std::vector<float>& next = s.next;
  std::vector<float>& h_prev = s.h_prev;
  std::vector<float>& c_prev = s.c_prev;
  std::vector<float>& act = s.act;
  std::vector<float>& hc = s.hc;
  std::vector<int8_t>& qh = s.qh;
  std::vector<int32_t>& acc_h = s.acc_h;
  // active[r] maps row r of a step GEMM back to its item slot; items
  // whose paths have ended simply drop out of the packed activation.
  std::vector<int>& active = s.active;
  h_prev.resize(static_cast<size_t>(n_items) * h);
  c_prev.resize(static_cast<size_t>(n_items) * h);
  qh.resize(static_cast<size_t>(n_items) * h);
  acc_h.resize(static_cast<size_t>(n_items) * n4);
  act.resize(5 * h);
  hc.resize(2 * h);
  active.resize(n_items);

  for (size_t li = 0; li < model_.layers.size(); ++li) {
    const QuantizedLstmLayer& layer = model_.layers[li];
    qx.resize(x.size());
    kern::QuantizeRow(x.data(), 1.0f / layer.in_scale, qx.data(),
                      static_cast<int>(x.size()));
    acc.resize(static_cast<size_t>(total) * n4);
    kern::GemmInt8Wide(qx.data(), w_ih_wide_[li].data(), acc.data(), total,
                       in_dim, n4);
    gates.resize(static_cast<size_t>(total) * n4);
    kern::DequantBias(acc.data(), layer.in_scale, layer.w_ih.scales.data(),
                      layer.bias.data(), gates.data(), total, n4);

    std::fill(h_prev.begin(), h_prev.end(), 0.0f);
    std::fill(c_prev.begin(), c_prev.end(), 0.0f);
    next.resize(static_cast<size_t>(total) * h);
    for (int t = 0; t < t_max; ++t) {
      int m = 0;
      for (int i = 0; i < n_items; ++i) {
        if (T[i] <= t) continue;
        kern::QuantizeRow(h_prev.data() + static_cast<size_t>(i) * h,
                          1.0f / layer.hidden_scale,
                          qh.data() + static_cast<size_t>(m) * h, h);
        active[m++] = i;
      }
      kern::GemmInt8Wide(qh.data(), w_hh_wide_[li].data(), acc_h.data(), m, h,
                         n4);
      for (int r = 0; r < m; ++r) {
        const int i = active[r];
        float* g = gates.data() + (static_cast<size_t>(off[i]) + t) * n4;
        kern::DequantAcc(acc_h.data() + static_cast<size_t>(r) * n4,
                         layer.hidden_scale, layer.w_hh.scales.data(), g, 1,
                         n4);
        float* hp = h_prev.data() + static_cast<size_t>(i) * h;
        float* cp = c_prev.data() + static_cast<size_t>(i) * h;
        kern::LstmCellRow(g, cp, act.data(), hc.data(), h);
        std::copy(hc.begin(), hc.begin() + h, hp);
        std::copy(hc.begin() + h, hc.end(), cp);
        std::copy(hp, hp + h,
                  next.begin() + (static_cast<size_t>(off[i]) + t) * h);
      }
    }
    x.assign(next.begin(), next.begin() + static_cast<size_t>(total) * h);
    in_dim = h;
  }

  for (int i = 0; i < n_items; ++i) {
    out[i] = AggregateRows(static_cast<core::Aggregation>(model_.aggregation),
                           x.data() + static_cast<size_t>(off[i]) * h, T[i], h);
  }
  return out;
}

bool QuantEnabledFromEnv() {
  const char* v = std::getenv("TPR_QUANT");
  if (v == nullptr) return true;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0;
}

}  // namespace tpr::quant
