#include "quant/quant.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
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

FloatTable CopyTable(const nn::Tensor& t) {
  FloatTable out;
  out.rows = t.rows();
  out.cols = t.cols();
  out.data.assign(t.data(), t.data() + t.size());
  return out;
}

core::PlanTable View(const FloatTable& t) {
  return core::PlanTable{t.data.data(), t.rows, t.cols};
}

/// An int8 plan over the model's tables, without layers: the base the
/// twin adds its layers to.
core::InferencePlan TablesPlan(const core::FeatureSpace* features,
                               const QuantizedModel& model) {
  TPR_CHECK(features != nullptr);
  core::InferencePlan plan;
  plan.features = features;
  plan.precision = core::InferencePlan::Precision::kInt8;
  plan.aggregation = static_cast<core::Aggregation>(model.aggregation);
  plan.use_temporal = model.use_temporal;
  plan.d_hidden = model.d_hidden;
  plan.road_type = View(model.road_type_table);
  plan.lanes = View(model.lanes_table);
  plan.oneway = View(model.oneway_table);
  plan.signal = View(model.signal_table);
  return plan;
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

  model.layers.resize(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    const nn::Tensor& w_ih = params[4 + 3 * l].value();
    const nn::Tensor& w_hh = params[4 + 3 * l + 1].value();
    const nn::Tensor& bias = params[4 + 3 * l + 2].value();
    QuantizedLstmLayer& q = model.layers[l];
    q.w_ih = QuantizePerChannel(w_ih);
    q.w_hh = QuantizePerChannel(w_hh);
    q.bias.assign(bias.data(), bias.data() + bias.size());
  }

  // Activation observers over the calibration set, parallel over items.
  // Each task runs the encoder's own fp32 plan on one item with the
  // scalar kernel pinned to its thread, so the observed ranges — and
  // the artifact bytes — do not depend on TPR_KERNEL, even while other
  // threads encode under avx2. Each item reduces into its own observer
  // slot; the final sequential merge is a max-reduction, so the result
  // is bitwise identical at any thread count.
  const int n_items = static_cast<int>(calibration.size());
  std::vector<std::vector<MinMaxObserver>> item_in(n_items),
      item_hid(n_items);
  const core::InferencePlan plan = encoder.Plan();
  par::DefaultPool().ParallelFor(n_items, [&](int i) {
    item_in[i].resize(num_layers);
    item_hid[i].resize(num_layers);
    kern::ThreadKernelPin scalar(kern::Kernel::kScalar);
    plan.Encode({calibration[i]}, /*cancelled=*/{},
                [&](int l, std::span<const float> input,
                    std::span<const float> hidden) {
                  item_in[i][l].Observe(input.data(), input.size());
                  item_hid[i][l].Observe(hidden.data(), hidden.size());
                });
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
  if (aggregation > static_cast<uint8_t>(core::Aggregation::kLast)) {
    return Status::DataLoss("quantized-model aggregation " +
                            std::to_string(aggregation) + " is unknown");
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
  for (uint32_t l = 0; l < num_layers; ++l) {
    QuantizedLstmLayer& layer = model.layers[l];
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
    // Layer 0 reads the feature rows, every later layer the hidden
    // state below it: a narrower panel would be read out of bounds.
    const int h4 = 4 * model.d_hidden;
    const int in_dim = l == 0 ? model.input_dim : model.d_hidden;
    if (layer.w_ih.rows != h4 || layer.w_ih.cols != in_dim ||
        layer.w_hh.rows != h4 || layer.w_hh.cols != model.d_hidden ||
        static_cast<int>(layer.bias.size()) != h4) {
      return Status::DataLoss("quantized-model layer " + std::to_string(l) +
                              " shape mismatch");
    }
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("quantized-model payload has trailing bytes");
  }
  return model;
}

Status CheckTwinShape(const QuantizedModel& model,
                      const core::TemporalPathEncoder& encoder) {
  const core::EncoderConfig& config = encoder.config();
  if (config.sequence_model != core::SequenceModel::kLstm) {
    return Status::FailedPrecondition("int8 twins serve LSTM encoders only");
  }
  if (model.input_dim != encoder.input_dim() ||
      model.d_hidden != config.d_hidden ||
      static_cast<int>(model.layers.size()) != config.lstm_layers ||
      model.aggregation != static_cast<uint8_t>(config.aggregation) ||
      model.use_temporal != config.use_temporal) {
    return Status::FailedPrecondition(
        "int8 twin config does not match the encoder");
  }
  // Parameters() starts with the four categorical tables.
  const std::vector<nn::Var> params = encoder.Parameters();
  const FloatTable* tables[] = {&model.road_type_table, &model.lanes_table,
                                &model.oneway_table, &model.signal_table};
  for (int i = 0; i < 4; ++i) {
    if (tables[i]->rows != params[i].rows() ||
        tables[i]->cols != params[i].cols()) {
      return Status::FailedPrecondition(
          "int8 twin embedding table " + std::to_string(i) +
          " does not match the encoder");
    }
  }
  return Status::OK();
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
    : features_(std::move(features)),
      model_(std::move(model)),
      plan_(TablesPlan(features_.get(), model_)) {
  TPR_CHECK(!model_.layers.empty());
  TPR_CHECK(plan_.input_dim() == model_.input_dim)
      << "quantized model input_dim " << model_.input_dim
      << " does not match its tables and feature space (" << plan_.input_dim()
      << ")";
  // Widened and wired once: the model never changes after construction.
  // (Moving a vector keeps its buffer, so the plan's pointers stay valid
  // as the outer vectors grow.)
  for (const QuantizedLstmLayer& layer : model_.layers) {
    w_ih_wide_.emplace_back(layer.w_ih.data.begin(), layer.w_ih.data.end());
    w_hh_wide_.emplace_back(layer.w_hh.data.begin(), layer.w_hh.data.end());
    core::PlanLayer p;
    p.bias = layer.bias.data();
    p.w_ih_wide = w_ih_wide_.back().data();
    p.w_hh_wide = w_hh_wide_.back().data();
    p.w_ih_scales = layer.w_ih.scales.data();
    p.w_hh_scales = layer.w_hh.scales.data();
    p.in_scale = layer.in_scale;
    p.hidden_scale = layer.hidden_scale;
    plan_.layers.push_back(p);
  }
}

std::vector<float> QuantizedEncoder::EncodeValue(const graph::Path& path,
                                                 int64_t depart_time_s) const {
  return std::move(EncodeValueBatch({{&path, depart_time_s}}).front());
}

std::vector<std::vector<float>> QuantizedEncoder::EncodeValueBatch(
    const std::vector<core::PathTimeItem>& items) const {
  return *plan_.Encode(items, /*cancelled=*/{});
}

bool QuantEnabledFromEnv() {
  const char* v = std::getenv("TPR_QUANT");
  if (v == nullptr) return true;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0;
}

}  // namespace tpr::quant
