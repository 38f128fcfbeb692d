#ifndef TPR_QUANT_QUANT_H_
#define TPR_QUANT_QUANT_H_

// Post-training int8 quantization of the temporal path encoder
// (tpr::quant). The serving ladder's intermediate rung: ~4x smaller
// weights and int8 gate GEMMs inside fp32's own inference forward, at a
// probe MAE gated within a configurable delta of the fp32 candidate by
// tpr::rollout.
//
// Scheme: per-channel symmetric int8. Every output channel c of a
// weight matrix gets scale_c = max|w_c| / 127 and stores
// q = round_to_nearest_even(w / scale_c), so dequantized error is
// <= scale_c / 2 element-wise. Activations use static per-layer scales
// from min/max observers run over a calibration set (the golden probe
// queries): the observed range maps to [-127, 127]; runtime values
// beyond it saturate. The ranges come from the encoder's own fp32
// inference plan (core/inference_plan.h), run per calibration item with
// the scalar kernel pinned to the calibrating thread
// (kern::ThreadKernelPin). Observers reduce with max, which is
// order-independent, so calibration is bitwise identical run-to-run,
// across thread counts, and across TPR_KERNEL legs.
//
// The quantized forward is that same plan with int8 gate GEMMs: exact
// integer accumulation over construction-time int16-widened panels and
// kernel-independent dequant/quantize epilogues, then the dispatched
// fused LSTM cell. The projection head is dropped entirely: serving
// consumes the pre-projection TPR, so the artifact never carries it.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoder.h"
#include "core/features.h"
#include "core/inference_plan.h"
#include "util/status.h"

namespace tpr::quant {

/// Per-channel symmetric int8 matrix, stored pre-packed for
/// kern::GemmInt8Wide (which reads it widened to int16): row c holds
/// output channel c's `cols` weights contiguously (the transpose of the
/// fp32 (k x n) layout).
struct QuantizedTensor {
  int rows = 0;  // output channels (n of the fp32 matrix)
  int cols = 0;  // inputs per channel (k)
  std::vector<int8_t> data;   // rows * cols
  std::vector<float> scales;  // rows (per-channel dequant scales)
};

/// One quantized LSTM layer. Bias stays fp32 (it is added after
/// dequantization); in_scale / hidden_scale are the static activation
/// scales for the layer input rows and the recurrent hidden state.
struct QuantizedLstmLayer {
  QuantizedTensor w_ih;  // 4h x input
  QuantizedTensor w_hh;  // 4h x h
  std::vector<float> bias;  // 4h
  float in_scale = 1.0f;
  float hidden_scale = 1.0f;
};

/// A small fp32 lookup table (the categorical embeddings — a few
/// hundred floats, not worth quantizing).
struct FloatTable {
  int rows = 0;
  int cols = 0;
  std::vector<float> data;  // rows * cols
};

/// The complete int8 serving artifact for one encoder generation.
/// Everything EncodeValue needs except the frozen FeatureSpace, which
/// the quantized twin shares with its fp32 counterpart.
struct QuantizedModel {
  uint64_t generation = 0;
  int input_dim = 0;
  int d_hidden = 0;
  uint8_t aggregation = 0;  // core::Aggregation
  bool use_temporal = true;
  FloatTable road_type_table;
  FloatTable lanes_table;
  FloatTable oneway_table;
  FloatTable signal_table;
  std::vector<QuantizedLstmLayer> layers;

  /// Bytes of int8 weight payload (the ~4x-compressed part).
  size_t WeightBytes() const;
};

/// Running |max| observer. Max-reduction is order-independent, which is
/// what makes calibration deterministic across thread counts.
struct MinMaxObserver {
  float max_abs = 0.0f;
  void Observe(const float* x, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const float a = x[i] < 0.0f ? -x[i] : x[i];
      if (a > max_abs) max_abs = a;
    }
  }
  void Merge(const MinMaxObserver& other) {
    if (other.max_abs > max_abs) max_abs = other.max_abs;
  }
  /// Symmetric int8 scale; an all-zero range maps to 1.0f so
  /// quant/dequant stay well-defined.
  float Scale() const { return max_abs > 0.0f ? max_abs / 127.0f : 1.0f; }
};

/// Quantizes a (k x n) fp32 weight matrix per output channel (column)
/// into the packed-transposed int8 form. Round-to-nearest-even on
/// w / scale_c, so |dequant(quant(w)) - w| <= scale_c / 2 element-wise.
QuantizedTensor QuantizePerChannel(const nn::Tensor& w);

/// Quantizes an LSTM encoder's weights with activation scales calibrated
/// over `calibration` (typically the golden-probe queries). The
/// calibration forward is the encoder's fp32 plan under a per-thread
/// scalar pin — the result is bitwise independent of TPR_KERNEL and
/// TPR_THREADS.
/// FailedPrecondition for transformer encoders, InvalidArgument for an
/// empty calibration set.
StatusOr<QuantizedModel> QuantizeEncoder(
    const core::TemporalPathEncoder& encoder,
    const std::vector<core::PathTimeItem>& calibration);

// ---------------------------------------------------------------------------
// Artifact serialization. The payload goes inside the standard TPRC
// CRC envelope (ckpt::WrapPayload), written beside each checkpoint
// generation as quant-<seq>.q8.
// ---------------------------------------------------------------------------

std::string EncodeQuantizedModel(const QuantizedModel& model);

/// DataLoss for anything the forward could not run safely: a layer
/// whose panels do not match input_dim (layer 0) or d_hidden (later
/// layers), an unknown aggregation, or malformed lengths.
StatusOr<QuantizedModel> DecodeQuantizedModel(std::string_view payload);

/// OK when `model` has `encoder`'s shape — input_dim, d_hidden, layer
/// count, aggregation, use_temporal and embedding table shapes — so it
/// can stand in for that encoder as its int8 twin. FailedPrecondition
/// otherwise (including for transformer encoders).
Status CheckTwinShape(const QuantizedModel& model,
                      const core::TemporalPathEncoder& encoder);

/// `<dir>/quant-<seq>.q8`.
std::string QuantArtifactPath(const std::string& dir, uint64_t seq);

/// Envelope-wraps and atomically writes the artifact beside the
/// checkpoint generation.
Status SaveQuantizedModel(const std::string& dir, const QuantizedModel& model,
                          uint64_t seq);

/// Reads (through the ckpt-read fault site), validates the envelope,
/// and decodes. NotFound when no artifact exists for `seq`.
StatusOr<QuantizedModel> LoadQuantizedModel(const std::string& dir,
                                            uint64_t seq);

/// Best-effort removal (quarantine cleanup); missing file is fine.
void RemoveQuantArtifact(const std::string& dir, uint64_t seq);

// ---------------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------------

/// Int8 inference twin of core::TemporalPathEncoder. EncodeValue returns
/// the pre-projection TPR exactly like the fp32 EncodeValue does, from
/// the same FeatureSpace. Deterministic for a fixed TPR_KERNEL;
/// identical across kernels up to the fused LSTM cell (the GEMMs are
/// exact, and the epilogues' avx2 legs equal their scalar ones bit for
/// bit). Not copyable: the plan borrows the model's tables and the
/// widened panels.
class QuantizedEncoder {
 public:
  /// `model` must be internally consistent, as QuantizeEncoder output
  /// and decoded artifacts are (see DecodeQuantizedModel).
  QuantizedEncoder(std::shared_ptr<const core::FeatureSpace> features,
                   QuantizedModel model);
  QuantizedEncoder(const QuantizedEncoder&) = delete;
  QuantizedEncoder& operator=(const QuantizedEncoder&) = delete;

  /// A batch of one.
  std::vector<float> EncodeValue(const graph::Path& path,
                                 int64_t depart_time_s) const;

  /// Batched form: the packed lockstep forward of core/inference_plan.h.
  /// Every batch row is bitwise equal to the corresponding single
  /// EncodeValue, so a row never depends on the batch it rode in.
  std::vector<std::vector<float>> EncodeValueBatch(
      const std::vector<core::PathTimeItem>& items) const;

  int representation_dim() const { return model_.d_hidden; }
  uint64_t generation() const { return model_.generation; }
  const QuantizedModel& model() const { return model_; }

 private:
  std::shared_ptr<const core::FeatureSpace> features_;
  QuantizedModel model_;
  /// Runtime-only int16 copies of each layer's packed weight panels,
  /// widened once at construction. The artifact stays int8 (the ~4x
  /// size win); this trades 2x in-memory weight bytes for the avx2
  /// inner loop skipping per-iteration sign extension. Indexed [layer],
  /// w_ih then w_hh.
  std::vector<std::vector<int16_t>> w_ih_wide_;
  std::vector<std::vector<int16_t>> w_hh_wide_;
  /// Wired once at construction over model_ and the widened panels.
  core::InferencePlan plan_;
};

/// TPR_QUANT knob: "0" or "off" disables the quantized rung and twin
/// building; anything else (including unset) leaves them on.
bool QuantEnabledFromEnv();

}  // namespace tpr::quant

#endif  // TPR_QUANT_QUANT_H_
