#ifndef TPR_CORE_INFERENCE_PLAN_H_
#define TPR_CORE_INFERENCE_PLAN_H_

// The one inference forward of the LSTM temporal path encoder, for both
// precisions (DESIGN.md §13-14): TemporalPathEncoder::EncodeValue and
// EncodeValueBatch run it at fp32, quant::QuantizedEncoder at int8, and
// quant::QuantizeEncoder calibrates through the fp32 plan under a
// scalar kern::ThreadKernelPin. It builds no autograd tape; weights are
// borrowed and buffers are per-thread scratch.
//
// Items are stable-sorted longest first and packed time-major with no
// padding: the rows of step t are the items still active at t, so the
// recurrent GEMM of step t runs over a prefix of step t-1's output.
// Per layer: one input-side gate GEMM over every row, then per step one
// recurrent GEMM over the active prefix and kern::LstmCellRow per row.
// Only the two gate GEMMs differ by precision — fp32 keeps the op
// order of the tape's nn::LstmSequence (bias, += x W_ih, += h W_hh,
// including the step-0 GEMM on the zero state); int8 runs
// QuantizeRow -> GemmInt8Wide -> DequantBias / DequantAcc. Aggregation
// keeps the element order of nn::RowMean / RowMax / SliceRow.
//
// Bitwise contract: GEMM rows are independent of the other rows of a
// call and every other op is per row, so a row's bits never depend on
// its batch. An fp32 row equals the tape's
// TemporalPathEncoder::Encode(...).tpr under either kernel; an int8
// batch row equals the int8 single encode.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/encoder.h"

namespace tpr::core {

/// A borrowed row-major fp32 lookup table (a categorical embedding).
struct PlanTable {
  const float* data = nullptr;
  int rows = 0;
  int cols = 0;
};

/// Borrowed weights of one LSTM layer of hidden size h and input size
/// `in`. fp32 plans set w_ih (in x 4h) and w_hh (h x 4h), laid out as
/// nn::LstmLayer holds them. int8 plans set the per-channel packed
/// panels pre-widened to int16 (4h x in and 4h x h, see
/// kern::GemmInt8Wide), their per-channel scales, and the static
/// activation scales of the layer input and the hidden state.
struct PlanLayer {
  const float* bias = nullptr;  // 4h
  const float* w_ih = nullptr;
  const float* w_hh = nullptr;
  const int16_t* w_ih_wide = nullptr;
  const int16_t* w_hh_wide = nullptr;
  const float* w_ih_scales = nullptr;  // 4h
  const float* w_hh_scales = nullptr;  // 4h
  float in_scale = 1.0f;
  float hidden_scale = 1.0f;
};

/// Everything the forward reads, borrowed: the caller keeps the feature
/// space and every table and weight alive while the plan is in use.
struct InferencePlan {
  enum class Precision { kFp32, kInt8 };

  const FeatureSpace* features = nullptr;
  Precision precision = Precision::kFp32;
  Aggregation aggregation = Aggregation::kMean;
  bool use_temporal = true;
  int d_hidden = 0;
  PlanTable road_type, lanes, oneway, signal;
  std::vector<PlanLayer> layers;

  /// Sees each layer once its forward is done: the layer index, its
  /// packed input rows and its packed hidden rows (quant's calibration
  /// records activation ranges from these).
  using LayerObserver = std::function<void(
      int layer, std::span<const float> input, std::span<const float> hidden)>;

  /// Width of one feature row: the four table widths, both node2vec
  /// endpoints, and the temporal vector when use_temporal.
  int input_dim() const;

  /// Encodes every item (non-empty paths) and returns one TPR per item,
  /// in input order. Polls `cancelled` (may be empty) before feature
  /// assembly, before the LSTM and before aggregation, and returns
  /// nullopt as soon as it reports true. Calls `observe` (may be empty)
  /// once per layer.
  std::optional<std::vector<std::vector<float>>> Encode(
      const std::vector<PathTimeItem>& items,
      const std::function<bool()>& cancelled,
      const LayerObserver& observe = {}) const;
};

}  // namespace tpr::core

#endif  // TPR_CORE_INFERENCE_PLAN_H_
