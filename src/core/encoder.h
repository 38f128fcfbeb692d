#ifndef TPR_CORE_ENCODER_H_
#define TPR_CORE_ENCODER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/features.h"
#include "nn/modules.h"
#include "nn/transformer.h"

namespace tpr::core {

/// Sequence model used by the encoder. The paper uses an LSTM (Eq. 7) and
/// notes that "more advanced sequential models, e.g., Transformer" are
/// possible; both are provided.
enum class SequenceModel { kLstm, kTransformer };

/// How the spatio-temporal edge representations are aggregated into the
/// TPR. The paper uses the mean (Eq. 8); max pooling and last-hidden-state
/// are provided for the aggregation ablation.
enum class Aggregation { kMean, kMax, kLast };

/// Hyper-parameters of the temporal path encoder (paper Section IV).
/// Dimensions default to a CPU-friendly scale; the paper's configuration
/// is d_rt=64, d_l=32, d_o=16, d_ts=16, d_h=128, 2 LSTM layers.
struct EncoderConfig {
  int d_rt = 8;          // road type embedding
  int d_lanes = 4;       // number-of-lanes embedding
  int d_oneway = 2;      // one-way flag embedding
  int d_signal = 2;      // traffic-signal flag embedding
  int d_hidden = 128;    // d_h: LSTM hidden size == TPR dimensionality (paper value)
  int lstm_layers = 2;
  SequenceModel sequence_model = SequenceModel::kLstm;
  Aggregation aggregation = Aggregation::kMean;
  /// When false the temporal channel is dropped entirely (the WSCCL-NT
  /// ablation of Table VIII).
  bool use_temporal = true;

  /// Contrastive projection head (SupCon practice, which the paper builds
  /// on): the WSC losses are computed on a learned projection of the TPR
  /// and of the edge representations, while downstream tasks consume the
  /// pre-projection TPR. This keeps the representation informative while
  /// the head absorbs the purely discriminative warping.
  bool use_projection_head = true;
  int projection_dim = 32;

  uint64_t seed = 31;
};

/// One (path, departure time) item of a batched encode. The path is
/// borrowed — the caller keeps it alive for the duration of the call.
struct PathTimeItem {
  const graph::Path* path = nullptr;
  int64_t depart_time_s = 0;
};

struct InferencePlan;

/// Output of encoding one temporal path.
struct EncodedPath {
  nn::Var tpr;        // 1 x d_h temporal path representation (Eq. 8)
  nn::Var edge_reps;  // T x d_h spatio-temporal edge representations (Eq. 7)
  // Projection-head outputs consumed by the contrastive losses. Equal to
  // tpr / edge_reps when the head is disabled.
  nn::Var tpr_proj;
  nn::Var edge_reps_proj;
};

/// The temporal path encoder: spatial embedding (Eq. 3-6) + temporal
/// embedding (Eq. 2) -> 2-layer LSTM (Eq. 7) -> mean aggregation (Eq. 8).
///
/// The node2vec topology and temporal vectors are frozen inputs; the
/// categorical feature embeddings and the LSTM are trained end to end.
/// Encode builds the autograd tape for training. Every inference-only
/// encode of an LSTM encoder — EncodeValue, EncodeValueBatch, serving,
/// the probes and int8 calibration — runs the tape-free forward of
/// core/inference_plan.h, whose rows equal Encode(...).tpr bitwise.
class TemporalPathEncoder : public nn::Module {
 public:
  TemporalPathEncoder(std::shared_ptr<const FeatureSpace> features,
                      const EncoderConfig& config);

  /// Encodes a temporal path (edge sequence + departure time).
  EncodedPath Encode(const graph::Path& path, int64_t depart_time_s) const;

  /// The TPR values only, without building an autograd graph (for
  /// downstream probes): EncodeValueBatch over a batch of one, so the
  /// result equals Encode(...).tpr bitwise.
  std::vector<float> EncodeValue(const graph::Path& path,
                                 int64_t depart_time_s) const;

  /// One TPR per (path, time) item, in order. LSTM encoders run the
  /// tape-free packed forward of core/inference_plan.h; every row is
  /// bitwise Encode(...).tpr under either kernel (batch_test pins it),
  /// and tpr::serve answers every request from this forward.
  /// Transformer encoders run Encode item by item with no tape.
  std::vector<std::vector<float>> EncodeValueBatch(
      const std::vector<PathTimeItem>& items) const;

  /// Like EncodeValueBatch, but polls `cancelled` (may be empty) between
  /// pipeline stages (feature assembly, sequence model, aggregation; a
  /// transformer polls between items) and returns nullopt as soon as it
  /// observes true. This is how tpr::serve propagates request deadlines
  /// into a forward pass that is already running: cancellation is
  /// cooperative and stage-granular, never mid-matmul.
  std::optional<std::vector<std::vector<float>>> EncodeValueBatchCancellable(
      const std::vector<PathTimeItem>& items,
      const std::function<bool()>& cancelled) const;

  std::vector<nn::Var> Parameters() const override;

  const EncoderConfig& config() const { return config_; }
  int representation_dim() const { return config_.d_hidden; }

  /// The frozen feature space this encoder reads from. tpr::quant shares
  /// it with the quantized twin so both see identical inputs.
  const std::shared_ptr<const FeatureSpace>& features() const {
    return features_;
  }

  /// Input dimensionality fed to the LSTM (spatial [+ temporal]).
  int input_dim() const;

  /// The fp32 inference plan over this encoder's current parameters
  /// (LSTM encoders only). It borrows the parameter tensors, so wire a
  /// fresh one after CopyParamsFrom or a checkpoint load replaces them.
  InferencePlan Plan() const;

 private:
  /// The frozen spatio-temporal input sequence for a path (T x input_dim
  /// minus the trainable categorical part, see Encode()).
  nn::Var BuildStaticFeatures(const graph::Path& path,
                              int64_t depart_time_s) const;

  std::shared_ptr<const FeatureSpace> features_;
  EncoderConfig config_;
  std::unique_ptr<nn::Embedding> road_type_emb_;
  std::unique_ptr<nn::Embedding> lanes_emb_;
  std::unique_ptr<nn::Embedding> oneway_emb_;
  std::unique_ptr<nn::Embedding> signal_emb_;
  std::unique_ptr<nn::Lstm> lstm_;
  std::unique_ptr<nn::TransformerEncoder> transformer_;
  std::unique_ptr<nn::Linear> proj1_;
  std::unique_ptr<nn::Linear> proj2_;
};

}  // namespace tpr::core

#endif  // TPR_CORE_ENCODER_H_
