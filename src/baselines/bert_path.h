#ifndef TPR_BASELINES_BERT_PATH_H_
#define TPR_BASELINES_BERT_PATH_H_

#include <memory>

#include "baselines/baseline.h"
#include "nn/modules.h"

namespace tpr::baselines {

/// BERT-style masked language modelling on paths: a path is a sentence of
/// edge tokens; random positions are replaced by a mask token and a GRU
/// encoder is trained to recover the original edge id (via negative
/// sampling instead of a full softmax). The path representation is the
/// mean of the unmasked hidden states. Matches the paper's BERT row in
/// spirit; the transformer is replaced by a recurrent encoder at this
/// scale.
class BertPathModel : public PathRepresentationModel {
 public:
  struct Config {
    int embed_dim = 16;
    int hidden_dim = 32;
    int epochs = 2;
    double mask_fraction = 0.2;
    int negatives = 6;
    float lr = 1e-3f;
    uint64_t seed = 24;
  };

  explicit BertPathModel(std::shared_ptr<const core::FeatureSpace> features)
      : BertPathModel(std::move(features), Config()) {}
  BertPathModel(std::shared_ptr<const core::FeatureSpace> features,
      Config config);

  std::string name() const override { return "BERT"; }
  Status Train() override;
  std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const override;

 private:
  /// GRU states for a path with some positions replaced by the mask token.
  nn::Var HiddenStates(const graph::Path& path,
                       const std::vector<bool>& masked) const;

  std::shared_ptr<const core::FeatureSpace> features_;
  Config config_;
  int mask_token_;
  std::unique_ptr<nn::Embedding> token_emb_;   // edges + mask token
  std::unique_ptr<nn::Embedding> output_emb_;  // target-side table
  std::unique_ptr<nn::GruLayer> gru_;
  std::unique_ptr<nn::Linear> out_proj_;  // hidden -> embedding space
  Rng rng_;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_BERT_PATH_H_
