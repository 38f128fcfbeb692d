#ifndef TPR_BASELINES_GMI_H_
#define TPR_BASELINES_GMI_H_

#include <memory>

#include "baselines/baseline.h"
#include "nn/modules.h"

namespace tpr::baselines {

/// Graphical Mutual Information maximisation (Peng et al., WWW 2020),
/// simplified: a GCN encoder over road-network nodes is trained to
/// maximise MI between a node's embedding and the raw features of its
/// neighbors (positive pairs = graph edges, negatives = random node
/// pairs). Like DGI, representations are purely structural.
class GmiModel : public PathRepresentationModel {
 public:
  struct Config {
    int hidden_dim = 16;
    int epochs = 40;
    int negatives_per_edge = 2;
    float lr = 5e-3f;
    uint64_t seed = 22;
  };

  explicit GmiModel(std::shared_ptr<const core::FeatureSpace> features)
      : GmiModel(std::move(features), Config()) {}
  GmiModel(std::shared_ptr<const core::FeatureSpace> features,
      Config config);

  std::string name() const override { return "GMI"; }
  Status Train() override;
  std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const override;

 private:
  std::shared_ptr<const core::FeatureSpace> features_;
  Config config_;
  nn::Tensor adjacency_;
  nn::Tensor node_features_;
  std::unique_ptr<nn::Linear> gcn_weight_;
  std::unique_ptr<nn::Linear> feature_proj_;
  nn::Tensor node_embeddings_;
  Rng rng_;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_GMI_H_
