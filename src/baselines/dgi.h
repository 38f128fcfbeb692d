#ifndef TPR_BASELINES_DGI_H_
#define TPR_BASELINES_DGI_H_

#include <memory>

#include "baselines/baseline.h"
#include "nn/modules.h"

namespace tpr::baselines {

/// Deep Graph Infomax (Velickovic et al., ICLR 2019), applied to the road
/// network: a one-layer GCN encoder over node features is trained to
/// discriminate true (node, graph-summary) pairs from corrupted ones.
/// The edge representation is [h_from, h_to]; a path representation is the
/// mean over its edges — no temporal information, as in the paper's DGI row.
class DgiModel : public PathRepresentationModel {
 public:
  struct Config {
    int hidden_dim = 16;
    int epochs = 40;
    float lr = 5e-3f;
    uint64_t seed = 21;
  };

  explicit DgiModel(std::shared_ptr<const core::FeatureSpace> features)
      : DgiModel(std::move(features), Config()) {}
  DgiModel(std::shared_ptr<const core::FeatureSpace> features,
      Config config);

  std::string name() const override { return "DGI"; }
  Status Train() override;
  std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const override;

 protected:
  /// GCN forward over (optionally corrupted) features.
  nn::Var EncodeNodes(const nn::Var& x) const;

  std::shared_ptr<const core::FeatureSpace> features_;
  Config config_;
  nn::Tensor adjacency_;      // normalised node-graph adjacency
  nn::Tensor node_features_;  // node2vec embedding + degree
  std::unique_ptr<nn::Linear> gcn_weight_;
  std::unique_ptr<nn::Linear> discriminator_;
  nn::Tensor node_embeddings_;  // frozen after Train()
  Rng rng_;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_DGI_H_
