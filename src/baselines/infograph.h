#ifndef TPR_BASELINES_INFOGRAPH_H_
#define TPR_BASELINES_INFOGRAPH_H_

#include <memory>

#include "baselines/baseline.h"
#include "nn/modules.h"

namespace tpr::baselines {

/// InfoGraph (Sun et al., ICLR 2020): each path is treated as a small
/// graph; an MLP produces per-edge (local) representations whose mean is
/// the path's global representation. Training maximises the Jensen-Shannon
/// MI between local and global representations of the same path while
/// suppressing cross-path pairs. Purely spatial — it cannot capture edge
/// order or departure time, as the paper notes.
class InfoGraphModel : public PathRepresentationModel {
 public:
  struct Config {
    int hidden_dim = 32;
    int epochs = 3;
    int batch_paths = 8;
    int locals_per_path = 4;
    float lr = 1e-3f;
    uint64_t seed = 25;
  };

  explicit InfoGraphModel(std::shared_ptr<const core::FeatureSpace> features)
      : InfoGraphModel(std::move(features), Config()) {}
  InfoGraphModel(std::shared_ptr<const core::FeatureSpace> features,
      Config config);

  std::string name() const override { return "InfoGraph"; }
  Status Train() override;
  std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const override;

 private:
  nn::Var LocalReps(const graph::Path& path) const;

  std::shared_ptr<const core::FeatureSpace> features_;
  Config config_;
  std::unique_ptr<nn::Mlp> local_encoder_;
  std::unique_ptr<nn::Linear> global_proj_;
  Rng rng_;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_INFOGRAPH_H_
