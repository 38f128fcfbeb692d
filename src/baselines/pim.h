#ifndef TPR_BASELINES_PIM_H_
#define TPR_BASELINES_PIM_H_

#include <memory>

#include "baselines/baseline.h"
#include "nn/modules.h"

namespace tpr::baselines {

/// PIM (Yang et al., IJCAI 2021): unsupervised path representation
/// learning via global and local mutual-information maximisation with
/// curriculum negative sampling. Exactly one positive per anchor (an
/// edge-dropout view of the same path); negatives are drawn from other
/// paths, ordered easy-to-hard by length dissimilarity as training
/// progresses. No temporal information.
class PimModel : public PathRepresentationModel {
 public:
  struct Config {
    int hidden_dim = 32;
    int epochs = 2;
    int negatives = 4;
    double edge_dropout = 0.15;
    float temperature = 0.1f;
    float lr = 1e-3f;
    uint64_t seed = 26;
  };

  explicit PimModel(std::shared_ptr<const core::FeatureSpace> features)
      : PimModel(std::move(features), Config()) {}
  PimModel(std::shared_ptr<const core::FeatureSpace> features,
      Config config);

  std::string name() const override { return "PIM"; }
  Status Train() override;
  std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const override;

 protected:
  /// (T x hidden) local edge representations of a path.
  nn::Var LocalReps(const graph::Path& path) const;

  std::shared_ptr<const core::FeatureSpace> features_;
  Config config_;
  std::unique_ptr<nn::Lstm> lstm_;
  Rng rng_;
};

/// PIM-Temporal (Table IX): the PIM representation concatenated with the
/// node2vec temporal embedding of the departure time. The temporal part
/// is appended post hoc and never interacts with the path structure —
/// exactly the deficiency the experiment demonstrates.
class PimTemporalModel : public PimModel {
 public:
  using PimModel::PimModel;

  std::string name() const override { return "PIM-Temporal"; }
  std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const override;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_PIM_H_
