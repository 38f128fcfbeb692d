#ifndef TPR_BASELINES_MEMORY_BANK_H_
#define TPR_BASELINES_MEMORY_BANK_H_

#include <memory>

#include "baselines/baseline.h"
#include "nn/modules.h"

namespace tpr::baselines {

/// Memory-bank instance discrimination (Wu et al., CVPR 2018),
/// re-implemented with an LSTM path encoder as in the paper: every
/// unlabeled path is its own class; its representation is contrasted via
/// NCE against negative representations drawn from a momentum-updated
/// memory bank. No temporal channel and no weak labels.
class MemoryBankModel : public PathRepresentationModel {
 public:
  struct Config {
    int hidden_dim = 32;
    int epochs = 2;
    int negatives = 8;
    float temperature = 0.1f;
    float momentum = 0.5f;
    float lr = 1e-3f;
    uint64_t seed = 23;
  };

  explicit MemoryBankModel(std::shared_ptr<const core::FeatureSpace> features)
      : MemoryBankModel(std::move(features), Config()) {}
  MemoryBankModel(std::shared_ptr<const core::FeatureSpace> features,
      Config config);

  std::string name() const override { return "MB"; }
  Status Train() override;
  std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const override;

 private:
  nn::Var EncodePath(const graph::Path& path) const;

  std::shared_ptr<const core::FeatureSpace> features_;
  Config config_;
  std::unique_ptr<nn::Lstm> lstm_;
  std::vector<std::vector<float>> bank_;
  Rng rng_;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_MEMORY_BANK_H_
