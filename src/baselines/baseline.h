#ifndef TPR_BASELINES_BASELINE_H_
#define TPR_BASELINES_BASELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/features.h"
#include "synth/dataset.h"
#include "util/status.h"

namespace tpr::baselines {

/// Common interface for all comparison methods of Section VII-A-3. Each
/// model is trained on its required signal (unlabeled paths for the
/// unsupervised ones, a labeled primary task for the supervised ones) and
/// then produces frozen path representations for the downstream probes.
class PathRepresentationModel {
 public:
  virtual ~PathRepresentationModel() = default;

  /// Human-readable method name as printed in the result tables.
  virtual std::string name() const = 0;

  /// Trains the model. Unsupervised methods use data.unlabeled; supervised
  /// ones use the training portion of data.labeled.
  virtual Status Train() = 0;

  /// Frozen representation of a temporal path.
  virtual std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const = 0;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_BASELINE_H_
