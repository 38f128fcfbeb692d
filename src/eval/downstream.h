#ifndef TPR_EVAL_DOWNSTREAM_H_
#define TPR_EVAL_DOWNSTREAM_H_

#include <functional>
#include <vector>

#include "gbdt/gradient_boosting.h"
#include "synth/dataset.h"
#include "util/status.h"

namespace tpr::eval {

/// Produces a fixed-size representation for a temporal path. All
/// representation learners (WSCCL and every baseline) are evaluated
/// through this interface so the downstream probes are identical.
using PathEncoderFn =
    std::function<std::vector<float>(const synth::TemporalPathSample&)>;

/// Scores for the three downstream tasks (Tables III and IV).
struct TaskScores {
  // Travel time estimation.
  double tte_mae = 0, tte_mare = 0, tte_mape = 0;
  // Path ranking.
  double pr_mae = 0, pr_tau = 0, pr_rho = 0;
  // Path recommendation.
  double rec_acc = 0, rec_hr = 0;
};

/// Options for the probe evaluation.
struct DownstreamOptions {
  DownstreamOptions() {
    boosting.num_trees = 250;
    boosting.tree.max_depth = 4;
  }

  double train_fraction = 0.8;  // paper: 80/20 split of labeled paths
  gbdt::BoostingConfig boosting;
  uint64_t split_seed = 99;
};

/// Encodes samples into a feature matrix via the encoder.
gbdt::Matrix BuildFeatureMatrix(
    const std::vector<synth::TemporalPathSample>& samples,
    const PathEncoderFn& encoder);

/// Runs all three downstream tasks on the labeled pool of a dataset:
/// GBR probes for travel time and ranking score, a GBC probe for
/// recommendation. The train/test split is by OD group so that ranking
/// metrics see complete groups.
StatusOr<TaskScores> EvaluateTasks(const synth::CityDataset& data,
                                   const PathEncoderFn& encoder,
                                   const DownstreamOptions& options = {});

/// Splits group ids into train/test group sets deterministically.
void SplitGroups(const std::vector<synth::TemporalPathSample>& samples,
                 double train_fraction, uint64_t seed,
                 std::vector<int>* train_idx, std::vector<int>* test_idx);

}  // namespace tpr::eval

#endif  // TPR_EVAL_DOWNSTREAM_H_
