#ifndef TPR_BASELINES_GCN_TTE_H_
#define TPR_BASELINES_GCN_TTE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/features.h"
#include "nn/modules.h"
#include "util/status.h"

namespace tpr::baselines {

/// Common interface for the edge-level travel-time baselines GCN and
/// STGCN. These cannot produce generic path representations (paper:
/// "GCNs and STGCNs cannot work as baselines for the ranking and
/// recommendation tasks") — they only predict a path's travel time as the
/// sum of predicted edge travel times.
class EdgeTravelTimePredictor {
 public:
  virtual ~EdgeTravelTimePredictor() = default;

  /// Human-readable method name as printed in the result tables.
  virtual std::string name() const = 0;

  /// Trains on the labeled training split. Per-edge targets are derived
  /// from path observations by distributing each path's travel time over
  /// its edges proportionally to edge length.
  virtual Status Train(const std::vector<int>& train_indices) = 0;

  /// Predicted travel time (seconds) of a path at the given departure.
  virtual double PredictTravelTime(const graph::Path& path,
                                   int64_t depart_time_s) const = 0;
};

/// GCN (Defferrard et al., NIPS 2016) over the road network's line graph:
/// two graph-convolution layers over edge features regress a static
/// per-edge travel time. Time-of-day is ignored entirely.
class GcnTteModel : public EdgeTravelTimePredictor {
 public:
  struct Config {
    int hidden_dim = 32;
    int epochs = 120;
    float lr = 5e-3f;
    uint64_t seed = 51;
  };

  explicit GcnTteModel(std::shared_ptr<const core::FeatureSpace> features)
      : GcnTteModel(std::move(features), Config()) {}
  GcnTteModel(std::shared_ptr<const core::FeatureSpace> features,
              Config config);

  std::string name() const override { return "GCN"; }
  Status Train(const std::vector<int>& train_indices) override;
  double PredictTravelTime(const graph::Path& path,
                           int64_t depart_time_s) const override;

 private:
  std::shared_ptr<const core::FeatureSpace> features_;
  Config config_;
  nn::Tensor adjacency_;       // line-graph adjacency
  nn::Tensor edge_features_;
  std::unique_ptr<nn::Linear> layer1_;
  std::unique_ptr<nn::Linear> layer2_;
  std::vector<float> edge_times_;  // frozen predictions after Train()
};

/// STGCN (Yu et al., IJCAI 2018) analogue: graph convolution over the
/// line graph combined with a time-slot channel, so predicted edge times
/// depend on the departure time bucket.
class StgcnTteModel : public EdgeTravelTimePredictor {
 public:
  struct Config {
    int hidden_dim = 32;
    int time_buckets = 48;  // half-hour buckets over the day, weekday/weekend
    int epochs = 120;
    float lr = 5e-3f;
    uint64_t seed = 52;
  };

  explicit StgcnTteModel(std::shared_ptr<const core::FeatureSpace> features)
      : StgcnTteModel(std::move(features), Config()) {}
  StgcnTteModel(std::shared_ptr<const core::FeatureSpace> features,
                Config config);

  std::string name() const override { return "STGCN"; }
  Status Train(const std::vector<int>& train_indices) override;
  double PredictTravelTime(const graph::Path& path,
                           int64_t depart_time_s) const override;

 private:
  int BucketOf(int64_t depart_time_s) const;

  std::shared_ptr<const core::FeatureSpace> features_;
  Config config_;
  nn::Tensor adjacency_;
  nn::Tensor edge_features_;
  std::unique_ptr<nn::Linear> layer1_;
  std::unique_ptr<nn::Linear> layer2_;
  std::unique_ptr<nn::Embedding> time_emb_;
  std::unique_ptr<nn::Linear> out_;
  // Frozen per-(bucket, edge) predictions after Train().
  std::vector<std::vector<float>> edge_times_by_bucket_;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_GCN_TTE_H_
