#include "eval/downstream.h"

#include <set>

#include "eval/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tpr::eval {

gbdt::Matrix BuildFeatureMatrix(
    const std::vector<synth::TemporalPathSample>& samples,
    const PathEncoderFn& encoder) {
  TPR_CHECK(!samples.empty());
  const auto first = encoder(samples[0]);
  gbdt::Matrix x(static_cast<int>(samples.size()),
                 static_cast<int>(first.size()));
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto features = i == 0 ? first : encoder(samples[i]);
    TPR_CHECK(features.size() == static_cast<size_t>(x.cols));
    std::copy(features.begin(), features.end(),
              x.data.begin() + i * features.size());
  }
  return x;
}

void SplitGroups(const std::vector<synth::TemporalPathSample>& samples,
                 double train_fraction, uint64_t seed,
                 std::vector<int>* train_idx, std::vector<int>* test_idx) {
  std::set<int> group_set;
  for (const auto& s : samples) group_set.insert(s.group);
  std::vector<int> groups(group_set.begin(), group_set.end());
  Rng rng(seed);
  rng.Shuffle(groups);
  const size_t train_groups =
      static_cast<size_t>(groups.size() * train_fraction);
  std::set<int> train_set(groups.begin(), groups.begin() + train_groups);
  train_idx->clear();
  test_idx->clear();
  for (size_t i = 0; i < samples.size(); ++i) {
    if (train_set.count(samples[i].group)) {
      train_idx->push_back(static_cast<int>(i));
    } else {
      test_idx->push_back(static_cast<int>(i));
    }
  }
}

namespace {

gbdt::Matrix SelectRows(const gbdt::Matrix& x, const std::vector<int>& rows) {
  gbdt::Matrix out(static_cast<int>(rows.size()), x.cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(x.row(rows[i]), x.row(rows[i]) + x.cols,
              out.data.begin() + i * x.cols);
  }
  return out;
}

}  // namespace

StatusOr<TaskScores> EvaluateTasks(const synth::CityDataset& data,
                                   const PathEncoderFn& encoder,
                                   const DownstreamOptions& options) {
  const auto& samples = data.labeled;
  if (samples.empty()) return Status::InvalidArgument("no labeled samples");

  const gbdt::Matrix x = BuildFeatureMatrix(samples, encoder);
  std::vector<int> train_idx, test_idx;
  SplitGroups(samples, options.train_fraction, options.split_seed, &train_idx,
              &test_idx);
  if (train_idx.empty() || test_idx.empty()) {
    return Status::InvalidArgument("degenerate train/test split");
  }
  const gbdt::Matrix x_train = SelectRows(x, train_idx);
  const gbdt::Matrix x_test = SelectRows(x, test_idx);

  TaskScores scores;

  // ---- Travel time estimation (GBR). ----
  {
    std::vector<float> y_train(train_idx.size());
    for (size_t i = 0; i < train_idx.size(); ++i) {
      y_train[i] = static_cast<float>(samples[train_idx[i]].travel_time_s);
    }
    gbdt::GradientBoostingRegressor gbr(options.boosting);
    TPR_RETURN_IF_ERROR(gbr.Fit(x_train, y_train));
    std::vector<double> truth(test_idx.size()), pred(test_idx.size());
    for (size_t i = 0; i < test_idx.size(); ++i) {
      truth[i] = samples[test_idx[i]].travel_time_s;
      pred[i] = gbr.Predict(x_test.row(static_cast<int>(i)));
    }
    auto mae = Mae(truth, pred);
    auto mare = Mare(truth, pred);
    auto mape = Mape(truth, pred);
    if (!mae.ok()) return mae.status();
    if (!mare.ok()) return mare.status();
    if (!mape.ok()) return mape.status();
    scores.tte_mae = *mae;
    scores.tte_mare = *mare;
    scores.tte_mape = *mape;
  }

  // ---- Path ranking (GBR on rank scores + grouped tau/rho). ----
  {
    std::vector<float> y_train(train_idx.size());
    for (size_t i = 0; i < train_idx.size(); ++i) {
      y_train[i] = static_cast<float>(samples[train_idx[i]].rank_score);
    }
    gbdt::GradientBoostingRegressor gbr(options.boosting);
    TPR_RETURN_IF_ERROR(gbr.Fit(x_train, y_train));
    std::vector<double> truth(test_idx.size()), pred(test_idx.size());
    std::vector<int> groups(test_idx.size());
    for (size_t i = 0; i < test_idx.size(); ++i) {
      truth[i] = samples[test_idx[i]].rank_score;
      pred[i] = gbr.Predict(x_test.row(static_cast<int>(i)));
      groups[i] = samples[test_idx[i]].group;
    }
    auto mae = Mae(truth, pred);
    auto tau = GroupedKendallTau(groups, truth, pred);
    auto rho = GroupedSpearmanRho(groups, truth, pred);
    if (!mae.ok()) return mae.status();
    if (!tau.ok()) return tau.status();
    if (!rho.ok()) return rho.status();
    scores.pr_mae = *mae;
    scores.pr_tau = *tau;
    scores.pr_rho = *rho;
  }

  // ---- Path recommendation (GBC). ----
  {
    std::vector<int> y_train(train_idx.size());
    for (size_t i = 0; i < train_idx.size(); ++i) {
      y_train[i] = samples[train_idx[i]].recommended;
    }
    gbdt::GradientBoostingClassifier gbc(options.boosting);
    TPR_RETURN_IF_ERROR(gbc.Fit(x_train, y_train));
    std::vector<int> truth(test_idx.size()), pred(test_idx.size());
    for (size_t i = 0; i < test_idx.size(); ++i) {
      truth[i] = samples[test_idx[i]].recommended;
      pred[i] = gbc.Predict(x_test.row(static_cast<int>(i)));
    }
    auto acc = Accuracy(truth, pred);
    auto hr = HitRate(truth, pred);
    if (!acc.ok()) return acc.status();
    if (!hr.ok()) return hr.status();
    scores.rec_acc = *acc;
    scores.rec_hr = *hr;
  }

  return scores;
}

}  // namespace tpr::eval
