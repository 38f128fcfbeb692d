// Reproduces Fig. 7: using WSCCL as a pre-training method for PathRank.
// For each city and each labeled-budget fraction, PathRank is trained
// from scratch and from a WSCCL-pretrained encoder; the series of direct
// prediction MAEs (travel time and ranking score) are printed.

#include "baselines/supervised.h"
#include "eval/metrics.h"
#include "harness.h"

namespace tpr::bench {
namespace {

struct SeriesPoint {
  int labels;
  double mae_scratch;
  double mae_pretrained;
};

std::vector<SeriesPoint> RunTask(const PreparedCity& city,
                                 baselines::SupervisedTask task,
                                 const core::TemporalPathEncoder& pretrained) {
  const auto full_train = LabeledTrainIndices(*city.data);
  const auto test_idx = LabeledTestIndices(*city.data);

  std::vector<SeriesPoint> series;
  for (double fraction : {0.25, 0.5, 0.75, 1.0}) {
    const size_t budget =
        std::max<size_t>(8, static_cast<size_t>(full_train.size() * fraction));
    std::vector<int> train(full_train.begin(),
                           full_train.begin() +
                               std::min(budget, full_train.size()));

    auto evaluate = [&](baselines::PathRankModel& model) {
      auto st = model.Train();
      TPR_CHECK(st.ok()) << st.ToString();
      std::vector<double> truth, pred;
      for (int i : test_idx) {
        const auto& s = city.data->labeled[i];
        truth.push_back(task == baselines::SupervisedTask::kTravelTime
                            ? s.travel_time_s
                            : s.rank_score);
        pred.push_back(model.PredictPrimary(s));
      }
      return *eval::Mae(truth, pred);
    };

    baselines::SupervisedConfig cfg;
    cfg.primary = task;
    baselines::PathRankModel scratch(city.features, train, cfg);
    const double mae_scratch = evaluate(scratch);

    baselines::PathRankModel warm(city.features, train, cfg);
    auto st = warm.InitEncoderFrom(pretrained);
    TPR_CHECK(st.ok()) << st.ToString();
    const double mae_warm = evaluate(warm);

    series.push_back({static_cast<int>(train.size()), mae_scratch, mae_warm});
  }
  return series;
}

}  // namespace
}  // namespace tpr::bench

int main(int argc, char** argv) {
  using namespace tpr;
  using namespace tpr::bench;
  Init(argc, argv);

  std::printf("Fig. 7: Effects of Pre-training (PathRank MAE vs #labels)\n");
  for (const auto& preset : synth::AllPresets()) {
    PreparedCity city = PrepareCity(preset);
    std::fprintf(stderr, "[bench] === %s: pre-training WSCCL ===\n",
                 city.name.c_str());
    core::WsccalConfig cfg = DefaultWsccalConfig();
    cfg.ckpt_dir = CkptDirFor(city, cfg);
    auto wsccl = core::WsccalPipeline::Train(city.features, cfg);
    TPR_CHECK(wsccl.ok()) << wsccl.status().ToString();
    const auto& encoder = (*wsccl)->model().encoder();

    for (auto task : {baselines::SupervisedTask::kTravelTime,
                      baselines::SupervisedTask::kRanking}) {
      const bool tte = task == baselines::SupervisedTask::kTravelTime;
      std::fprintf(stderr, "[bench]   task %s...\n",
                   tte ? "travel time" : "ranking");
      auto series = RunTask(city, task, encoder);
      TablePrinter t({"#labels", "PathRank", "WSCCL + PathRank"});
      for (const auto& p : series) {
        t.AddRow({std::to_string(p.labels),
                  TablePrinter::Num(p.mae_scratch, tte ? 2 : 3),
                  TablePrinter::Num(p.mae_pretrained, tte ? 2 : 3)});
      }
      std::printf("\n-- %s / %s --\n%s", city.name.c_str(),
                  tte ? "Travel Time Estimation" : "Path Ranking",
                  t.ToString().c_str());
    }
  }
  return 0;
}
