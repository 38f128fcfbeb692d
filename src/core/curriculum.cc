#include "core/curriculum.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpr::core {
namespace {

double CosineOfVectors(const std::vector<float>& a,
                       const std::vector<float>& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0 ? dot / denom : 0.0;
}

}  // namespace

std::vector<std::vector<int>> SplitMetaSets(const synth::CityDataset& data,
                                            const std::vector<int>& indices,
                                            int n) {
  TPR_CHECK(n >= 1);
  std::vector<int> sorted = indices;
  std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
    return data.network->PathLength(data.unlabeled[a].path) <
           data.network->PathLength(data.unlabeled[b].path);
  });
  std::vector<std::vector<int>> meta_sets(n);
  const size_t per_set = (sorted.size() + n - 1) / n;
  for (size_t i = 0; i < sorted.size(); ++i) {
    meta_sets[std::min<size_t>(i / per_set, n - 1)].push_back(sorted[i]);
  }
  // Drop empty trailing sets (tiny inputs with n > |indices|).
  while (!meta_sets.empty() && meta_sets.back().empty()) meta_sets.pop_back();
  return meta_sets;
}

StatusOr<std::vector<ScoredSample>> EvaluateDifficulty(
    std::shared_ptr<const FeatureSpace> features, const WscConfig& wsc_config,
    const CurriculumConfig& config, const std::vector<int>& indices) {
  const auto& data = *features->data;
  auto meta_sets = SplitMetaSets(data, indices, config.num_meta_sets);
  const int n = static_cast<int>(meta_sets.size());
  if (n == 0) return Status::InvalidArgument("no samples to score");

  // Train one expert per meta-set. Experts are independent (own seed,
  // own optimizer, own data shard) and each is a deterministic function
  // of its config alone, so the result is thread-count invariant. They
  // are built here, on the calling thread that also frees them: state a
  // pool worker allocated would stay in that worker's malloc arena and
  // raise peak RSS. One ParallelFor trains them; an expert's shard loop
  // fans out to the workers no expert holds.
  std::vector<std::unique_ptr<WscModel>> experts;
  experts.reserve(n);
  for (int j = 0; j < n; ++j) {
    WscConfig expert_config = wsc_config;
    expert_config.seed = wsc_config.seed + 1000 + j;
    expert_config.encoder.seed = wsc_config.encoder.seed + 1000 + j;
    experts.push_back(std::make_unique<WscModel>(features, expert_config));
  }
  std::vector<Status> expert_status(n, Status::OK());
  {
    obs::ScopedSpan experts_span("curriculum.train_experts", "experts", n);
    par::DefaultPool().ParallelFor(n, [&](int j) {
      obs::ScopedSpan expert_span("curriculum.expert", "expert", j);
      Stopwatch expert_sw;
      for (int epoch = 0; epoch < config.expert_epochs; ++epoch) {
        auto loss = experts[j]->TrainEpoch(meta_sets[j]);
        if (!loss.ok()) {
          expert_status[j] = loss.status();
          return;
        }
      }
      if (obs::MetricsEnabled()) {
        obs::GetHistogram("curriculum.expert_seconds")
            .Observe(expert_sw.ElapsedSeconds());
      }
    });
  }
  for (const auto& st : expert_status) {
    if (!st.ok()) return st;
  }

  // Score every sample: sum of cosine similarities between its own
  // expert's TPR and every other expert's TPR (Eq. 13). Encoding is a
  // const forward pass, so samples score in parallel into fixed slots.
  std::vector<std::pair<int, int>> todo;  // (meta-set, pool index)
  todo.reserve(indices.size());
  for (int j = 0; j < n; ++j) {
    for (int idx : meta_sets[j]) todo.emplace_back(j, idx);
  }
  obs::ScopedSpan score_span("curriculum.score_samples", "samples",
                             static_cast<double>(todo.size()));
  std::vector<ScoredSample> scored(todo.size());
  par::DefaultPool().ParallelFor(
      static_cast<int>(todo.size()), [&](int t) {
        const auto [j, idx] = todo[t];
        const auto& sample = data.unlabeled[idx];
        const auto own =
            experts[j]->Encode(sample.path, sample.depart_time_s);
        double score = 0.0;
        for (int k = 0; k < n; ++k) {
          if (k == j) continue;
          const auto other =
              experts[k]->Encode(sample.path, sample.depart_time_s);
          score += CosineOfVectors(own, other);
        }
        scored[t] = {idx, score};
      });
  return scored;
}

std::vector<std::vector<int>> BuildStages(std::vector<ScoredSample> scored,
                                          int num_stages, Rng& rng) {
  TPR_CHECK(num_stages >= 1);
  // Higher score = easier; easy samples come first (Section VI-C).
  std::sort(scored.begin(), scored.end(),
            [](const ScoredSample& a, const ScoredSample& b) {
              return a.score > b.score;
            });
  std::vector<std::vector<int>> stages(num_stages);
  const size_t per_stage = (scored.size() + num_stages - 1) / num_stages;
  for (size_t i = 0; i < scored.size(); ++i) {
    stages[std::min<size_t>(i / per_stage, num_stages - 1)].push_back(
        scored[i].index);
  }
  while (!stages.empty() && stages.back().empty()) stages.pop_back();
  // Local shuffling within each stage preserves some variation.
  for (auto& stage : stages) rng.Shuffle(stage);
  return stages;
}

StatusOr<std::vector<std::vector<int>>> BuildCurriculum(
    std::shared_ptr<const FeatureSpace> features, const WscConfig& wsc_config,
    const CurriculumConfig& config, const std::vector<int>& indices) {
  Rng rng(wsc_config.seed + 77);
  switch (config.strategy) {
    case CurriculumStrategy::kNone: {
      std::vector<int> all = indices;
      rng.Shuffle(all);
      return std::vector<std::vector<int>>{std::move(all)};
    }
    case CurriculumStrategy::kHeuristic: {
      const auto& data = *features->data;
      std::vector<ScoredSample> scored;
      scored.reserve(indices.size());
      for (int idx : indices) {
        // Shorter paths are treated as easier: score = -#edges.
        scored.push_back(
            {idx, -static_cast<double>(data.unlabeled[idx].path.size())});
      }
      return BuildStages(std::move(scored), config.num_meta_sets, rng);
    }
    case CurriculumStrategy::kLearned: {
      auto scored = EvaluateDifficulty(features, wsc_config, config, indices);
      if (!scored.ok()) return scored.status();
      return BuildStages(std::move(scored).value(), config.num_meta_sets, rng);
    }
  }
  return Status::InvalidArgument("unknown curriculum strategy");
}

}  // namespace tpr::core
