#include "par/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/supervised.h"
#include "core/wsc_trainer.h"
#include "nn/autograd.h"
#include "nn/grad_accumulator.h"
#include "synth/presets.h"

namespace tpr::par {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  int sum = 0;  // no atomics needed: everything runs on this thread
  pool.ParallelFor(10, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(3);
  auto fut = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(3);
  auto fut = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](int i) {
                         if (i == 37) throw std::runtime_error("bad index");
                       }),
      std::runtime_error);
  // The pool must stay usable after an aborted loop.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

// When several indices throw concurrently, the smallest-index exception
// must be the one rethrown on the calling thread. Indices are claimed in
// ascending order, so the smallest throwing index always fires before
// the abort flag can stop it — the winner is deterministic at any thread
// count. Repeated to rattle the race under TSan.
TEST(ThreadPoolTest, ParallelForRethrowsTheSmallestIndexException) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 25; ++rep) {
    try {
      pool.ParallelFor(256, [&](int i) {
        if (i == 10 || i == 90 || i == 200) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "ParallelFor must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "10") << "rep " << rep;
    }
  }
}

// Exception storm: every participant throws repeatedly while others are
// mid-iteration. The loop must neither terminate the process nor wedge
// the pool, and index 0 — always the first claim — must win the rethrow.
TEST(ThreadPoolTest, ExceptionStormLeavesThePoolUsable) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 10; ++rep) {
    try {
      pool.ParallelFor(128, [&](int i) {
        if (i % 7 == 0) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "ParallelFor must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0") << "rep " << rep;
    }
    std::atomic<int> count{0};
    pool.ParallelFor(32, [&](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 32);
  }
}

TEST(ThreadPoolTest, SubmitExceptionDoesNotPoisonLaterTasks) {
  ThreadPool pool(3);
  auto bad = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.Submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(6 * 5);
  pool.ParallelFor(6, [&](int i) {
    pool.ParallelFor(5, [&](int j) { hits[i * 5 + j].fetch_add(1); });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, NestedSubmitRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](int i) {
    auto fut = pool.Submit([i] { return i + 1; });
    total.fetch_add(fut.get());
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPoolTest, WorkerIndexStaysWithinPoolBounds) {
  ThreadPool pool(4);
  EXPECT_EQ(WorkerIndex(), 0);  // caller thread
  std::atomic<bool> in_bounds{true};
  pool.ParallelFor(64, [&](int) {
    const int w = WorkerIndex();
    if (w < 0 || w >= pool.num_threads()) in_bounds = false;
  });
  EXPECT_TRUE(in_bounds.load());
}

TEST(ThreadPoolTest, ConfiguredThreadsIsPositive) {
  EXPECT_GE(ConfiguredThreads(), 1);
}

// ---------------------------------------------------------------------------
// GradAccumulator
// ---------------------------------------------------------------------------

TEST(GradAccumulatorTest, ReduceSumsShardsInOrder) {
  auto master = nn::Var::Leaf(nn::Tensor::RowVector({1.0f, 2.0f}), true);
  nn::GradAccumulator acc({master});
  acc.BeginBatch(3);

  // Fill shards 2, 0 out of order; leave shard 1 empty (failed shard).
  for (int shard : {2, 0}) {
    auto replica = nn::Var::Leaf(nn::Tensor::RowVector({1.0f, 2.0f}), true);
    auto loss = nn::Sum(nn::Scale(replica, static_cast<float>(shard + 1)));
    loss.Backward();
    acc.CaptureShard(shard, {replica});
    // Capture moves the gradient out, leaving the replica reusable.
    EXPECT_TRUE(replica.grad().empty());
  }
  EXPECT_EQ(acc.captured(), 2);

  master.ZeroGrad();
  acc.Reduce(0.5f);
  // d(shard0)/dp = 1, d(shard2)/dp = 3; scaled by 0.5 -> 2.0 per element.
  ASSERT_FALSE(master.grad().empty());
  EXPECT_FLOAT_EQ(master.grad().at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(master.grad().at(0, 1), 2.0f);
}

// A small model of the trainers' op mix: an embedding Gather, an Affine
// projection and a 2-unit LSTM layer, plus one parameter no loss uses.
std::vector<nn::Var> TinyModel() {
  Rng rng(5);
  auto random = [&rng](int rows, int cols) {
    nn::Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
    return nn::Var::Leaf(std::move(t), /*requires_grad=*/true);
  };
  // A braced list evaluates left to right, so the draws are fixed.
  constexpr int h = 2;
  return {random(10, 4),    random(4, 6),     random(1, 6), random(6, 4 * h),
          random(h, 4 * h), random(1, 4 * h), random(3, 3)};
}

nn::Var TinyShardLoss(const std::vector<nn::Var>& p, int shard) {
  std::vector<int> rows;
  for (int t = 0; t < 3 + shard; ++t) rows.push_back((3 * shard + 7 * t) % 10);
  nn::Var x = nn::Affine(nn::Gather(p[0], rows), p[1], p[2]);
  nn::Var h = nn::LstmSequence(x, p[3], p[4], p[5]);
  return nn::Sum(nn::Mul(h, h));
}

// Shards that backpropagate concurrently over one set of parameters must
// reduce to the bits of per-shard replicas: a value copy of the model
// per shard, a plain Backward() and CaptureShard.
TEST(GradAccumulatorTest, ShardBackwardMatchesReplicaCapture) {
  constexpr int kShards = 4;
  const std::vector<nn::Var> shared = TinyModel();
  nn::GradAccumulator acc(shared);
  acc.BeginBatch(kShards);
  ThreadPool pool(4);
  pool.ParallelFor(kShards,
                   [&](int s) { acc.Backward(s, TinyShardLoss(shared, s)); });
  EXPECT_EQ(acc.captured(), kShards);
  // Backward fills the slots and never the parameters.
  for (const auto& p : shared) EXPECT_TRUE(p.grad().empty());
  acc.Reduce(1.0f / kShards);

  const std::vector<nn::Var> reference = TinyModel();
  nn::GradAccumulator ref_acc(reference);
  ref_acc.BeginBatch(kShards);
  for (int s = 0; s < kShards; ++s) {
    std::vector<nn::Var> replica;
    for (const auto& p : reference) {
      replica.push_back(nn::Var::Leaf(p.value(), /*requires_grad=*/true));
    }
    TinyShardLoss(replica, s).Backward();
    ref_acc.CaptureShard(s, replica);
  }
  ref_acc.Reduce(1.0f / kShards);

  for (size_t p = 0; p + 1 < shared.size(); ++p) {
    const nn::Tensor& got = shared[p].grad();
    const nn::Tensor& want = reference[p].grad();
    ASSERT_TRUE(want.SameShape(shared[p].value())) << "parameter " << p;
    ASSERT_TRUE(got.SameShape(want)) << "parameter " << p;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "parameter " << p << " element " << i;
    }
  }
  EXPECT_TRUE(shared.back().grad().empty());  // no shard uses it
}

// A shard backward that throws must take its redirect with it: the pool
// reuses the thread, and a stale redirect would swallow the gradients of
// that thread's next backward.
TEST(GradAccumulatorTest, ThrowingBackwardLeavesNoRedirectBehind) {
  auto p = nn::Var::Leaf(nn::Tensor::RowVector({2.0f}), true);
  nn::GradAccumulator acc({p});
  acc.BeginBatch(1);
  nn::Var poisoned =
      nn::MakeOp(nn::Tensor(1, 1), {p}, [](nn::internal::VarImpl*) {
        throw std::runtime_error("backward failed");
      });
  EXPECT_THROW(acc.Backward(0, poisoned), std::runtime_error);
  nn::Sum(nn::Scale(p, 3.0f)).Backward();
  ASSERT_FALSE(p.grad().empty());
  EXPECT_EQ(p.grad()[0], 3.0f);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: training must be bitwise identical for any
// thread count because shard structure and rng streams never depend on
// the thread count, and gradients reduce in fixed shard order.
// ---------------------------------------------------------------------------

class ParDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    auto data = std::make_shared<synth::CityDataset>(std::move(*ds));
    core::FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = core::BuildFeatureSpace(data, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const core::FeatureSpace>(
        std::make_shared<const core::FeatureSpace>(std::move(*fs)));
  }

  static core::WscConfig TinyWsc() {
    core::WscConfig cfg;
    cfg.encoder.d_hidden = 16;
    cfg.encoder.projection_dim = 8;
    cfg.anchors_per_batch = 6;
    return cfg;
  }

  static std::shared_ptr<const core::FeatureSpace>* features_;
};

std::shared_ptr<const core::FeatureSpace>* ParDeterminismTest::features_ =
    nullptr;

TEST_F(ParDeterminismTest, TrainEpochIsBitwiseIdenticalAcrossThreadCounts) {
  std::vector<int> idx(24);
  std::iota(idx.begin(), idx.end(), 0);

  auto train = [&](int threads) {
    SetDefaultThreads(threads);
    core::WscModel model(*features_, TinyWsc());
    auto loss = model.TrainEpoch(idx);
    EXPECT_TRUE(loss.ok()) << loss.status().ToString();
    std::vector<float> flat;
    for (const auto& p : model.encoder().Parameters()) {
      const auto& v = p.value();
      flat.insert(flat.end(), v.data(), v.data() + v.size());
    }
    return std::make_pair(*loss, flat);
  };

  const auto [loss1, params1] = train(1);
  const auto [loss4, params4] = train(4);
  SetDefaultThreads(ConfiguredThreads());  // restore for other tests

  EXPECT_EQ(loss1, loss4);  // exact, not approximate
  ASSERT_EQ(params1.size(), params4.size());
  for (size_t i = 0; i < params1.size(); ++i) {
    ASSERT_EQ(params1[i], params4[i]) << "parameter element " << i;
  }
}

// The supervised baselines train through the same shard backward: the
// PathRank encoder and head must come out bit for bit the same at 1 and 4
// threads.
TEST_F(ParDeterminismTest,
       SupervisedTrainIsBitwiseIdenticalAcrossThreadCounts) {
  std::vector<int> idx(40);
  std::iota(idx.begin(), idx.end(), 0);
  ASSERT_GE((*features_)->data->labeled.size(), idx.size());

  auto train = [&](int threads) {
    SetDefaultThreads(threads);
    baselines::SupervisedConfig cfg;
    cfg.encoder.d_hidden = 16;
    cfg.epochs = 2;
    baselines::PathRankModel model(*features_, idx, cfg);
    EXPECT_TRUE(model.Train().ok());
    std::vector<float> flat;
    for (const auto& p : model.StateParams()) {
      const auto& v = p.value();
      flat.insert(flat.end(), v.data(), v.data() + v.size());
    }
    return flat;
  };

  const auto params1 = train(1);
  const auto params4 = train(4);
  SetDefaultThreads(ConfiguredThreads());  // restore for other tests

  ASSERT_EQ(params1.size(), params4.size());
  for (size_t i = 0; i < params1.size(); ++i) {
    ASSERT_EQ(params1[i], params4[i]) << "parameter element " << i;
  }
}

}  // namespace
}  // namespace tpr::par
