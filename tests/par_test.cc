#include "par/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/supervised.h"
#include "core/wsc_trainer.h"
#include "core/wsccl.h"
#include "nn/autograd.h"
#include "nn/grad_accumulator.h"
#include "nn/optimizer.h"
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

// Nested loops fan out, and the pool still runs every index exactly
// once and terminates, also when the outer loop alone saturates it (64
// outer iterations on 4 threads, each enqueueing nested helpers).
TEST(ThreadPoolTest, NestedParallelForCoversEveryIndexWithoutDeadlock) {
  ThreadPool pool(4);
  for (const auto& shape : {std::pair{6, 5}, std::pair{64, 16}}) {
    const int outer = shape.first;
    const int inner = shape.second;
    SCOPED_TRACE(std::to_string(outer) + "x" + std::to_string(inner));
    std::vector<std::atomic<int>> hits(outer * inner);
    pool.ParallelFor(outer, [&](int i) {
      pool.ParallelFor(inner, [&](int j) { hits[i * inner + j].fetch_add(1); });
    });
    for (size_t k = 0; k < hits.size(); ++k) {
      EXPECT_EQ(hits[k].load(), 1) << "index " << k;
    }
  }
}

// An outer iteration on a pool worker (as every curriculum expert but
// the caller's is) must hand its nested loop to the idle workers. The
// loop runs inside a Submit task, so every outer iteration is on a
// worker and the caller thread takes no part. Each nested iteration
// waits, up to a shared deadline, until three distinct threads have run
// nested work; a pool that ran nested loops inline would run all of it
// on the one worker holding the task.
TEST(ThreadPoolTest, NestedParallelForFansOutToIdleWorkers) {
  ThreadPool pool(4);
  std::mutex m;
  std::condition_variable cv;
  std::set<std::thread::id> threads;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto task = pool.Submit([&] {
    pool.ParallelFor(2, [&](int) {
      pool.ParallelFor(8, [&](int) {
        std::unique_lock<std::mutex> lock(m);
        threads.insert(std::this_thread::get_id());
        cv.notify_all();
        cv.wait_until(lock, deadline, [&] { return threads.size() >= 3; });
      });
    });
  });
  task.get();
  EXPECT_GE(threads.size(), 3u);
}

// A nested exception reaches the top-level caller: the inner loop
// rethrows it on the outer iteration's thread, the outer loop on the
// caller. With a single throwing index the result is deterministic.
TEST(ThreadPoolTest, NestedParallelForExceptionReachesTheCaller) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    try {
      pool.ParallelFor(8, [&](int i) {
        pool.ParallelFor(16, [&](int j) {
          if (i == 5 && j == 11) throw std::runtime_error("5/11");
        });
      });
      FAIL() << "ParallelFor must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "5/11");
    }
    std::atomic<int> count{0};
    pool.ParallelFor(8, [&](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
  }
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

// Only parses TPR_THREADS; no pool is built from these values. A value
// that does not parse completely or is out of range keeps the hardware
// default, including one that differs from it on every host.
TEST(ThreadPoolTest, ConfiguredThreadsKeepsTheDefaultOnGarbage) {
  const char* env = std::getenv("TPR_THREADS");
  const bool was_set = env != nullptr;
  const std::string saved = was_set ? env : "";
  ::unsetenv("TPR_THREADS");
  const int dflt = ConfiguredThreads();
  ::setenv("TPR_THREADS", "3", 1);
  EXPECT_EQ(ConfiguredThreads(), 3);
  const std::string off_by_one = std::to_string(dflt + 1) + "x";
  for (const char* bad :
       {"4x", off_by_one.c_str(), "99999999999", "0", "-3", "abc"}) {
    ::setenv("TPR_THREADS", bad, 1);
    EXPECT_EQ(ConfiguredThreads(), dflt) << bad;
  }
  if (was_set) {
    ::setenv("TPR_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("TPR_THREADS");
  }
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

// Bit patterns, so +0.0 and -0.0 (and NaNs) compare exactly.
uint32_t FloatBits(float v) {
  uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void ExpectSameGradBits(const std::vector<nn::Var>& got,
                        const std::vector<nn::Var>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < got.size(); ++p) {
    const nn::Tensor& g = got[p].grad();
    const nn::Tensor& w = want[p].grad();
    ASSERT_EQ(g.empty(), w.empty()) << where << ": parameter " << p;
    ASSERT_TRUE(g.SameShape(w)) << where << ": parameter " << p;
    for (size_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(FloatBits(g[i]), FloatBits(w[i]))
          << where << ": parameter " << p << " element " << i;
    }
  }
}

// TinyModel plus a parameter larger than two ParamChunks, so Reduce runs
// its chunks on the pool.
std::vector<nn::Var> TinyModelWithBigParam() {
  std::vector<nn::Var> params = TinyModel();
  nn::Tensor big(40, 1000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = 0.001f * static_cast<float>(i % 997) - 0.4f;
  }
  params.push_back(nn::Var::Leaf(std::move(big), /*requires_grad=*/true));
  return params;
}

// Shard `shard`'s loss in a batch: TinyShardLoss plus the big parameter,
// plus p[6] (3x3) only when `use_p6` and the shard is even. TinyModel's
// p[6] is otherwise unused.
nn::Var SlotShardLoss(const std::vector<nn::Var>& p, int shard, bool use_p6) {
  std::vector<nn::Var> parts = {
      TinyShardLoss(p, shard),
      nn::Sum(nn::Scale(nn::Mul(p[7], p[7]), 0.5f + shard))};
  if (use_p6 && shard % 2 == 0) {
    parts.push_back(nn::Sum(nn::Mul(p[6], p[6])));
  }
  return nn::Sum(nn::ConcatCols(parts));
}

// Slots persist across batches and Reduce zeroes them in place. Over
// batches where a parameter is used and then unused, the shard count
// shrinks and grows, and one shard backward throws halfway through, every
// reduced gradient must equal that of a fresh accumulator for the batch.
TEST(GradAccumulatorTest, PersistentSlotsReduceLikeAFreshAccumulator) {
  SetDefaultThreads(4);
  ThreadPool pool(4);
  const std::vector<nn::Var> shared = TinyModelWithBigParam();
  const std::vector<nn::Var> reference = TinyModelWithBigParam();
  // Parameters no loss ever touches: they must keep an empty gradient.
  auto never = nn::Var::Leaf(nn::Tensor(2, 2, 1.0f), /*requires_grad=*/true);
  std::vector<nn::Var> shared_all = shared, reference_all = reference;
  shared_all.push_back(never);
  reference_all.push_back(
      nn::Var::Leaf(nn::Tensor(2, 2, 1.0f), /*requires_grad=*/true));
  nn::GradAccumulator acc(shared_all);

  auto reduce_batch = [&](int shards, bool use_p6, const std::string& where) {
    acc.BeginBatch(shards);
    pool.ParallelFor(shards, [&](int s) {
      acc.Backward(s, SlotShardLoss(shared, s, use_p6));
    });
    ASSERT_EQ(acc.captured(), shards);
    for (auto& p : shared_all) p.ZeroGrad();
    acc.Reduce(1.0f / shards);

    nn::GradAccumulator fresh(reference_all);
    fresh.BeginBatch(shards);
    for (int s = 0; s < shards; ++s) {
      fresh.Backward(s, SlotShardLoss(reference, s, use_p6));
    }
    for (auto& p : reference_all) p.ZeroGrad();
    fresh.Reduce(1.0f / shards);
    ExpectSameGradBits(shared_all, reference_all, where);
  };

  reduce_batch(4, /*use_p6=*/true, "batch 1");
  ASSERT_FALSE(shared[6].grad().empty());

  // Shard 1 throws after its real loss has written its slot: the
  // poisoned node is the concat's first parent, so it runs last.
  auto poisoned_shard = [&](int s) {
    nn::Var loss = SlotShardLoss(shared, s, /*use_p6=*/false);
    if (s == 1) {
      nn::Var poisoned = nn::MakeOp(
          nn::Tensor(1, 1), {shared[7]}, [](nn::internal::VarImpl*) {
            throw std::runtime_error("backward failed");
          });
      loss = nn::Sum(nn::ConcatCols({poisoned, loss}));
    }
    acc.Backward(s, loss);
  };
  acc.BeginBatch(3);
  EXPECT_THROW(pool.ParallelFor(3, poisoned_shard), std::runtime_error);

  reduce_batch(2, /*use_p6=*/false, "batch 3 (shrunk, p6 unused)");
  reduce_batch(4, /*use_p6=*/false, "batch 4 (grown back)");
  reduce_batch(3, /*use_p6=*/true, "batch 5 (p6 used again)");
  EXPECT_TRUE(never.grad().empty());
  SetDefaultThreads(ConfiguredThreads());  // restore for other tests
}

// Adam::Step runs in ParamChunks on the default pool. The update must
// keep its bits at any thread count, equal the serial per-element loop,
// and skip a parameter whose gradient is empty (value and moments
// untouched).
TEST(AdamChunkTest, StepIsBitwiseIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    SetDefaultThreads(threads);
    Rng rng(17);
    auto leaf = [&rng](int rows, int cols) {
      nn::Tensor t(rows, cols);
      for (size_t i = 0; i < t.size(); ++i) {
        t[i] = static_cast<float>(rng.Gaussian());
      }
      return nn::Var::Leaf(std::move(t), /*requires_grad=*/true);
    };
    // 37 x 1001 spans three chunks and ends in an odd tail.
    std::vector<nn::Var> params = {leaf(37, 1001), leaf(1, 5), leaf(3, 3)};
    nn::Adam adam(params, 1e-2f);
    for (int step = 0; step < 3; ++step) {
      for (size_t k = 0; k + 1 < params.size(); ++k) {
        nn::Tensor& g = params[k].impl()->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          g[i] = static_cast<float>(rng.Gaussian());
        }
      }
      adam.Step();
    }
    SetDefaultThreads(ConfiguredThreads());  // restore for other tests
    return std::make_pair(params, adam.ExportState());
  };
  const auto [p1, s1] = run(1);
  const auto [p4, s4] = run(4);

  // The serial reference: the per-element loop with the same draws.
  Rng rng(17);
  std::vector<nn::Tensor> w, m, v;
  const std::pair<int, int> shapes[] = {{37, 1001}, {1, 5}, {3, 3}};
  for (const auto& [rows, cols] : shapes) {
    nn::Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(rng.Gaussian());
    }
    m.emplace_back(rows, cols);
    v.emplace_back(rows, cols);
    w.push_back(std::move(t));
  }
  const nn::Tensor untouched = w[2];
  for (int t = 1; t <= 3; ++t) {
    const float bc1 = 1.0f - std::pow(0.9f, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(0.999f, static_cast<float>(t));
    for (size_t k = 0; k + 1 < w.size(); ++k) {
      for (size_t i = 0; i < w[k].size(); ++i) {
        const float g = static_cast<float>(rng.Gaussian());
        m[k][i] = 0.9f * m[k][i] + (1.0f - 0.9f) * g;
        v[k][i] = 0.999f * v[k][i] + (1.0f - 0.999f) * g * g;
        const float mhat = m[k][i] / bc1;
        const float vhat = v[k][i] / bc2;
        w[k][i] -= 1e-2f * mhat / (std::sqrt(vhat) + 1e-8f);
      }
    }
  }

  ASSERT_EQ(s1.t, 3);
  for (size_t k = 0; k < w.size(); ++k) {
    for (size_t i = 0; i < w[k].size(); ++i) {
      ASSERT_EQ(FloatBits(p1[k].value()[i]), FloatBits(p4[k].value()[i]))
          << "parameter " << k << " element " << i;
      ASSERT_EQ(FloatBits(p1[k].value()[i]), FloatBits(w[k][i]))
          << "parameter " << k << " element " << i;
      ASSERT_EQ(FloatBits(s1.m[k][i]), FloatBits(s4.m[k][i]));
      ASSERT_EQ(FloatBits(s1.v[k][i]), FloatBits(s4.v[k][i]));
      ASSERT_EQ(FloatBits(s1.m[k][i]), FloatBits(m[k][i]));
      ASSERT_EQ(FloatBits(s1.v[k][i]), FloatBits(v[k][i]));
    }
  }
  // The parameter without a gradient: value and moments untouched.
  for (size_t i = 0; i < untouched.size(); ++i) {
    EXPECT_EQ(FloatBits(p4[2].value()[i]), FloatBits(untouched[i]));
    EXPECT_EQ(s4.m[2][i], 0.0f);
    EXPECT_EQ(s4.v[2][i], 0.0f);
  }
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

// The whole pipeline with the learned curriculum: the experts, then the
// staged schedule. The experts train in one ParallelFor whose shard
// loops fan out to idle workers; at 4 threads, with 2 experts (workers
// to spare) and with 4 (none), the result must be the 1-thread one.
TEST_F(ParDeterminismTest, LearnedCurriculumTrainIsBitwiseIdentical) {
  auto train = [&](int threads, int num_meta_sets) {
    SetDefaultThreads(threads);
    core::WsccalConfig cfg;
    cfg.wsc = TinyWsc();
    cfg.curriculum.strategy = core::CurriculumStrategy::kLearned;
    cfg.curriculum.num_meta_sets = num_meta_sets;
    cfg.curriculum.expert_epochs = 1;
    cfg.stage_epochs = 1;
    cfg.final_epochs = 1;
    auto pipeline = core::WsccalPipeline::Train(*features_, cfg);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    std::vector<float> flat;
    if (!pipeline.ok()) return std::make_pair(0.0, flat);
    for (const auto& p : (*pipeline)->model().encoder().Parameters()) {
      const auto& v = p.value();
      flat.insert(flat.end(), v.data(), v.data() + v.size());
    }
    return std::make_pair((*pipeline)->final_loss(), flat);
  };

  for (const int num_meta_sets : {2, 4}) {
    SCOPED_TRACE(num_meta_sets);
    const auto [loss1, params1] = train(1, num_meta_sets);
    const auto [loss4, params4] = train(4, num_meta_sets);
    SetDefaultThreads(ConfiguredThreads());  // restore for other tests

    EXPECT_EQ(loss1, loss4);  // exact, not approximate
    ASSERT_FALSE(params1.empty());
    ASSERT_EQ(params1.size(), params4.size());
    for (size_t i = 0; i < params1.size(); ++i) {
      ASSERT_EQ(FloatBits(params1[i]), FloatBits(params4[i]))
          << "parameter element " << i;
    }
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
    for (const auto& p : model.Parameters()) {
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
