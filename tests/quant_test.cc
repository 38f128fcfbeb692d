#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/features.h"
#include "core/probe.h"
#include "kern/kern.h"
#include "nn/tensor.h"
#include "par/thread_pool.h"
#include "quant/quant.h"
#include "synth/presets.h"
#include "util/rng.h"

namespace tpr::quant {
namespace {

using core::FeatureSpace;
using core::TemporalPathEncoder;

class ScopedKernel {
 public:
  explicit ScopedKernel(kern::Kernel k) : previous_(kern::ActiveKernel()) {
    kern::SetKernel(k);
  }
  ~ScopedKernel() { kern::SetKernel(previous_); }

 private:
  kern::Kernel previous_;
};

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tpr_quant_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

nn::Tensor RandomTensor(int rows, int cols, uint64_t seed, float span) {
  nn::Tensor t(rows, cols);
  Rng rng(seed);
  float* d = t.data();
  for (size_t i = 0; i < t.size(); ++i) {
    d[i] = span * (2.0f * static_cast<float>(rng.Uniform()) - 1.0f);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Quantization numerics (satellite: property tests).
// ---------------------------------------------------------------------------

TEST(QuantizePerChannelTest, RoundtripErrorIsWithinHalfAScaleStep) {
  // Odd shapes on purpose: per-channel packing must not assume alignment.
  const int shapes[][2] = {{1, 1}, {3, 5}, {17, 7}, {48, 64}, {33, 129}};
  for (const auto& s : shapes) {
    const nn::Tensor w =
        RandomTensor(s[0], s[1], 1000u + static_cast<uint64_t>(s[0]), 2.0f);
    const QuantizedTensor q = QuantizePerChannel(w);
    ASSERT_EQ(q.rows, s[1]);  // output channels = fp32 columns
    ASSERT_EQ(q.cols, s[0]);
    ASSERT_EQ(q.scales.size(), static_cast<size_t>(s[1]));
    for (int c = 0; c < s[1]; ++c) {
      const float scale = q.scales[c];
      ASSERT_GT(scale, 0.0f);
      for (int r = 0; r < s[0]; ++r) {
        const int8_t qv = q.data[static_cast<size_t>(c) * s[0] + r];
        const float dequant = static_cast<float>(qv) * scale;
        const float err = std::abs(dequant - w.at(r, c));
        // The symmetric-rounding guarantee, with a whisper of fp slack.
        EXPECT_LE(err, 0.5f * scale + 1e-6f * scale)
            << "shape " << s[0] << "x" << s[1] << " at (" << r << "," << c
            << ")";
      }
    }
  }
}

TEST(QuantizePerChannelTest, ZeroChannelGetsUnitScaleAndZeroCodes) {
  nn::Tensor w(4, 2);
  w.at(0, 1) = 3.0f;  // channel 1 is live, channel 0 all-zero
  const QuantizedTensor q = QuantizePerChannel(w);
  EXPECT_EQ(q.scales[0], 1.0f);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(q.data[static_cast<size_t>(0) * 4 + r], 0);
  }
}

TEST(QuantizePerChannelTest, RoundsHalfwayCasesToEven) {
  // Channel max 127 -> scale exactly 1.0, so codes are round(w) under
  // round-to-nearest-even: 2.5 -> 2, 3.5 -> 4.
  nn::Tensor w = nn::Tensor::FromValues(4, 1, {127.0f, 2.5f, 3.5f, -2.5f});
  const QuantizedTensor q = QuantizePerChannel(w);
  ASSERT_EQ(q.scales[0], 1.0f);
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[1], 2);
  EXPECT_EQ(q.data[2], 4);
  EXPECT_EQ(q.data[3], -2);
}

TEST(QuantizeRowTest, SaturatesBeyondTheCalibratedRange) {
  const float x[4] = {0.5f, -0.5f, 10.0f, -10.0f};
  int8_t q[4];
  // inv_scale for a calibrated max_abs of 1.0: 127 / 1.0.
  kern::QuantizeRow(x, 127.0f, q, 4);
  EXPECT_EQ(q[0], 64);  // 63.5 rounds to even
  EXPECT_EQ(q[1], -64);
  EXPECT_EQ(q[2], 127);
  EXPECT_EQ(q[3], -127);
}

TEST(MinMaxObserverTest, MergeIsOrderIndependent) {
  const float a[3] = {0.5f, -2.0f, 1.0f};
  const float b[2] = {3.0f, -0.1f};
  MinMaxObserver ab, ba, oa, ob;
  oa.Observe(a, 3);
  ob.Observe(b, 2);
  ab = oa;
  ab.Merge(ob);
  ba = ob;
  ba.Merge(oa);
  EXPECT_EQ(ab.max_abs, ba.max_abs);
  EXPECT_EQ(ab.max_abs, 3.0f);
  EXPECT_EQ(ab.Scale(), 3.0f / 127.0f);
  EXPECT_EQ(MinMaxObserver{}.Scale(), 1.0f);
}

// ---------------------------------------------------------------------------
// Int8 GEMM: scalar and avx2 must agree BITWISE (exact integer math).
// ---------------------------------------------------------------------------

TEST(GemmInt8WideTest, MatchesNarrowGemmUnderEveryKernel) {
  // The pre-widened panel changes only how weights are stored, never the
  // exact int32 accumulation — wide must equal a naive int32 loop over
  // the narrow int8 panel bitwise under both kernels. Shapes straddle
  // the 16-lane k step, the 3-row x 4-channel, 2-row x 4-channel and
  // 1-row x 8-channel register blocks (each also with a k % 16 tail),
  // the channels past the last 8-channel block, and the 32-row L1 tile.
  const int shapes[][3] = {{1, 1, 1},    {1, 15, 3},   {2, 16, 4},
                           {3, 17, 5},   {5, 31, 7},   {7, 129, 9},
                           {6, 64, 64},  {33, 17, 5},  {40, 16, 8},
                           {65, 48, 12}, {1, 200, 33}, {5, 33, 16},
                           {2, 17, 8},   {8, 47, 24}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    Rng rng(static_cast<uint64_t>(m * 1000 + k * 10 + n));
    std::vector<int8_t> a(static_cast<size_t>(m) * k);
    std::vector<int8_t> bt(static_cast<size_t>(n) * k);
    for (auto& v : a) {
      v = static_cast<int8_t>(static_cast<int>(rng.Uniform() * 255.0) - 127);
    }
    for (auto& v : bt) {
      v = static_cast<int8_t>(static_cast<int>(rng.Uniform() * 255.0) - 127);
    }
    const std::vector<int16_t> btw(bt.begin(), bt.end());
    std::vector<int32_t> narrow_out(static_cast<size_t>(m) * n, 0);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        for (int kk = 0; kk < k; ++kk) {
          narrow_out[static_cast<size_t>(i) * n + j] +=
              static_cast<int32_t>(a[static_cast<size_t>(i) * k + kk]) *
              static_cast<int32_t>(bt[static_cast<size_t>(j) * k + kk]);
        }
      }
    }
    std::vector<kern::Kernel> kernels = {kern::Kernel::kScalar};
    if (kern::CpuSupportsAvx2()) kernels.push_back(kern::Kernel::kAvx2);
    for (kern::Kernel kk : kernels) {
      ScopedKernel pin(kk);
      std::vector<int32_t> wide_out(static_cast<size_t>(m) * n, -2);
      kern::GemmInt8Wide(a.data(), btw.data(), wide_out.data(), m, k, n);
      EXPECT_EQ(narrow_out, wide_out)
          << "m=" << m << " k=" << k << " n=" << n << " kernel="
          << static_cast<int>(kk);
    }
  }
}

TEST(GemmInt8WideTest, ZeroInnerDimensionZeroesTheOutput) {
  int32_t out[4] = {1, 2, 3, 4};
  kern::GemmInt8Wide(nullptr, nullptr, out, 2, 0, 2);
  for (int32_t v : out) EXPECT_EQ(v, 0);
}

TEST(QuantEpilogueTest, Avx2LegsMatchScalarBitwise) {
  // QuantizeRow / DequantBias / DequantAcc dispatch to avx2 lanes that
  // apply the identical per-element op sequence (round-to-nearest-even,
  // mul, add — no FMA), so the quantized forward must not change with
  // TPR_KERNEL. Sizes cover the 8-lane step and its tails. DequantAcc
  // accumulates into non-round values, so a tail that fused its multiply
  // and add (one rounding instead of two) would show.
  if (!kern::CpuSupportsAvx2()) {
    GTEST_SKIP() << "no avx2 on this CPU";
  }
  Rng rng(77);
  for (const int n : {1, 7, 8, 9, 12, 31, 64, 200}) {
    std::vector<float> x(n), b_scales(n), bias(n), y0(n);
    std::vector<int32_t> acc(n);
    for (int i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.Uniform() * 40.0 - 20.0);
      b_scales[i] = static_cast<float>(rng.Uniform() * 0.1 + 1e-3);
      bias[i] = static_cast<float>(rng.Uniform() - 0.5);
      acc[i] = static_cast<int32_t>(rng.Uniform() * 60000.0 - 30000.0);
      y0[i] = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    }
    // Values straddling the clamp and exact halfway codes.
    x[0] = 1000.0f;
    if (n > 1) x[1] = -1000.0f;
    if (n > 2) x[2] = 0.5f;

    std::vector<int8_t> q_scalar(n, 11), q_avx2(n, 22);
    std::vector<float> yb_scalar(n), yb_avx2(n);
    std::vector<float> ya_scalar = y0, ya_avx2 = y0;
    {
      ScopedKernel pin(kern::Kernel::kScalar);
      kern::QuantizeRow(x.data(), 8.0f, q_scalar.data(), n);
      kern::DequantBias(acc.data(), 0.03f, b_scales.data(), bias.data(),
                        yb_scalar.data(), 1, n);
      kern::DequantAcc(acc.data(), 0.03f, b_scales.data(), ya_scalar.data(),
                       1, n);
    }
    {
      ScopedKernel pin(kern::Kernel::kAvx2);
      kern::QuantizeRow(x.data(), 8.0f, q_avx2.data(), n);
      kern::DequantBias(acc.data(), 0.03f, b_scales.data(), bias.data(),
                        yb_avx2.data(), 1, n);
      kern::DequantAcc(acc.data(), 0.03f, b_scales.data(), ya_avx2.data(), 1,
                       n);
    }
    EXPECT_EQ(q_scalar, q_avx2) << "n=" << n;
    EXPECT_EQ(yb_scalar, yb_avx2) << "n=" << n;
    EXPECT_EQ(ya_scalar, ya_avx2) << "n=" << n;
  }
}

TEST(DequantTest, BiasAndAccumulateEpilogues) {
  const int32_t acc[4] = {254, -254, 127, 0};
  const float b_scales[2] = {0.5f, 2.0f};
  const float bias[2] = {1.0f, -1.0f};
  float y[4] = {0.0f, 0.0f, 10.0f, 10.0f};
  kern::DequantBias(acc, /*a_scale=*/0.01f, b_scales, bias, y, 2, 2);
  EXPECT_FLOAT_EQ(y[0], 254.0f * 0.005f + 1.0f);
  EXPECT_FLOAT_EQ(y[1], -254.0f * 0.02f - 1.0f);
  EXPECT_FLOAT_EQ(y[2], 127.0f * 0.005f + 1.0f);
  EXPECT_FLOAT_EQ(y[3], -1.0f);

  float z[2] = {1.0f, 1.0f};
  kern::DequantAcc(acc, 0.01f, b_scales, z, 1, 2);
  EXPECT_FLOAT_EQ(z[0], 1.0f + 254.0f * 0.005f);
  EXPECT_FLOAT_EQ(z[1], 1.0f - 254.0f * 0.02f);
}

// ---------------------------------------------------------------------------
// End-to-end on a tiny city.
// ---------------------------------------------------------------------------

class QuantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    data_ = new std::shared_ptr<synth::CityDataset>(
        std::make_shared<synth::CityDataset>(std::move(*ds)));
    core::FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = core::BuildFeatureSpace(*data_, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const FeatureSpace>(
        std::make_shared<const FeatureSpace>(std::move(*fs)));
  }

  static void TearDownTestSuite() {
    delete features_;
    features_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static core::EncoderConfig TinyEncoder() {
    core::EncoderConfig cfg;
    cfg.d_hidden = 16;
    cfg.projection_dim = 8;
    return cfg;
  }

  /// Calibration items over the first `n` unlabeled paths.
  static std::vector<core::PathTimeItem> Calibration(size_t n) {
    std::vector<core::PathTimeItem> items;
    items.reserve(n);
    for (size_t i = 0; i < n && i < (*data_)->unlabeled.size(); ++i) {
      items.push_back(
          {&(*data_)->unlabeled[i].path,
           (*data_)->unlabeled[i].depart_time_s});
    }
    return items;
  }

  static std::shared_ptr<const FeatureSpace> features() { return *features_; }

  static std::shared_ptr<synth::CityDataset>* data_;
  static std::shared_ptr<const FeatureSpace>* features_;
};

std::shared_ptr<synth::CityDataset>* QuantTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* QuantTest::features_ = nullptr;

TEST_F(QuantTest, QuantizeEncoderRejectsBadInputs) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  EXPECT_EQ(QuantizeEncoder(encoder, {}).status().code(),
            StatusCode::kInvalidArgument);

  core::EncoderConfig tf = TinyEncoder();
  tf.sequence_model = core::SequenceModel::kTransformer;
  TemporalPathEncoder transformer(features(), tf);
  EXPECT_EQ(QuantizeEncoder(transformer, Calibration(2)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QuantTest, CalibrationIsBitwiseDeterministic) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const auto calibration = Calibration(8);

  // Reference run: one thread, scalar kernels pinned.
  par::SetDefaultThreads(1);
  std::string reference;
  {
    ScopedKernel pin(kern::Kernel::kScalar);
    auto m = QuantizeEncoder(encoder, calibration);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    reference = EncodeQuantizedModel(*m);
  }

  // Same thread count, run-to-run.
  {
    ScopedKernel pin(kern::Kernel::kScalar);
    auto m = QuantizeEncoder(encoder, calibration);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(EncodeQuantizedModel(*m), reference) << "run-to-run diverged";
  }

  // Four calibration threads: the per-item observers merge by max, which
  // is order-independent, so the artifact bytes cannot move.
  par::SetDefaultThreads(4);
  {
    ScopedKernel pin(kern::Kernel::kScalar);
    auto m = QuantizeEncoder(encoder, calibration);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(EncodeQuantizedModel(*m), reference) << "thread count leaked in";
  }

  // Dispatched avx2: calibration pins the scalar kernel to each of its
  // tasks, so the kernel leg cannot leak in either.
  if (kern::CpuSupportsAvx2()) {
    ScopedKernel pin(kern::Kernel::kAvx2);
    auto m = QuantizeEncoder(encoder, calibration);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(EncodeQuantizedModel(*m), reference) << "TPR_KERNEL leaked in";
  }

  // Process kernel at avx2 while a second thread serves encodes: the
  // scalar pin stays on the calibrating threads, so neither side's
  // kernel leaks into the other.
  if (kern::CpuSupportsAvx2()) {
    ScopedKernel pin(kern::Kernel::kAvx2);
    const std::vector<std::vector<float>> avx2_rows =
        encoder.EncodeValueBatch(calibration);
    {
      ScopedKernel scalar(kern::Kernel::kScalar);
      ASSERT_NE(encoder.EncodeValueBatch(calibration), avx2_rows)
          << "the kernel legs must be distinguishable";
    }
    std::atomic<bool> calibrated{false};
    int encodes = 0, mismatches = 0;
    std::thread server([&] {
      do {
        if (encoder.EncodeValueBatch(calibration) != avx2_rows) ++mismatches;
        ++encodes;
      } while (!calibrated.load());
    });
    auto m = QuantizeEncoder(encoder, calibration);
    calibrated.store(true);
    server.join();
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(EncodeQuantizedModel(*m), reference)
        << "the concurrent avx2 encodes leaked in";
    EXPECT_GE(encodes, 1);
    EXPECT_EQ(mismatches, 0) << "the calibration pin leaked to another thread";
  }
  par::SetDefaultThreads(1);
}

TEST_F(QuantTest, BatchEncodeMatchesSingleEncodeBitwise) {
  // The batched forward runs the recurrent steps in lockstep across
  // items of different path lengths; every row must still be bitwise
  // the single encode, under either kernel leg and every aggregation.

  // Build items with deliberately mixed lengths by taking prefixes of
  // the calibration paths (a prefix of a valid path is a valid path),
  // so the lockstep active-row dropout is exercised: short items finish
  // and drop out of the per-step GEMM while long ones keep going.
  const auto base = Calibration(6);
  std::vector<graph::Path> paths;
  paths.reserve(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    const graph::Path& full = *base[i].path;
    const size_t len = std::max<size_t>(1, full.size() - i % full.size());
    paths.emplace_back(full.begin(), full.begin() + len);
  }
  std::vector<core::PathTimeItem> items;
  for (size_t i = 0; i < base.size(); ++i) {
    items.push_back({&paths[i], base[i].depart_time_s});
  }
  size_t min_len = items[0].path->size(), max_len = min_len;
  for (const auto& item : items) {
    min_len = std::min(min_len, item.path->size());
    max_len = std::max(max_len, item.path->size());
  }
  ASSERT_LT(min_len, max_len);

  std::vector<kern::Kernel> kernels = {kern::Kernel::kScalar};
  if (kern::CpuSupportsAvx2()) kernels.push_back(kern::Kernel::kAvx2);
  for (core::Aggregation agg :
       {core::Aggregation::kMean, core::Aggregation::kMax,
        core::Aggregation::kLast}) {
    core::EncoderConfig cfg = TinyEncoder();
    cfg.aggregation = agg;
    TemporalPathEncoder encoder(features(), cfg);
    auto model = QuantizeEncoder(encoder, Calibration(8));
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    QuantizedEncoder qe(features(), *std::move(model));
    for (kern::Kernel kk : kernels) {
      ScopedKernel pin(kk);
      const auto batch = qe.EncodeValueBatch(items);
      ASSERT_EQ(batch.size(), items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(batch[i],
                  qe.EncodeValue(*items[i].path, items[i].depart_time_s))
            << "batch row " << i << " diverged from single encode under kernel "
            << static_cast<int>(kk) << " aggregation " << static_cast<int>(agg);
      }
    }
  }
}

TEST_F(QuantTest, QuantizedProbeMaeStaysNearFullPrecision) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const core::ProbeSet probe = core::BuildProbeSet(**data_, 32, 11);
  ASSERT_FALSE(probe.queries.empty());

  auto fp32_mae = core::ProbeTravelTimeMae(encoder, probe);
  ASSERT_TRUE(fp32_mae.ok()) << fp32_mae.status().ToString();

  std::vector<core::PathTimeItem> calibration;
  for (const auto& q : probe.queries) {
    calibration.push_back({&q.path, q.depart_time_s});
  }
  auto model = QuantizeEncoder(encoder, calibration);
  ASSERT_TRUE(model.ok());
  QuantizedEncoder qe(features(), *std::move(model));
  ASSERT_EQ(qe.representation_dim(), encoder.representation_dim());

  auto quant_mae = core::ProbeTravelTimeMaeWith(
      [&qe](const std::vector<core::PathTimeItem>& items) {
        return qe.EncodeValueBatch(items);
      },
      qe.representation_dim(), probe);
  ASSERT_TRUE(quant_mae.ok()) << quant_mae.status().ToString();
  EXPECT_GT(*quant_mae, 0.0);
  // The rollout gate's default delta budget.
  EXPECT_LE(*quant_mae, *fp32_mae * 1.25)
      << "quantized twin would fail the default rollout gate";
}

TEST_F(QuantTest, ArtifactRoundtripsAndRejectsCorruption) {
  const std::string dir = ScratchDir("artifact");
  core::EncoderConfig cfg = TinyEncoder();
  cfg.d_hidden = 32;
  TemporalPathEncoder encoder(features(), cfg);
  auto model = QuantizeEncoder(encoder, Calibration(4));
  ASSERT_TRUE(model.ok());
  model->generation = 7;

  EXPECT_EQ(LoadQuantizedModel(dir, 7).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(SaveQuantizedModel(dir, *model, 7).ok());

  auto loaded = LoadQuantizedModel(dir, 7);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 7u);
  EXPECT_EQ(EncodeQuantizedModel(*loaded), EncodeQuantizedModel(*model));

  // Well-formed payloads the forward would misread are refused too: a
  // layer-1 input panel narrower than d_hidden (read out of bounds) and
  // an unknown aggregation (silently a zero embedding).
  QuantizedModel narrow = *model;
  ASSERT_GE(narrow.layers.size(), 2u);
  QuantizedTensor& w = narrow.layers[1].w_ih;
  w.cols = cfg.d_hidden - 1;
  w.data.resize(static_cast<size_t>(w.rows) * w.cols);
  EXPECT_EQ(DecodeQuantizedModel(EncodeQuantizedModel(narrow)).status().code(),
            StatusCode::kDataLoss);
  QuantizedModel unknown_aggregation = *model;
  unknown_aggregation.aggregation = 7;
  EXPECT_EQ(DecodeQuantizedModel(EncodeQuantizedModel(unknown_aggregation))
                .status()
                .code(),
            StatusCode::kDataLoss);

  // The decoded twin serves the same bytes as the in-memory one.
  QuantizedEncoder a(features(), *model);
  QuantizedEncoder b(features(), *std::move(loaded));
  const auto& item = (*data_)->unlabeled[0];
  EXPECT_EQ(a.EncodeValue(item.path, item.depart_time_s),
            b.EncodeValue(item.path, item.depart_time_s));

  // One flipped byte anywhere in the envelope kills the load.
  const std::string path = QuantArtifactPath(dir, 7);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(LoadQuantizedModel(dir, 7).ok());

  RemoveQuantArtifact(dir, 7);
  EXPECT_EQ(LoadQuantizedModel(dir, 7).status().code(), StatusCode::kNotFound);
  RemoveQuantArtifact(dir, 7);  // idempotent on a missing file
}

TEST_F(QuantTest, ArtifactIsRoughlyFourTimesSmallerThanFp32) {
  // Large enough that the LSTM weights dominate the fixed fp32 overhead
  // (embedding tables, scales, biases).
  core::EncoderConfig cfg = TinyEncoder();
  cfg.d_hidden = 64;
  cfg.projection_dim = 16;
  TemporalPathEncoder encoder(features(), cfg);
  auto model = QuantizeEncoder(encoder, Calibration(4));
  ASSERT_TRUE(model.ok());

  size_t fp32_bytes = 0;
  for (nn::Var p : encoder.Parameters()) {
    if (p.defined()) fp32_bytes += p.value().size() * sizeof(float);
  }
  const size_t quant_bytes = EncodeQuantizedModel(*model).size();
  EXPECT_GE(static_cast<double>(fp32_bytes) /
                static_cast<double>(quant_bytes),
            3.0)
      << "fp32 " << fp32_bytes << "B vs quant " << quant_bytes << "B";
  // Layer 0: w_ih 48x256 + w_hh 64x256; layer 1: w_ih 64x256 + w_hh
  // 64x256 — one int8 byte per weight.
  EXPECT_EQ(model->WeightBytes(),
            static_cast<size_t>(48 + 64 + 64 + 64) * 4 * 64)
      << "unexpected int8 payload for 2 LSTM layers";
}

TEST_F(QuantTest, QuantEnabledFromEnvHonoursTheKnob) {
  const char* saved = std::getenv("TPR_QUANT");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("TPR_QUANT");
  EXPECT_TRUE(QuantEnabledFromEnv());
  ::setenv("TPR_QUANT", "1", 1);
  EXPECT_TRUE(QuantEnabledFromEnv());
  ::setenv("TPR_QUANT", "0", 1);
  EXPECT_FALSE(QuantEnabledFromEnv());
  ::setenv("TPR_QUANT", "off", 1);
  EXPECT_FALSE(QuantEnabledFromEnv());

  if (saved != nullptr) {
    ::setenv("TPR_QUANT", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TPR_QUANT");
  }
}

}  // namespace
}  // namespace tpr::quant
