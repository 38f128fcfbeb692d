#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "core/wsccl.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "nn/modules.h"
#include "nn/optimizer.h"
#include "par/thread_pool.h"
#include "synth/presets.h"

namespace tpr::ckpt {
namespace {

using core::CurriculumStrategy;
using core::FeatureSpace;
using core::WsccalConfig;
using core::WsccalPipeline;
using core::WscModel;

// Fresh, empty scratch directory under the test temp root.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tpr_ckpt_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// ---------------------------------------------------------------------------
// Serialization primitives.
// ---------------------------------------------------------------------------

TEST(Serialize, PrimitivesRoundTrip) {
  Writer w;
  w.U8(7);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1234567890123ll);
  w.F32(3.25f);
  w.F64(-2.5);
  w.Str("checkpoint");
  w.Str("");

  Reader r(w.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  float f32;
  double f64;
  std::string s1, s2;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.I32(&i32).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.F32(&f32).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Str(&s1).ok());
  ASSERT_TRUE(r.Str(&s2).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123ll);
  EXPECT_EQ(f32, 3.25f);
  EXPECT_EQ(f64, -2.5);
  EXPECT_EQ(s1, "checkpoint");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(r.AtEnd());
  // Reading past the end is an error, not UB.
  EXPECT_FALSE(r.U8(&u8).ok());
}

TEST(Serialize, ReaderRejectsTruncation) {
  Writer w;
  w.Str("some payload string");
  const std::string bytes = w.TakeBytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    Reader r(std::string_view(bytes).substr(0, len));
    std::string s;
    EXPECT_FALSE(r.Str(&s).ok()) << "truncated at " << len;
  }
}

TEST(Serialize, TensorRoundTrip) {
  nn::Tensor t(3, 4);
  for (size_t i = 0; i < t.size(); ++i) t[i] = 0.5f * static_cast<float>(i);
  Writer w;
  WriteTensor(w, t);
  Reader r(w.bytes());
  nn::Tensor out;
  ASSERT_TRUE(ReadTensor(r, &out).ok());
  ASSERT_TRUE(out.SameShape(t));
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(out[i], t[i]);
}

TEST(Serialize, TensorRejectsCorruptShape) {
  Writer w;
  w.I32(-1);  // rows
  w.I32(4);   // cols
  Reader r(w.bytes());
  nn::Tensor out;
  EXPECT_FALSE(ReadTensor(r, &out).ok());

  Writer big;
  big.I32(1 << 20);
  big.I32(1 << 20);  // 2^40 elements: absurd, must be refused pre-alloc
  Reader rb(big.bytes());
  EXPECT_FALSE(ReadTensor(rb, &out).ok());
}

TEST(Serialize, TensorListRoundTrip) {
  std::vector<nn::Tensor> list = {nn::Tensor(2, 2, 1.5f), nn::Tensor(),
                                  nn::Tensor(1, 3, -0.25f)};
  Writer w;
  WriteTensorList(w, list);
  Reader r(w.bytes());
  std::vector<nn::Tensor> out;
  ASSERT_TRUE(ReadTensorList(r, &out).ok());
  ASSERT_EQ(out.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    ASSERT_TRUE(out[i].SameShape(list[i]));
    for (size_t k = 0; k < list[i].size(); ++k) {
      EXPECT_EQ(out[i][k], list[i][k]);
    }
  }
}

TEST(Serialize, RngRoundTripReproducesDraws) {
  Rng rng(12345);
  for (int i = 0; i < 17; ++i) rng.NextU64();  // advance past the seed
  Writer w;
  WriteRng(w, rng);
  Reader r(w.bytes());
  Rng restored(999);  // different seed, fully overwritten by ReadRng
  ASSERT_TRUE(ReadRng(r, &restored).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored.NextU64(), rng.NextU64()) << "draw " << i;
  }
}

TEST(Serialize, AdamStateRoundTrip) {
  Rng rng(3);
  nn::Linear lin(4, 3, rng);
  nn::Adam adam(lin.Parameters(), 1e-2f);
  // Take a step so the moments are non-trivial.
  nn::Var x = nn::Var::Leaf(nn::Tensor(1, 4, 0.5f));
  nn::Var loss = nn::Sum(lin.Forward(x));
  adam.ZeroGrad();
  loss.Backward();
  adam.Step();

  Writer w;
  WriteAdamState(w, adam);

  nn::Linear lin2(4, 3, rng);
  nn::Adam adam2(lin2.Parameters(), 1e-2f);
  Reader r(w.bytes());
  ASSERT_TRUE(ReadAdamStateInto(r, &adam2).ok());

  const nn::AdamState a = adam.ExportState();
  const nn::AdamState b = adam2.ExportState();
  ASSERT_EQ(a.t, b.t);
  ASSERT_EQ(a.m.size(), b.m.size());
  for (size_t i = 0; i < a.m.size(); ++i) {
    for (size_t k = 0; k < a.m[i].size(); ++k) {
      EXPECT_EQ(a.m[i][k], b.m[i][k]);
      EXPECT_EQ(a.v[i][k], b.v[i][k]);
    }
  }
}

TEST(Serialize, AdamImportRejectsShapeMismatch) {
  Rng rng(3);
  nn::Linear lin(4, 3, rng);
  nn::Adam adam(lin.Parameters(), 1e-2f);
  Writer w;
  WriteAdamState(w, adam);

  nn::Linear other(5, 3, rng);  // different architecture
  nn::Adam adam2(other.Parameters(), 1e-2f);
  Reader r(w.bytes());
  EXPECT_FALSE(ReadAdamStateInto(r, &adam2).ok());
}

// ---------------------------------------------------------------------------
// The envelope's CRC-32.
// ---------------------------------------------------------------------------

// The reflected IEEE CRC-32, one byte at a time: the definition the
// slicing-by-8 implementation must reproduce.
uint32_t BytewiseCrc32(const unsigned char* p, size_t n) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, ChainedUpdatesEqualOneShotAtEverySplit) {
  Rng rng(2024);
  for (size_t n = 0; n <= 64; ++n) {
    std::vector<unsigned char> buf(n);
    for (auto& b : buf) b = static_cast<unsigned char>(rng.UniformInt(0, 255));
    const uint32_t whole = Crc32(buf.data(), n);
    EXPECT_EQ(whole, BytewiseCrc32(buf.data(), n)) << "n=" << n;
    for (size_t split = 0; split <= n; ++split) {
      const uint32_t head = Crc32Update(0, buf.data(), split);
      EXPECT_EQ(Crc32Update(head, buf.data() + split, n - split), whole)
          << "n=" << n << " split=" << split;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnLargeBuffers) {
  Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    // 1 MiB plus an odd tail, so the 8-byte loop and the bytewise tail
    // both run.
    std::vector<unsigned char> buf((1u << 20) + 3 * trial);
    for (auto& b : buf) b = static_cast<unsigned char>(rng.UniformInt(0, 255));
    EXPECT_EQ(Crc32(buf.data(), buf.size()),
              BytewiseCrc32(buf.data(), buf.size()))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Envelope integrity: every flipped byte and every truncation length of a
// wrapped checkpoint must be detected.
// ---------------------------------------------------------------------------

TEST(Envelope, RoundTrip) {
  const std::string payload = "hello checkpoint payload";
  const std::string bytes = WrapPayload(payload);
  EXPECT_EQ(bytes.size(), payload.size() + kHeaderBytes + kFooterBytes);
  auto out = UnwrapPayload(bytes);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, payload);
}

TEST(Envelope, EveryByteFlipIsDetected) {
  const std::string bytes = WrapPayload("corruption sweep payload");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    EXPECT_FALSE(UnwrapPayload(corrupt).ok()) << "flip at byte " << i;
  }
}

TEST(Envelope, EveryTruncationIsDetected) {
  const std::string bytes = WrapPayload("truncation sweep payload");
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(UnwrapPayload(std::string_view(bytes).substr(0, len)).ok())
        << "truncated to " << len;
  }
  // Trailing garbage (e.g. two writes into one file) is also refused.
  EXPECT_FALSE(UnwrapPayload(bytes + "x").ok());
}

// ---------------------------------------------------------------------------
// Atomic write fault injection: kill the writer at every byte offset and
// assert the previous file always survives intact.
// ---------------------------------------------------------------------------

TEST(AtomicWrite, SurvivesKillAtEveryByteOffset) {
  const std::string dir = ScratchDir("atomic_sweep");
  const std::string path = dir + "/state.tpr";
  const std::string old_bytes = WrapPayload("generation A");
  ASSERT_TRUE(AtomicWriteFile(path, old_bytes).ok());

  const std::string new_bytes = WrapPayload("generation B -- longer payload");
  // k < size: torn temp write. k == size: complete temp write, killed
  // before the rename makes it visible.
  for (size_t k = 0; k <= new_bytes.size(); ++k) {
    SetWriteFaultInjector([k](size_t) { return k; });
    EXPECT_FALSE(AtomicWriteFile(path, new_bytes).ok()) << "kill at " << k;
    SetWriteFaultInjector(nullptr);
    auto survived = ReadFileBytes(path);
    ASSERT_TRUE(survived.ok());
    auto payload = UnwrapPayload(*survived);
    ASSERT_TRUE(payload.ok()) << "kill at " << k << " corrupted the file";
    EXPECT_EQ(*payload, "generation A") << "kill at " << k;
  }

  // Without a fault the new generation replaces the old atomically.
  ASSERT_TRUE(AtomicWriteFile(path, new_bytes).ok());
  auto out = UnwrapPayload(*ReadFileBytes(path));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "generation B -- longer payload");
}

TEST(CheckpointDirTest, FaultDuringSaveFallsBackToPreviousGeneration) {
  const std::string dir = ScratchDir("dir_fault");
  CheckpointDir cd(dir);
  ASSERT_TRUE(cd.Save(1, "epoch one state").ok());

  const std::string payload2 = "epoch two state";
  const size_t envelope = payload2.size() + kHeaderBytes + kFooterBytes;
  for (size_t k = 0; k <= envelope; ++k) {
    SetWriteFaultInjector([k](size_t) { return k; });
    EXPECT_FALSE(cd.Save(2, payload2).ok());
    SetWriteFaultInjector(nullptr);
    auto loaded = cd.LoadLatest();
    ASSERT_TRUE(loaded.ok()) << "kill at " << k;
    EXPECT_EQ(loaded->seq, 1u);
    EXPECT_EQ(loaded->payload, "epoch one state");
  }

  ASSERT_TRUE(cd.Save(2, payload2).ok());
  auto loaded = cd.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 2u);
  EXPECT_EQ(loaded->payload, payload2);
}

TEST(CheckpointDirTest, SkipsCorruptNewestGeneration) {
  const std::string dir = ScratchDir("dir_corrupt");
  CheckpointDir cd(dir);
  ASSERT_TRUE(cd.Save(1, "good state").ok());
  // A later generation that bypassed the atomic protocol (e.g. a partial
  // copy): visible but corrupt.
  std::FILE* f = std::fopen(cd.PathFor(2).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint", f);
  std::fclose(f);

  auto loaded = cd.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 1u);
  EXPECT_EQ(loaded->payload, "good state");
}

TEST(CheckpointDirTest, LoadLatestQuarantinesCorruptGenerations) {
  obs::SetMetricsEnabled(true);
  obs::ResetAllMetrics();
  const std::string dir = ScratchDir("dir_quarantine");
  CheckpointDir cd(dir);
  ASSERT_TRUE(cd.Save(1, "good state").ok());
  std::FILE* f = std::fopen(cd.PathFor(2).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  ASSERT_EQ(cd.ListSeqs(), (std::vector<uint64_t>{1, 2}));

  // The corrupt newest generation is MOVED to quarantine/, not merely
  // skipped: the next load must not re-read it.
  auto loaded = cd.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 1u);
  EXPECT_EQ(obs::GetCounter("ckpt.load_fallbacks").value(), 1u);
  EXPECT_EQ(obs::GetCounter("ckpt.quarantined").value(), 1u);
  EXPECT_FALSE(std::filesystem::exists(cd.PathFor(2)));
  EXPECT_TRUE(std::filesystem::exists(
      dir + "/quarantine/" +
      std::filesystem::path(cd.PathFor(2)).filename().string()));
  EXPECT_EQ(cd.ListSeqs(), (std::vector<uint64_t>{1}))
      << "quarantined files must never be offered again";

  auto again = cd.LoadLatest();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(obs::GetCounter("ckpt.load_fallbacks").value(), 1u)
      << "second load re-scanned the quarantined file";

  // Read errors are transient and must NOT quarantine: the file stays.
  auto plan = fault::FaultPlan::Parse("ckpt-read:after=0");
  ASSERT_TRUE(plan.ok());
  fault::InstallPlan(*std::move(plan));
  EXPECT_EQ(cd.LoadLatest().status().code(), StatusCode::kNotFound);
  fault::ClearPlan();
  EXPECT_TRUE(std::filesystem::exists(cd.PathFor(1)));
  EXPECT_TRUE(cd.LoadLatest().ok());

  // Quarantining a missing sequence is an error, not a crash.
  EXPECT_FALSE(cd.Quarantine(99).ok());
  obs::SetMetricsEnabled(false);
}

TEST(CheckpointDirTest, NoValidCheckpointIsNotFound) {
  const std::string dir = ScratchDir("dir_empty");
  CheckpointDir cd(dir);
  EXPECT_EQ(cd.LoadLatest().status().code(), StatusCode::kNotFound);

  std::FILE* f = std::fopen(cd.PathFor(7).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_EQ(cd.LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST(CheckpointDirTest, RotationKeepsTwoGenerations) {
  const std::string dir = ScratchDir("dir_rotate");
  CheckpointDir cd(dir);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(cd.Save(seq, "state " + std::to_string(seq)).ok());
  }
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_FALSE(std::filesystem::exists(cd.PathFor(seq))) << seq;
  }
  EXPECT_TRUE(std::filesystem::exists(cd.PathFor(4)));
  EXPECT_TRUE(std::filesystem::exists(cd.PathFor(5)));
  auto loaded = cd.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 5u);
}

TEST(CheckpointDirTest, RetentionPinExemptsTheLiveGenerationFromPruning) {
  const std::string dir = ScratchDir("dir_pin");
  CheckpointDir cd(dir);
  ASSERT_TRUE(cd.Save(1, "live generation").ok());
  ASSERT_TRUE(cd.Pin(1).ok());
  EXPECT_EQ(cd.PinnedSeq().value_or(0), 1u);

  // keep=2 would normally prune everything older than 4 and 5 — the
  // pinned live generation must survive every rotation.
  for (uint64_t seq = 2; seq <= 5; ++seq) {
    ASSERT_TRUE(cd.Save(seq, "state " + std::to_string(seq)).ok());
  }
  EXPECT_EQ(cd.ListSeqs(), (std::vector<uint64_t>{1, 4, 5}));

  // The pin is a durable on-disk marker: a fresh CheckpointDir instance
  // on the same directory honours it (publisher and rollout controller
  // need not share an object).
  CheckpointDir other(dir);
  EXPECT_EQ(other.PinnedSeq().value_or(0), 1u);
  ASSERT_TRUE(other.Save(6, "state 6").ok());
  EXPECT_EQ(cd.ListSeqs(), (std::vector<uint64_t>{1, 5, 6}));

  // Re-pinning replaces the previous pin: one pin per directory.
  ASSERT_TRUE(cd.Pin(6).ok());
  EXPECT_EQ(cd.PinnedSeq().value_or(0), 6u);
  ASSERT_TRUE(cd.Save(7, "state 7").ok());
  ASSERT_TRUE(cd.Save(8, "state 8").ok());
  EXPECT_EQ(cd.ListSeqs(), (std::vector<uint64_t>{6, 7, 8}))
      << "generation 1 loses protection when the pin moves";

  // Unpin restores plain keep-last-K behaviour.
  ASSERT_TRUE(cd.Unpin().ok());
  EXPECT_FALSE(cd.PinnedSeq().has_value());
  ASSERT_TRUE(cd.Save(9, "state 9").ok());
  EXPECT_EQ(cd.ListSeqs(), (std::vector<uint64_t>{8, 9}));
  EXPECT_TRUE(cd.Unpin().ok()) << "unpinning twice is a no-op";
}

TEST(CheckpointDirTest, CorruptPinMarkerReadsAsNoPin) {
  obs::SetMetricsEnabled(true);
  obs::ResetAllMetrics();
  const std::string dir = ScratchDir("dir_pin_corrupt");
  CheckpointDir cd(dir);
  ASSERT_TRUE(cd.Save(1, "state 1").ok());
  ASSERT_TRUE(cd.Pin(1).ok());

  // Torn/bit-flipped marker (bypassed the atomic protocol).
  std::FILE* f = std::fopen((dir + "/PINNED").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("torn pin marker", f);
  std::fclose(f);
  EXPECT_FALSE(cd.PinnedSeq().has_value());
  EXPECT_GE(obs::GetCounter("ckpt.pin_invalid").value(), 1u);

  // A corrupt pin fails open: rotation proceeds as if unpinned — the
  // retention policy must never wedge on a bad marker.
  for (uint64_t seq = 2; seq <= 4; ++seq) {
    ASSERT_TRUE(cd.Save(seq, "state " + std::to_string(seq)).ok());
  }
  EXPECT_EQ(cd.ListSeqs(), (std::vector<uint64_t>{3, 4}));
  obs::SetMetricsEnabled(false);
}

// ---------------------------------------------------------------------------
// Model state round trips on a tiny city.
// ---------------------------------------------------------------------------

class CkptModelTest : public ::testing::Test {
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

  // Freed so the suite is LeakSanitizer-clean (CI runs it under ASan).
  static void TearDownTestSuite() {
    delete features_;
    features_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static core::WscConfig TinyWsc() {
    core::WscConfig cfg;
    cfg.encoder.d_hidden = 16;
    cfg.encoder.projection_dim = 8;
    cfg.anchors_per_batch = 6;
    return cfg;
  }

  static WsccalConfig TinyWsccal(CurriculumStrategy strategy) {
    WsccalConfig cfg;
    cfg.wsc = TinyWsc();
    cfg.curriculum.strategy = strategy;
    cfg.curriculum.num_meta_sets = 2;
    cfg.curriculum.expert_epochs = 1;
    cfg.stage_epochs = 1;
    cfg.final_epochs = 2;
    return cfg;
  }

  static std::vector<int> AllUnlabeled() {
    std::vector<int> all((*data_)->unlabeled.size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  const synth::CityDataset& data() { return **data_; }
  std::shared_ptr<const FeatureSpace> features() { return *features_; }

  static std::shared_ptr<synth::CityDataset>* data_;
  static std::shared_ptr<const FeatureSpace>* features_;
};

std::shared_ptr<synth::CityDataset>* CkptModelTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* CkptModelTest::features_ = nullptr;

TEST_F(CkptModelTest, WscModelStateRoundTripIsBitExact) {
  par::SetDefaultThreads(1);
  const auto indices = AllUnlabeled();
  WscModel a(features(), TinyWsc());
  ASSERT_TRUE(a.TrainEpoch(indices).ok());
  Writer w;
  ASSERT_TRUE(a.SaveState(w).ok());

  WscModel b(features(), TinyWsc());
  Reader r(w.bytes());
  ASSERT_TRUE(b.LoadState(r).ok());
  EXPECT_TRUE(r.AtEnd());

  for (int i = 0; i < 3; ++i) {
    const auto& sample = data().unlabeled[i];
    EXPECT_EQ(a.Encode(sample.path, sample.depart_time_s),
              b.Encode(sample.path, sample.depart_time_s));
  }
  // The restored model continues training exactly as the original.
  auto loss_a = a.TrainEpoch(indices);
  auto loss_b = b.TrainEpoch(indices);
  ASSERT_TRUE(loss_a.ok() && loss_b.ok());
  EXPECT_EQ(Bits(*loss_a), Bits(*loss_b));
}

TEST_F(CkptModelTest, WscModelLoadRejectsDifferentArchitecture) {
  WscModel a(features(), TinyWsc());
  Writer w;
  ASSERT_TRUE(a.SaveState(w).ok());

  core::WscConfig other = TinyWsc();
  other.encoder.d_hidden = 8;
  WscModel b(features(), other);
  Reader r(w.bytes());
  EXPECT_EQ(b.LoadState(r).code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Resumable curriculum training: a killed-and-resumed run must reproduce
// the uninterrupted run bit for bit, at any thread count.
// ---------------------------------------------------------------------------

class CkptResumeTest : public CkptModelTest {
 protected:
  void RunKillResumeTest(int threads, CurriculumStrategy strategy,
                         const std::string& dir_name) {
    par::SetDefaultThreads(threads);
    const WsccalConfig cfg = TinyWsccal(strategy);

    auto straight = WsccalPipeline::Train(features(), cfg);
    ASSERT_TRUE(straight.ok()) << straight.status().ToString();
    ASSERT_TRUE((*straight)->completed());

    const std::string dir = ScratchDir(dir_name);
    WsccalConfig killed = cfg;
    killed.ckpt_dir = dir;
    killed.checkpoint_every_n_epochs = 1;
    killed.stop_after_epochs = 2;
    auto partial = WsccalPipeline::Train(features(), killed);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    EXPECT_FALSE((*partial)->completed());
    EXPECT_EQ((*partial)->epochs_completed(), 2u);

    WsccalConfig resume = cfg;
    resume.ckpt_dir = dir;
    auto resumed = WsccalPipeline::Train(features(), resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE((*resumed)->completed());

    EXPECT_EQ(Bits((*straight)->final_loss()), Bits((*resumed)->final_loss()))
        << "straight " << (*straight)->final_loss() << " vs resumed "
        << (*resumed)->final_loss();
    EXPECT_EQ((*straight)->epochs_completed(), (*resumed)->epochs_completed());
    for (int i = 0; i < 3; ++i) {
      const auto& sample = data().unlabeled[i];
      EXPECT_EQ((*straight)->Encode(sample), (*resumed)->Encode(sample));
    }
  }
};

TEST_F(CkptResumeTest, ResumeEqualsStraightThroughSingleThread) {
  RunKillResumeTest(1, CurriculumStrategy::kHeuristic, "resume_t1");
}

TEST_F(CkptResumeTest, ResumeEqualsStraightThroughFourThreads) {
  RunKillResumeTest(4, CurriculumStrategy::kHeuristic, "resume_t4");
}

TEST_F(CkptResumeTest, ResumeEqualsStraightThroughLearnedCurriculum) {
  RunKillResumeTest(1, CurriculumStrategy::kLearned, "resume_learned");
}

TEST_F(CkptResumeTest, ResumeFromOlderGenerationAfterCorruption) {
  par::SetDefaultThreads(1);
  const WsccalConfig cfg = TinyWsccal(CurriculumStrategy::kHeuristic);

  auto straight = WsccalPipeline::Train(features(), cfg);
  ASSERT_TRUE(straight.ok()) << straight.status().ToString();

  const std::string dir = ScratchDir("resume_corrupt");
  WsccalConfig killed = cfg;
  killed.ckpt_dir = dir;
  killed.stop_after_epochs = 2;
  auto partial = WsccalPipeline::Train(features(), killed);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  // Truncate the newest checkpoint, as a torn copy would. The resume
  // must fall back to the previous generation, replay the lost epoch
  // deterministically, and still match the straight-through run.
  CheckpointDir cd(dir);
  const std::string newest = cd.PathFor((*partial)->epochs_completed());
  ASSERT_TRUE(std::filesystem::exists(newest));
  auto bytes = ReadFileBytes(newest);
  ASSERT_TRUE(bytes.ok());
  std::FILE* f = std::fopen(newest.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes->data(), 1, bytes->size() / 2, f);
  std::fclose(f);

  WsccalConfig resume = cfg;
  resume.ckpt_dir = dir;
  auto resumed = WsccalPipeline::Train(features(), resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE((*resumed)->completed());
  EXPECT_EQ(Bits((*straight)->final_loss()), Bits((*resumed)->final_loss()));
}

TEST_F(CkptResumeTest, ResumeRefusedUnderDifferentConfig) {
  par::SetDefaultThreads(1);
  const std::string dir = ScratchDir("resume_mismatch");
  WsccalConfig killed = TinyWsccal(CurriculumStrategy::kHeuristic);
  killed.ckpt_dir = dir;
  killed.stop_after_epochs = 1;
  auto partial = WsccalPipeline::Train(features(), killed);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  WsccalConfig other = TinyWsccal(CurriculumStrategy::kHeuristic);
  other.ckpt_dir = dir;
  other.wsc.lambda = 0.5f;  // different objective weighting
  auto resumed = WsccalPipeline::Train(features(), other);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CkptResumeTest, CompletedCheckpointShortCircuitsTraining) {
  par::SetDefaultThreads(1);
  const std::string dir = ScratchDir("resume_completed");
  WsccalConfig cfg = TinyWsccal(CurriculumStrategy::kHeuristic);
  cfg.ckpt_dir = dir;
  auto first = WsccalPipeline::Train(features(), cfg);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE((*first)->completed());

  // Re-running with the same directory loads the completion checkpoint
  // and returns the identical model without training a single epoch.
  auto again = WsccalPipeline::Train(features(), cfg);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE((*again)->completed());
  EXPECT_EQ(Bits((*first)->final_loss()), Bits((*again)->final_loss()));
  for (int i = 0; i < 3; ++i) {
    const auto& sample = data().unlabeled[i];
    EXPECT_EQ((*first)->Encode(sample), (*again)->Encode(sample));
  }
}

TEST_F(CkptResumeTest, SerializeDeserializeRoundTrip) {
  par::SetDefaultThreads(1);
  const WsccalConfig cfg = TinyWsccal(CurriculumStrategy::kHeuristic);
  auto trained = WsccalPipeline::Train(features(), cfg);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  auto payload = (*trained)->Serialize();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto loaded = WsccalPipeline::Deserialize(features(), cfg, *payload);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int i = 0; i < 3; ++i) {
    const auto& sample = data().unlabeled[i];
    EXPECT_EQ((*trained)->Encode(sample), (*loaded)->Encode(sample));
  }

  WsccalConfig other = cfg;
  other.final_epochs += 1;
  EXPECT_EQ(
      WsccalPipeline::Deserialize(features(), other, *payload).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(CkptResumeTest, ResumeRefusedOnADifferentPool) {
  par::SetDefaultThreads(1);
  const std::string dir = ScratchDir("resume_other_pool");
  WsccalConfig cfg = TinyWsccal(CurriculumStrategy::kHeuristic);
  cfg.ckpt_dir = dir;
  cfg.stop_after_epochs = 1;
  auto partial = WsccalPipeline::Train(features(), cfg);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  // Another dataset over the same network with a pool of the same size:
  // every stored stage index is in range, but names another trajectory.
  auto other_data = std::make_shared<synth::CityDataset>(data());
  std::reverse(other_data->unlabeled.begin(), other_data->unlabeled.end());
  auto other = std::make_shared<FeatureSpace>(*features());
  other->data = other_data;
  auto resumed = WsccalPipeline::Train(other, cfg);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CkptResumeTest, PartialPipelineRoundTripsAndFinishesBitExact) {
  par::SetDefaultThreads(1);
  const WsccalConfig cfg = TinyWsccal(CurriculumStrategy::kHeuristic);
  auto straight = WsccalPipeline::Train(features(), cfg);
  ASSERT_TRUE(straight.ok()) << straight.status().ToString();

  WsccalConfig stopped = cfg;
  stopped.stop_after_epochs = 1;
  auto partial = WsccalPipeline::Train(features(), stopped);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_FALSE((*partial)->completed());

  // A partial payload comes back partial, and RunEpoch() finishes it
  // exactly as the uninterrupted run did.
  auto payload = (*partial)->Serialize();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto loaded = WsccalPipeline::Deserialize(features(), cfg, *payload);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE((*loaded)->completed());
  EXPECT_EQ((*loaded)->epochs_completed(), 1u);
  while (!(*loaded)->completed()) {
    auto samples = (*loaded)->RunEpoch();
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    EXPECT_GT(*samples, 0u);
  }
  EXPECT_EQ((*loaded)->epochs_completed(), (*straight)->epochs_completed());
  EXPECT_EQ(Bits((*straight)->final_loss()), Bits((*loaded)->final_loss()));
  for (int i = 0; i < 3; ++i) {
    const auto& sample = data().unlabeled[i];
    EXPECT_EQ((*straight)->Encode(sample), (*loaded)->Encode(sample));
  }
  EXPECT_EQ((*loaded)->RunEpoch().status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Concurrent writers (fleet mode: several shards' controllers publish in
// one process).
// ---------------------------------------------------------------------------

TEST(ConcurrentWriteTest, RacingWritersOfOnePathLeaveOneWholeFile) {
  const std::string dir = ScratchDir("concurrent_write");
  const std::string path = dir + "/shared.tpr";
  // Each thread repeatedly writes its own recognisable payload to the
  // SAME path. Unique temp names mean the last rename wins whole: the
  // visible file must always be EXACTLY one thread's payload, never an
  // interleaving or a torn prefix.
  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 24;
  std::vector<std::string> payloads;
  for (int t = 0; t < kThreads; ++t) {
    payloads.push_back(std::string(2048, static_cast<char>('A' + t)));
  }
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        if (!AtomicWriteFile(path, WrapPayload(payloads[static_cast<size_t>(t)]))
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);

  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto payload = UnwrapPayload(*bytes);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), *payload),
            payloads.end())
      << "visible file is not any single writer's payload";

  // No temp litter left behind once all writers finished.
  int stray_tmps = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp.") != std::string::npos) {
      ++stray_tmps;
    }
  }
  EXPECT_EQ(stray_tmps, 0);
}

TEST(ConcurrentWriteTest, ShardDirsDoNotCrossContaminate) {
  // Two CheckpointDirs in one process (two shards) saving and pruning
  // concurrently: each directory ends with exactly its own lineage.
  const std::string root = ScratchDir("multi_dir");
  CheckpointDir a(root + "/shard-0/models");
  CheckpointDir b(root + "/shard-1/models");
  std::filesystem::create_directories(a.dir());
  std::filesystem::create_directories(b.dir());
  std::thread ta([&] {
    for (uint64_t seq = 1; seq <= 12; ++seq) {
      ASSERT_TRUE(a.Save(seq, "shard0-payload-" + std::to_string(seq)).ok());
    }
  });
  std::thread tb([&] {
    for (uint64_t seq = 1; seq <= 12; ++seq) {
      ASSERT_TRUE(b.Save(seq, "shard1-payload-" + std::to_string(seq)).ok());
    }
  });
  ta.join();
  tb.join();
  auto la = a.LoadLatest();
  auto lb = b.LoadLatest();
  ASSERT_TRUE(la.ok()) << la.status().ToString();
  ASSERT_TRUE(lb.ok()) << lb.status().ToString();
  EXPECT_EQ(la->seq, 12u);
  EXPECT_EQ(lb->seq, 12u);
  EXPECT_EQ(la->payload, "shard0-payload-12");
  EXPECT_EQ(lb->payload, "shard1-payload-12");
  // Pins are per directory, not process state.
  ASSERT_TRUE(a.Pin(11).ok());
  EXPECT_EQ(a.PinnedSeq().value_or(0), 11u);
  EXPECT_FALSE(b.PinnedSeq().has_value());
}

}  // namespace
}  // namespace tpr::ckpt
