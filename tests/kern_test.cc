#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "gradcheck.h"
#include "kern/arena.h"
#include "kern/kern.h"
#include "nn/autograd.h"
#include "nn/modules.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "util/rng.h"

namespace tpr::kern {
namespace {

// Pins the active kernel for one test and restores the previous one on
// exit, so test order never leaks a kernel choice.
class ScopedKernel {
 public:
  explicit ScopedKernel(Kernel k) : previous_(ActiveKernel()) { SetKernel(k); }
  ~ScopedKernel() { SetKernel(previous_); }

 private:
  Kernel previous_;
};

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  return v;
}

void ExpectNearRel(const std::vector<float>& a, const std::vector<float>& b,
                   float rel_tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(b[i]));
    EXPECT_NEAR(a[i], b[i], rel_tol * scale) << "at flat index " << i;
  }
}

using GemmFn = void (*)(const float*, const float*, float*, int, int, int);

// A nonzero starting output, so += semantics are exercised.
std::vector<float> StartingOut(size_t out_n) {
  std::vector<float> out(out_n);
  for (size_t i = 0; i < out_n; ++i) out[i] = 0.25f * static_cast<float>(i % 7);
  return out;
}

// Runs one GEMM variant under `k` and returns the accumulated output.
std::vector<float> RunGemm(GemmFn fn, Kernel k, const std::vector<float>& a,
                           const std::vector<float>& b, int d0, int d1,
                           int d2, size_t out_n) {
  ScopedKernel pin(k);
  std::vector<float> out = StartingOut(out_n);
  fn(a.data(), b.data(), out.data(), d0, d1, d2);
  return out;
}

// Shapes chosen to hit every code path of the avx2 microkernels: full
// 16-column panels, the 8-column tail, the scalar column tail, 6-row
// tiles and the 1-5 rows they leave, packed (m >= 8, n >= 16) and
// unpacked panels, and empty extents.
struct GemmShape {
  int m, k, n;
};
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},   {3, 5, 7},    {4, 16, 16}, {5, 17, 23},
    {8, 32, 16}, {9, 33, 17}, {16, 64, 48}, {1, 64, 9},  {2, 3, 31},
    {7, 8, 8},   {12, 1, 40}, {4, 0, 8},    {0, 5, 8},   {6, 5, 0},
};

TEST(GemmParityTest, GemmAccAvx2MatchesScalar) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  for (const auto& s : kShapes) {
    const auto a = RandomVec(static_cast<size_t>(s.m) * s.k, 11);
    const auto b = RandomVec(static_cast<size_t>(s.k) * s.n, 22);
    const size_t on = static_cast<size_t>(s.m) * s.n;
    const auto sc = RunGemm(&GemmAcc, Kernel::kScalar, a, b, s.m, s.k, s.n, on);
    const auto vx = RunGemm(&GemmAcc, Kernel::kAvx2, a, b, s.m, s.k, s.n, on);
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    ExpectNearRel(vx, sc, 1e-5f);
  }
}

TEST(GemmParityTest, GemmTransAAccAvx2MatchesScalar) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  for (const auto& s : kShapes) {
    // a is k x m here (transposed operand).
    const auto a = RandomVec(static_cast<size_t>(s.k) * s.m, 33);
    const auto b = RandomVec(static_cast<size_t>(s.k) * s.n, 44);
    const size_t on = static_cast<size_t>(s.m) * s.n;
    const auto sc =
        RunGemm(&GemmTransAAcc, Kernel::kScalar, a, b, s.k, s.m, s.n, on);
    const auto vx =
        RunGemm(&GemmTransAAcc, Kernel::kAvx2, a, b, s.k, s.m, s.n, on);
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    ExpectNearRel(vx, sc, 1e-5f);
  }
}

TEST(GemmParityTest, GemmTransBAccAvx2MatchesScalar) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  for (const auto& s : kShapes) {
    const auto a = RandomVec(static_cast<size_t>(s.m) * s.k, 55);
    // b is n x k here (transposed operand).
    const auto b = RandomVec(static_cast<size_t>(s.n) * s.k, 66);
    const size_t on = static_cast<size_t>(s.m) * s.n;
    const auto sc =
        RunGemm(&GemmTransBAcc, Kernel::kScalar, a, b, s.m, s.k, s.n, on);
    const auto vx =
        RunGemm(&GemmTransBAcc, Kernel::kAvx2, a, b, s.m, s.k, s.n, on);
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    ExpectNearRel(vx, sc, 1e-5f);
  }
}

TEST(GemmParityTest, GemmAccMatchesNaiveReference) {
  // The scalar kernel is the reproducibility anchor, so pin it against a
  // textbook triple loop at one awkward shape.
  const int m = 5, k = 13, n = 19;
  const auto a = RandomVec(static_cast<size_t>(m) * k, 77);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 88);
  std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float s = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        s += a[static_cast<size_t>(i) * k + kk] *
             b[static_cast<size_t>(kk) * n + j];
      }
      ref[static_cast<size_t>(i) * n + j] = s;
    }
  }
  ScopedKernel pin(Kernel::kScalar);
  std::vector<float> out(static_cast<size_t>(m) * n, 0.0f);
  GemmAcc(a.data(), b.data(), out.data(), m, k, n);
  ExpectNearRel(out, ref, 1e-5f);
}

TEST(GemmParityTest, EachKernelIsBitwiseDeterministic) {
  const int m = 9, k = 33, n = 17;
  const auto a = RandomVec(static_cast<size_t>(m) * k, 99);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 111);
  const size_t on = static_cast<size_t>(m) * n;
  for (Kernel kr : {Kernel::kScalar, Kernel::kAvx2}) {
    if (kr == Kernel::kAvx2 && !CpuSupportsAvx2()) continue;
    const auto r1 = RunGemm(&GemmAcc, kr, a, b, m, k, n, on);
    const auto r2 = RunGemm(&GemmAcc, kr, a, b, m, k, n, on);
    EXPECT_EQ(0, std::memcmp(r1.data(), r2.data(), on * sizeof(float)))
        << KernelName(kr) << " is not run-to-run bitwise stable";
  }
}

// The avx2 GEMMs fix each output element's op sequence, whatever tile
// covers it. GemmAcc and GemmTransAAcc: one FMA chain over k from zero,
// added to out once. GemmTransBAcc: eight FMA lane chains over the whole
// 8-float blocks of k, summed in the Hsum pairing, then the k % 8 tail as
// FMAs in order, added to out once. These references spell the sequences
// out with std::fmaf; the shapes cover every tile, packed and unpacked
// panels, the scalar tails, and the model's recurrent and input shapes.
float RefStridedDot(const float* a, size_t a_k_stride, const float* b,
                    size_t b_k_stride, int k, float out) {
  float acc = 0.0f;
  for (int kk = 0; kk < k; ++kk) {
    acc = std::fmaf(a[kk * a_k_stride], b[kk * b_k_stride], acc);
  }
  return out + acc;
}

float RefLaneDot(const float* a, const float* b, int k, float out) {
  float lane[8] = {};
  int kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    for (int l = 0; l < 8; ++l) {
      lane[l] = std::fmaf(a[kk + l], b[kk + l], lane[l]);
    }
  }
  float s = ((lane[0] + lane[4]) + (lane[1] + lane[5])) +
            ((lane[2] + lane[6]) + (lane[3] + lane[7]));
  for (; kk < k; ++kk) s = std::fmaf(a[kk], b[kk], s);
  return out + s;
}

struct SkinnyShapes {
  std::vector<int> ms;
  std::vector<std::pair<int, int>> kns;
};
SkinnyShapes AllSkinnyShapes() {
  SkinnyShapes s;
  for (int m = 1; m <= 13; ++m) s.ms.push_back(m);
  s.ms.push_back(16);
  s.ms.push_back(32);
  s.kns = {{128, 512}, {48, 512}, {512, 128}, {512, 48}, {17, 23}, {5, 9}};
  return s;
}

TEST(GemmOpOrderTest, Avx2GemmsMatchTheirFmaReferenceBitwise) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  const SkinnyShapes shapes = AllSkinnyShapes();
  for (const auto& [k, n] : shapes.kns) {
    for (int m : shapes.ms) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << m << " k=" << k << " n=" << n);
      const size_t on = static_cast<size_t>(m) * n;
      const auto a = RandomVec(static_cast<size_t>(m) * k, 1000 + m);
      const auto b = RandomVec(static_cast<size_t>(k) * n, 2000 + k + n);
      const std::vector<float> seed = StartingOut(on);

      // GemmAcc: a is m x k, b is k x n.
      const auto acc = RunGemm(&GemmAcc, Kernel::kAvx2, a, b, m, k, n, on);
      // GemmTransAAcc: the same floats read as a k x m matrix.
      const auto ta = RunGemm(&GemmTransAAcc, Kernel::kAvx2, a, b, k, m, n, on);
      // GemmTransBAcc: a is m x k, b is n x k.
      const auto tb = RunGemm(&GemmTransBAcc, Kernel::kAvx2, a, b, m, k, n, on);
      size_t acc_bad = 0, ta_bad = 0, tb_bad = 0;
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          const size_t o = static_cast<size_t>(i) * n + j;
          const float ref_acc = RefStridedDot(
              a.data() + static_cast<size_t>(i) * k, 1, b.data() + j,
              static_cast<size_t>(n), k, seed[o]);
          const float ref_ta = RefStridedDot(a.data() + i,
                                             static_cast<size_t>(m),
                                             b.data() + j,
                                             static_cast<size_t>(n), k,
                                             seed[o]);
          const float ref_tb =
              RefLaneDot(a.data() + static_cast<size_t>(i) * k,
                         b.data() + static_cast<size_t>(j) * k, k, seed[o]);
          acc_bad += std::memcmp(&acc[o], &ref_acc, sizeof(float)) != 0;
          ta_bad += std::memcmp(&ta[o], &ref_ta, sizeof(float)) != 0;
          tb_bad += std::memcmp(&tb[o], &ref_tb, sizeof(float)) != 0;
        }
      }
      EXPECT_EQ(acc_bad, 0u) << "GemmAcc elements off their FMA chain";
      EXPECT_EQ(ta_bad, 0u) << "GemmTransAAcc elements off their FMA chain";
      EXPECT_EQ(tb_bad, 0u) << "GemmTransBAcc elements off their lane order";
    }
  }
}

// InferencePlan, LstmSequence and the served-embedding checks rely on a
// row's bits not depending on how many rows share its call.
TEST(GemmOpOrderTest, Avx2RowsMatchOneRowCallsBitwise) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  ScopedKernel pin(Kernel::kAvx2);
  const SkinnyShapes shapes = AllSkinnyShapes();
  for (const auto& [k, n] : shapes.kns) {
    for (int m : shapes.ms) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << m << " k=" << k << " n=" << n);
      const size_t on = static_cast<size_t>(m) * n;
      const auto a = RandomVec(static_cast<size_t>(m) * k, 3000 + m);
      const auto b = RandomVec(static_cast<size_t>(k) * n, 4000 + k + n);
      for (GemmFn fn : {&GemmAcc, &GemmTransBAcc}) {
        std::vector<float> whole(on, 0.5f), rows(on, 0.5f);
        fn(a.data(), b.data(), whole.data(), m, k, n);
        for (int i = 0; i < m; ++i) {
          fn(a.data() + static_cast<size_t>(i) * k, b.data(),
             rows.data() + static_cast<size_t>(i) * n, 1, k, n);
        }
        EXPECT_EQ(0, std::memcmp(whole.data(), rows.data(), on * sizeof(float)))
            << (fn == &GemmAcc ? "GemmAcc" : "GemmTransBAcc");
      }
    }
  }
}

TEST(ElementwiseParityTest, AccumulatorsMatchScalar) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  for (int n : {1, 9, 16, 31, 200}) {
    const auto a = RandomVec(n, 3);
    const auto b = RandomVec(n, 4);
    const auto seed = RandomVec(n, 5);
    std::vector<float> had_sc = seed, had_vx = seed;
    std::vector<float> axpy_sc = seed, axpy_vx = seed;
    std::vector<float> add_sc = seed, add_vx = seed;
    {
      ScopedKernel pin(Kernel::kScalar);
      HadamardAcc(a.data(), b.data(), had_sc.data(), n);
      AxpyAcc(-1.5f, a.data(), axpy_sc.data(), n);
      AddAcc(a.data(), add_sc.data(), n);
    }
    {
      ScopedKernel pin(Kernel::kAvx2);
      HadamardAcc(a.data(), b.data(), had_vx.data(), n);
      AxpyAcc(-1.5f, a.data(), axpy_vx.data(), n);
      AddAcc(a.data(), add_vx.data(), n);
    }
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    ExpectNearRel(had_vx, had_sc, 1e-6f);
    ExpectNearRel(axpy_vx, axpy_sc, 1e-6f);
    ExpectNearRel(add_vx, add_sc, 1e-6f);
  }
}

TEST(DispatchTest, ResolveKernelSpec) {
  EXPECT_EQ(ResolveKernelSpec("scalar"), Kernel::kScalar);
  const Kernel auto_kernel =
      CpuSupportsAvx2() ? Kernel::kAvx2 : Kernel::kScalar;
  EXPECT_EQ(ResolveKernelSpec("auto"), auto_kernel);
  EXPECT_EQ(ResolveKernelSpec(""), auto_kernel);
  EXPECT_EQ(ResolveKernelSpec(nullptr), auto_kernel);
  if (CpuSupportsAvx2()) {
    EXPECT_EQ(ResolveKernelSpec("avx2"), Kernel::kAvx2);
  }
}

TEST(DispatchTest, KernelNames) {
  EXPECT_STREQ(KernelName(Kernel::kScalar), "scalar");
  EXPECT_STREQ(KernelName(Kernel::kAvx2), "avx2");
}

TEST(DispatchTest, ThreadKernelPinIsPerThreadAndNests) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  const int m = 3, k = 37, n = 21;
  const auto a = RandomVec(static_cast<size_t>(m) * k, 41);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 42);
  const size_t on = static_cast<size_t>(m) * n;
  const auto scalar_out = RunGemm(&GemmAcc, Kernel::kScalar, a, b, m, k, n, on);
  const auto avx2_out = RunGemm(&GemmAcc, Kernel::kAvx2, a, b, m, k, n, on);
  ASSERT_NE(scalar_out, avx2_out) << "the legs must be distinguishable";
  const auto gemm = [&] {
    std::vector<float> out(on);
    for (size_t i = 0; i < on; ++i) out[i] = 0.25f * static_cast<float>(i % 7);
    GemmAcc(a.data(), b.data(), out.data(), m, k, n);
    return out;
  };

  ScopedKernel process(Kernel::kAvx2);
  {
    ThreadKernelPin scalar(Kernel::kScalar);
    EXPECT_EQ(ActiveKernel(), Kernel::kScalar);
    EXPECT_EQ(gemm(), scalar_out);
    // A second thread still sees the process kernel while the pin lives.
    Kernel other_kernel = Kernel::kScalar;
    std::vector<float> other_out;
    std::thread other([&] {
      other_kernel = ActiveKernel();
      other_out = gemm();
    });
    other.join();
    EXPECT_EQ(other_kernel, Kernel::kAvx2);
    EXPECT_EQ(other_out, avx2_out);
    {
      ThreadKernelPin inner(Kernel::kAvx2);
      EXPECT_EQ(ActiveKernel(), Kernel::kAvx2);
      {
        ThreadKernelPin innermost(Kernel::kScalar);
        EXPECT_EQ(ActiveKernel(), Kernel::kScalar);
      }
      EXPECT_EQ(ActiveKernel(), Kernel::kAvx2);
    }
    EXPECT_EQ(ActiveKernel(), Kernel::kScalar);
    EXPECT_EQ(gemm(), scalar_out);
  }
  EXPECT_EQ(ActiveKernel(), Kernel::kAvx2);
  EXPECT_EQ(gemm(), avx2_out);
}

#if GTEST_HAS_DEATH_TEST
TEST(DispatchDeathTest, UnknownSpecIsFatal) {
  EXPECT_DEATH(ResolveKernelSpec("sse9"), "TPR_KERNEL");
}
#endif

// ---------------------------------------------------------------------------
// Fused autograd ops: forward equivalence against the unfused
// composition, and numeric gradient checks, both under each kernel.
// ---------------------------------------------------------------------------

void CheckGradient(nn::Var param, const std::function<nn::Var()>& loss_fn,
                   float tolerance = 2e-2f) {
  nn::Var loss = loss_fn();
  param.ZeroGrad();
  loss.Backward();
  nn::Tensor analytic = param.grad();
  ASSERT_FALSE(analytic.empty());

  const float eps = 1e-3f;
  nn::Tensor& value = param.mutable_value();
  for (size_t i = 0; i < value.size(); ++i) {
    const float original = value[i];
    value[i] = original + eps;
    const float up = loss_fn().scalar();
    value[i] = original - eps;
    const float down = loss_fn().scalar();
    value[i] = original;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0f, std::fabs(numeric)))
        << "at element " << i;
  }
}

nn::Var RandomLeaf(int rows, int cols, uint64_t seed) {
  auto v = RandomVec(static_cast<size_t>(rows) * cols, seed);
  return nn::Var::Leaf(nn::Tensor::FromValues(rows, cols, std::move(v)),
                       /*requires_grad=*/true);
}

std::vector<Kernel> KernelsUnderTest() {
  std::vector<Kernel> ks = {Kernel::kScalar};
  if (CpuSupportsAvx2()) ks.push_back(Kernel::kAvx2);
  return ks;
}

TEST(FusedOpTest, AffineMatchesUnfusedComposition) {
  for (Kernel k : KernelsUnderTest()) {
    ScopedKernel pin(k);
    nn::Var x = RandomLeaf(3, 5, 1);
    nn::Var w = RandomLeaf(5, 7, 2);
    nn::Var b = RandomLeaf(1, 7, 3);
    const nn::Tensor fused = nn::Affine(x, w, b).value();
    const nn::Tensor unfused = nn::AddRow(nn::MatMul(x, w), b).value();
    ASSERT_EQ(fused.size(), unfused.size());
    for (size_t i = 0; i < fused.size(); ++i) {
      EXPECT_NEAR(fused[i], unfused[i],
                  1e-5f * std::max(1.0f, std::fabs(unfused[i])))
          << KernelName(k) << " element " << i;
    }
  }
}

// The LSTM written out step by step from the plain ops: one row GEMM
// each for x_t W_ih and h_{t-1} W_hh, the bias, the four gates, and the
// stacked hidden rows.
nn::Var UnfusedLstm(const nn::Var& x, const nn::Var& w_ih,
                    const nn::Var& w_hh, const nn::Var& b) {
  const int h = w_hh.rows();
  nn::Var h_prev = nn::Var::Leaf(nn::Tensor(1, h));
  nn::Var c_prev = nn::Var::Leaf(nn::Tensor(1, h));
  std::vector<nn::Var> outputs;
  for (int t = 0; t < x.rows(); ++t) {
    nn::Var gates = nn::AddRow(nn::Add(nn::MatMul(nn::SliceRow(x, t), w_ih),
                                       nn::MatMul(h_prev, w_hh)),
                               b);
    nn::Var i = nn::Sigmoid(nn::SliceCols(gates, 0, h));
    nn::Var f = nn::Sigmoid(nn::SliceCols(gates, h, h));
    nn::Var g = nn::Tanh(nn::SliceCols(gates, 2 * h, h));
    nn::Var o = nn::Sigmoid(nn::SliceCols(gates, 3 * h, h));
    c_prev = nn::Add(nn::Mul(f, c_prev), nn::Mul(i, g));
    h_prev = nn::Mul(o, nn::Tanh(c_prev));
    outputs.push_back(h_prev);
  }
  return nn::ConcatRows(outputs);
}

// Values within 1e-5 of the composition, and the same per-step op
// counts: nn.matmul_ops and nn.matmul_flops equal the composition's two
// row GEMMs per step, and nn.fused_cell_ops counts one cell per step.
TEST(FusedOpTest, LstmSequenceMatchesUnfusedComposition) {
  const int k = 5, h = 4;
  obs::ScopedMetricsEnabled metrics;
  obs::Counter& ops = obs::GetCounter("nn.matmul_ops");
  obs::Counter& flops = obs::GetCounter("nn.matmul_flops");
  obs::Counter& cells = obs::GetCounter("nn.fused_cell_ops");
  for (Kernel kr : KernelsUnderTest()) {
    ScopedKernel pin(kr);
    for (int steps : {1, 2, 7}) {
      nn::Var x = RandomLeaf(steps, k, 9);
      nn::Var w_ih = RandomLeaf(k, 4 * h, 10);
      nn::Var w_hh = RandomLeaf(h, 4 * h, 11);
      nn::Var b = RandomLeaf(1, 4 * h, 12);
      const uint64_t ops0 = ops.value(), flops0 = flops.value();
      const uint64_t cells0 = cells.value();
      const nn::Tensor fused = nn::LstmSequence(x, w_ih, w_hh, b).value();
      const uint64_t ops1 = ops.value(), flops1 = flops.value();
      EXPECT_EQ(cells.value() - cells0, static_cast<uint64_t>(steps));
      const nn::Tensor unfused = UnfusedLstm(x, w_ih, w_hh, b).value();
      EXPECT_EQ(ops1 - ops0, ops.value() - ops1);
      EXPECT_EQ(flops1 - flops0, flops.value() - flops1);
      ASSERT_EQ(fused.rows(), steps);
      ASSERT_EQ(fused.cols(), h);
      ASSERT_TRUE(fused.SameShape(unfused));
      for (size_t i = 0; i < fused.size(); ++i) {
        EXPECT_NEAR(fused[i], unfused[i], 1e-5f)
            << KernelName(kr) << " T=" << steps << " element " << i;
      }
    }
  }
}

TEST(FusedOpTest, GruCellMatchesUnfusedComposition) {
  const int m = 3, h = 4;
  for (Kernel k : KernelsUnderTest()) {
    ScopedKernel pin(k);
    nn::Var gi = RandomLeaf(m, 3 * h, 11);
    nn::Var gh = RandomLeaf(m, 3 * h, 12);
    nn::Var h_prev = RandomLeaf(m, h, 13);
    const nn::Tensor fused = nn::GruCellOp(gi, gh, h_prev).value();
    nn::Var r = nn::Sigmoid(
        nn::Add(nn::SliceCols(gi, 0, h), nn::SliceCols(gh, 0, h)));
    nn::Var z = nn::Sigmoid(
        nn::Add(nn::SliceCols(gi, h, h), nn::SliceCols(gh, h, h)));
    nn::Var n = nn::Tanh(nn::Add(nn::SliceCols(gi, 2 * h, h),
                                 nn::Mul(r, nn::SliceCols(gh, 2 * h, h))));
    nn::Var ht = nn::Add(nn::Sub(n, nn::Mul(z, n)), nn::Mul(z, h_prev));
    ASSERT_EQ(fused.size(), ht.value().size());
    for (size_t idx = 0; idx < fused.size(); ++idx) {
      EXPECT_NEAR(fused[idx], ht.value()[idx], 1e-5f)
          << KernelName(k) << " element " << idx;
    }
  }
}

TEST(FusedOpTest, AffineGradcheck) {
  for (Kernel k : KernelsUnderTest()) {
    ScopedKernel pin(k);
    nn::Var x = RandomLeaf(3, 4, 14);
    nn::Var w = RandomLeaf(4, 5, 15);
    nn::Var b = RandomLeaf(1, 5, 16);
    auto loss = [&] { return nn::Sum(nn::Tanh(nn::Affine(x, w, b))); };
    CheckGradient(x, loss);
    CheckGradient(w, loss);
    CheckGradient(b, loss);
  }
}

TEST(FusedOpTest, LstmSequenceGradcheck) {
  const int k = 3, h = 3;
  for (Kernel kr : KernelsUnderTest()) {
    ScopedKernel pin(kr);
    for (int steps : {1, 2, 5}) {
      SCOPED_TRACE(::testing::Message() << KernelName(kr) << " T=" << steps);
      nn::Var x = RandomLeaf(steps, k, 22);
      nn::Var w_ih = RandomLeaf(k, 4 * h, 23);
      nn::Var w_hh = RandomLeaf(h, 4 * h, 24);
      nn::Var b = RandomLeaf(1, 4 * h, 25);
      // A constant weight per output element, so dY differs across rows
      // and columns.
      const nn::Var dy = nn::Var::Leaf(nn::Tensor::FromValues(
          steps, h, RandomVec(static_cast<size_t>(steps) * h, 26)));
      auto loss = [&] {
        return nn::Sum(nn::Mul(nn::LstmSequence(x, w_ih, w_hh, b), dy));
      };
      if (steps == 1) {
        // W_hh only meets the zero state, yet it gets an all-zero
        // gradient, so GradAccumulator and Adam see every parameter.
        loss().Backward();
        ASSERT_FALSE(w_hh.grad().empty());
        for (size_t i = 0; i < w_hh.grad().size(); ++i) {
          EXPECT_EQ(w_hh.grad()[i], 0.0f) << "element " << i;
        }
      }
      CheckGradient(x, loss);
      CheckGradient(w_ih, loss);
      CheckGradient(w_hh, loss);
      CheckGradient(b, loss);
    }
  }
}

TEST(FusedOpTest, GruCellGradcheck) {
  const int m = 2, h = 3;
  for (Kernel k : KernelsUnderTest()) {
    ScopedKernel pin(k);
    nn::Var gi = RandomLeaf(m, 3 * h, 24);
    nn::Var gh = RandomLeaf(m, 3 * h, 25);
    nn::Var h_prev = RandomLeaf(m, h, 26);
    auto loss = [&] { return nn::Sum(nn::GruCellOp(gi, gh, h_prev)); };
    CheckGradient(gi, loss);
    CheckGradient(gh, loss);
    CheckGradient(h_prev, loss);
  }
}

// The shared gradcheck.h sweep over whole modules, repeated under each
// kernel: the fused cell ops inside LstmLayer/GruLayer and the Affine
// inside Linear must keep their gradients correct on both code paths.
TEST(FusedOpTest, ModuleGradcheckSweepUnderEachKernel) {
  for (Kernel kr : KernelsUnderTest()) {
    ScopedKernel pin(kr);
    SCOPED_TRACE(KernelName(kr));
    Rng rng(40);
    {
      nn::Lstm lstm(6, 5, 2, rng);
      nn::Var x = RandomLeaf(4, 6, 41);
      testing::ExpectGradientsMatch(
          [&] { return nn::Sum(lstm.Forward(x)); }, lstm.Parameters());
    }
    {
      nn::GruLayer gru(6, 5, rng);
      nn::Var x = RandomLeaf(4, 6, 42);
      testing::ExpectGradientsMatch(
          [&] { return nn::Sum(gru.Forward(x)); }, gru.Parameters());
    }
    {
      nn::Linear linear(6, 3, rng);
      nn::Var x = RandomLeaf(4, 6, 43);
      testing::ExpectGradientsMatch(
          [&] { return nn::Sum(nn::Tanh(linear.Forward(x))); },
          linear.Parameters());
    }
  }
}

// ---------------------------------------------------------------------------
// Arena allocator.
// ---------------------------------------------------------------------------

TEST(ArenaTest, BucketRounding) {
  EXPECT_EQ(ArenaBucketBytes(1), 64u);
  EXPECT_EQ(ArenaBucketBytes(64), 64u);
  EXPECT_EQ(ArenaBucketBytes(65), 128u);
  EXPECT_EQ(ArenaBucketBytes(1000), 1024u);
  EXPECT_EQ(ArenaBucketBytes(1024), 1024u);
  EXPECT_EQ(ArenaBucketBytes(1025), 2048u);
}

TEST(ArenaTest, FreeListReuseSameBlock) {
  constexpr size_t kBytes = 4096;
  void* p1 = ArenaAlloc(kBytes);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % 64, 0u) << "not 64-byte aligned";
  ArenaFree(p1, kBytes);
  const ArenaStats before = ThreadArenaStats();
  void* p2 = ArenaAlloc(kBytes);
  EXPECT_EQ(p2, p1) << "freed block was not recycled";
  const ArenaStats after = ThreadArenaStats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.alloc_bytes, before.alloc_bytes)
      << "recycled alloc fetched fresh system bytes";
  ArenaFree(p2, kBytes);
}

TEST(ArenaTest, ZeroByteAllocIsNull) {
  EXPECT_EQ(ArenaAlloc(0), nullptr);
  ArenaFree(nullptr, 0);  // must be a no-op
}

TEST(ArenaTest, TrimReleasesCachedBlocks) {
  // Park a distinctive block, then trim: the cached bytes must drop and
  // the next allocation of that size must miss again.
  constexpr size_t kBytes = 1u << 20;
  ArenaFree(ArenaAlloc(kBytes), kBytes);
  const ArenaStats cached = ThreadArenaStats();
  EXPECT_GE(cached.cached_bytes, kBytes);
  const uint64_t released = TrimThreadArena();
  EXPECT_GE(released, kBytes);
  const ArenaStats after = ThreadArenaStats();
  EXPECT_EQ(after.cached_bytes, 0u);
  EXPECT_EQ(after.cached_blocks, 0u);
  const uint64_t misses_before = after.misses;
  ArenaFree(ArenaAlloc(kBytes), kBytes);
  EXPECT_EQ(ThreadArenaStats().misses, misses_before + 1);
}

TEST(ArenaTest, ManyCyclesStayInFreeList) {
  TrimThreadArena();
  const ArenaStats start = ThreadArenaStats();
  for (int i = 0; i < 1000; ++i) {
    void* p = ArenaAlloc(512);
    ArenaFree(p, 512);
  }
  const ArenaStats end = ThreadArenaStats();
  // First cycle misses, the other 999 hit the free list.
  EXPECT_EQ(end.misses, start.misses + 1);
  EXPECT_EQ(end.hits, start.hits + 999);
}

TEST(ArenaTest, PerThreadIsolationUnderPool) {
  // Each pool thread allocates from its own arena: the total hit+miss
  // delta across threads must equal the per-thread work, with no
  // cross-thread double counting.
  par::ThreadPool pool(3);
  constexpr size_t kBytes = 3u << 16;
  std::atomic<uint64_t> events{0};
  pool.RunOnAllWorkers([&](int) {
    const ArenaStats before = ThreadArenaStats();
    void* p = ArenaAlloc(kBytes);
    ASSERT_NE(p, nullptr);
    ArenaFree(p, kBytes);
    const ArenaStats after = ThreadArenaStats();
    EXPECT_GE(after.cached_bytes, ArenaBucketBytes(kBytes));
    events += (after.hits + after.misses) - (before.hits + before.misses);
  });
  EXPECT_EQ(events.load(), 3u);
}

TEST(ArenaTest, CrossThreadFreeTransfersOwnership) {
  par::ThreadPool pool(2);
  constexpr size_t kBytes = 5u << 16;  // rounds to a 512 KiB bucket
  void* p = ArenaAlloc(kBytes);
  ASSERT_NE(p, nullptr);
  // The background worker frees a block allocated here; ownership must
  // land on ITS free lists, not this thread's.
  uint64_t worker_cached_delta = 0;
  pool.Submit([&] {
      const uint64_t before = ThreadArenaStats().cached_bytes;
      ArenaFree(p, kBytes);
      worker_cached_delta = ThreadArenaStats().cached_bytes - before;
    }).get();
  EXPECT_GE(worker_cached_delta, ArenaBucketBytes(kBytes));
}

TEST(ArenaTest, SteadyStateTrainingStepAllocatesNothing) {
  // The tentpole claim: after warmup, a fixed-shape forward/backward
  // step is served entirely from the free lists — zero fresh bytes from
  // the system allocator. Single-threaded so ThreadArenaStats covers the
  // whole graph.
  nn::Var w1 = RandomLeaf(16, 32, 30);
  nn::Var b1 = RandomLeaf(1, 32, 31);
  nn::Var w2 = RandomLeaf(32, 8, 32);
  nn::Var b2 = RandomLeaf(1, 8, 33);
  nn::Var x = RandomLeaf(4, 16, 34);
  auto step = [&] {
    nn::Var h = nn::Tanh(nn::Affine(x, w1, b1));
    nn::Var loss = nn::Sum(nn::Sigmoid(nn::Affine(h, w2, b2)));
    w1.ZeroGrad();
    b1.ZeroGrad();
    w2.ZeroGrad();
    b2.ZeroGrad();
    loss.Backward();
  };
  for (int i = 0; i < 5; ++i) step();  // warm the free lists
  const uint64_t alloc_before = ThreadArenaStats().alloc_bytes;
  const uint64_t hits_before = ThreadArenaStats().hits;
  for (int i = 0; i < 20; ++i) step();
  const ArenaStats after = ThreadArenaStats();
  EXPECT_EQ(after.alloc_bytes, alloc_before)
      << "steady-state step fetched fresh bytes from the system";
  EXPECT_GT(after.hits, hits_before) << "steady-state step bypassed the arena";
}

TEST(ArenaTest, FloatBufferValueSemantics) {
  FloatBuffer a(8);
  for (size_t i = 0; i < 8; ++i) a[i] = static_cast<float>(i);
  FloatBuffer b = a;  // deep copy
  b[0] = 42.0f;
  EXPECT_FLOAT_EQ(a[0], 0.0f);
  FloatBuffer c = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_EQ(c.size(), 8u);
  EXPECT_FLOAT_EQ(c[7], 7.0f);
  FloatBuffer empty;
  empty.Fill(1.0f);  // no-op on empty, must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(ArenaTest, ArenaFnInlineAndHeapCaptures) {
  // Small capture: stored inline.
  int small = 7;
  ArenaFn<int()> f1 = [small] { return small + 1; };
  EXPECT_TRUE(static_cast<bool>(f1));
  EXPECT_EQ(f1(), 8);

  // Oversized capture: spills to the arena and still survives moves.
  struct Big {
    float payload[128];
  } big{};
  big.payload[0] = 2.5f;
  big.payload[127] = 4.5f;
  ArenaFn<float()> f2 = [big] { return big.payload[0] + big.payload[127]; };
  ArenaFn<float()> f3 = std::move(f2);
  EXPECT_FALSE(static_cast<bool>(f2));  // NOLINT(bugprone-use-after-move)
  EXPECT_FLOAT_EQ(f3(), 7.0f);

  ArenaFn<int()> moved = std::move(f1);
  EXPECT_EQ(moved(), 8);
}

}  // namespace
}  // namespace tpr::kern
