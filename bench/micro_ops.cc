// Microbenchmarks for the hot paths of the library: autograd ops, the
// temporal path encoder, node2vec walking, and GBDT fitting. Not a paper
// table; used to keep the experiment harnesses fast.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "gbdt/gradient_boosting.h"
#include "kern/arena.h"
#include "kern/kern.h"
#include "nn/modules.h"
#include "nn/optimizer.h"
#include "node2vec/node2vec.h"
#include "synth/city_generator.h"
#include "util/rng.h"

namespace tpr {
namespace {

// ---------------------------------------------------------------------------
// Kernel-layer phases: scalar vs avx2 GFLOP/s on the raw GEMM entry
// points at encoder-shaped operands, and arena vs system allocation.
// Run with --benchmark_filter=Kern|Arena to isolate them.
// ---------------------------------------------------------------------------

// Shapes the WSC-TPR encoder actually runs: (path_len x d_hidden) times
// (d_hidden x 4*d_hidden) gate projections, the LSTM's one-row recurrent
// step, its backward dG * W^T product and the square attention products.
// {m, k, n}.
constexpr int kEncoderShapes[][3] = {
    {20, 64, 256},   // LSTM gate projection, d_hidden 64
    {20, 128, 512},  // LSTM gate projection, default d_hidden 128
    {64, 64, 64},    // attention score block
    {1, 128, 512},   // recurrent step h * W_hh (GemmAcc)
    {14, 512, 128},  // backward dG * W_hh^T over a path (GemmTransBAcc)
};
constexpr int kNumEncoderShapes =
    static_cast<int>(sizeof(kEncoderShapes) / sizeof(kEncoderShapes[0]));

// True when the requested kernel can run here; skips the bench otherwise
// so avx2 rows simply vanish on machines without it.
bool PinKernelOrSkip(benchmark::State& state, kern::Kernel k) {
  if (k == kern::Kernel::kAvx2 && !kern::CpuSupportsAvx2()) {
    state.SkipWithError("AVX2 not supported on this CPU");
    return false;
  }
  kern::SetKernel(k);
  return true;
}

void ReportGemmRate(benchmark::State& state, int m, int k, int n) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * m * k * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

template <kern::Kernel K>
void BM_KernGemmAcc(benchmark::State& state) {
  if (!PinKernelOrSkip(state, K)) return;
  const auto& s = kEncoderShapes[state.range(0)];
  const int m = s[0], k = s[1], n = s[2];
  Rng rng(21);
  std::vector<float> a(static_cast<size_t>(m) * k), b(static_cast<size_t>(k) * n),
      out(static_cast<size_t>(m) * n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.Gaussian());
  for (auto& v : b) v = static_cast<float>(rng.Gaussian());
  for (auto _ : state) {
    kern::GemmAcc(a.data(), b.data(), out.data(), m, k, n);
    benchmark::DoNotOptimize(out.data());
  }
  ReportGemmRate(state, m, k, n);
  kern::SetKernel(kern::ResolveKernelSpec(std::getenv("TPR_KERNEL")));
}
BENCHMARK_TEMPLATE(BM_KernGemmAcc, kern::Kernel::kScalar)
    ->DenseRange(0, kNumEncoderShapes - 1)->Name("BM_KernGemmAcc/scalar");
BENCHMARK_TEMPLATE(BM_KernGemmAcc, kern::Kernel::kAvx2)
    ->DenseRange(0, kNumEncoderShapes - 1)->Name("BM_KernGemmAcc/avx2");

template <kern::Kernel K>
void BM_KernGemmTransBAcc(benchmark::State& state) {
  if (!PinKernelOrSkip(state, K)) return;
  const auto& s = kEncoderShapes[state.range(0)];
  const int m = s[0], k = s[1], n = s[2];
  Rng rng(22);
  std::vector<float> a(static_cast<size_t>(m) * k), b(static_cast<size_t>(n) * k),
      out(static_cast<size_t>(m) * n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.Gaussian());
  for (auto& v : b) v = static_cast<float>(rng.Gaussian());
  for (auto _ : state) {
    kern::GemmTransBAcc(a.data(), b.data(), out.data(), m, k, n);
    benchmark::DoNotOptimize(out.data());
  }
  ReportGemmRate(state, m, k, n);
  kern::SetKernel(kern::ResolveKernelSpec(std::getenv("TPR_KERNEL")));
}
BENCHMARK_TEMPLATE(BM_KernGemmTransBAcc, kern::Kernel::kScalar)
    ->DenseRange(0, kNumEncoderShapes - 1)->Name("BM_KernGemmTransBAcc/scalar");
BENCHMARK_TEMPLATE(BM_KernGemmTransBAcc, kern::Kernel::kAvx2)
    ->DenseRange(0, kNumEncoderShapes - 1)->Name("BM_KernGemmTransBAcc/avx2");

// Int8 quantized-inference kernels (tpr::quant's hot path): the int8
// GEMM the quantized encoder dispatches (QuantizedEncoder widens each
// weight panel to int16 once at construction), plus the activation-row
// quantizer. Shapes are the ones the rung runs hot: the packed
// recurrent step at batch 32, the degenerate single-item step (m=1,
// pure B-panel streaming — the worst case for the row-tiled kernel) and
// the input-side projection.
constexpr int kWideShapes[][3] = {
    {32, 128, 512},  // batched recurrent step, production d_hidden
    {1, 128, 512},   // single-item recurrent step
    {20, 133, 512},  // input-side projection, one avg-length path
};

template <kern::Kernel K>
void BM_KernGemmInt8Wide(benchmark::State& state) {
  if (!PinKernelOrSkip(state, K)) return;
  const auto& s = kWideShapes[state.range(0)];
  const int m = s[0], k = s[1], n = s[2];
  Rng rng(33);
  std::vector<int8_t> a(static_cast<size_t>(m) * k);
  std::vector<int16_t> btw(static_cast<size_t>(n) * k);
  for (auto& v : a) {
    v = static_cast<int8_t>(static_cast<int>(rng.Uniform() * 255.0) - 127);
  }
  for (auto& v : btw) {
    v = static_cast<int16_t>(static_cast<int>(rng.Uniform() * 255.0) - 127);
  }
  std::vector<int32_t> out(static_cast<size_t>(m) * n);
  for (auto _ : state) {
    kern::GemmInt8Wide(a.data(), btw.data(), out.data(), m, k, n);
    benchmark::DoNotOptimize(out.data());
  }
  ReportGemmRate(state, m, k, n);
  kern::SetKernel(kern::ResolveKernelSpec(std::getenv("TPR_KERNEL")));
}
BENCHMARK_TEMPLATE(BM_KernGemmInt8Wide, kern::Kernel::kScalar)
    ->Arg(0)->Arg(1)->Arg(2)->Name("BM_KernGemmInt8Wide/scalar");
BENCHMARK_TEMPLATE(BM_KernGemmInt8Wide, kern::Kernel::kAvx2)
    ->Arg(0)->Arg(1)->Arg(2)->Name("BM_KernGemmInt8Wide/avx2");

void BM_QuantizeRow(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(32);
  std::vector<float> x(static_cast<size_t>(n));
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  std::vector<int8_t> q(static_cast<size_t>(n));
  for (auto _ : state) {
    kern::QuantizeRow(x.data(), 127.0f / 4.0f, q.data(), n);
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_QuantizeRow)->Arg(64)->Arg(256)->Arg(1024);

// Allocation cost at a graph-typical block size: warmed arena free-list
// hit vs a fresh system malloc/free pair.
void BM_ArenaAllocFree(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  kern::ArenaFree(kern::ArenaAlloc(bytes), bytes);  // warm the bucket
  for (auto _ : state) {
    void* p = kern::ArenaAlloc(bytes);
    benchmark::DoNotOptimize(p);
    kern::ArenaFree(p, bytes);
  }
}
BENCHMARK(BM_ArenaAllocFree)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_SystemAllocFree(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    void* p = ::operator new(bytes);
    // Touch one cache line per page so lazily-mapped fresh pages pay
    // their fault here, as arena misses do.
    auto* c = static_cast<char*>(p);
    for (size_t off = 0; off < bytes; off += 4096) c[off] = 1;
    benchmark::DoNotOptimize(p);
    ::operator delete(p);
  }
}
BENCHMARK(BM_SystemAllocFree)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_MatMulForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Var a = nn::UniformParam(n, n, 0.1f, rng);
  nn::Var b = nn::UniformParam(n, n, 0.1f, rng);
  for (auto _ : state) {
    nn::NoGradGuard no_grad;
    benchmark::DoNotOptimize(nn::MatMul(a, b).value().data());
  }
}
BENCHMARK(BM_MatMulForward)->Arg(32)->Arg(64)->Arg(128);

nn::Tensor RandomTensor(int rows, int cols, Rng& rng) {
  std::vector<float> data(static_cast<size_t>(rows) * cols);
  for (auto& v : data) v = static_cast<float>(rng.Gaussian());
  return nn::Tensor::FromValues(rows, cols, std::move(data));
}

// The three accumulate kernels below are the backward-pass workhorses;
// square n x n operands at sizes spanning sub-tile to multi-tile.
void BM_MatMulAccumulate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  const nn::Tensor a = RandomTensor(n, n, rng);
  const nn::Tensor b = RandomTensor(n, n, rng);
  nn::Tensor out = RandomTensor(n, n, rng);
  for (auto _ : state) {
    nn::MatMulAccumulate(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MatMulAccumulate)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransAAccumulate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  const nn::Tensor a = RandomTensor(n, n, rng);
  const nn::Tensor b = RandomTensor(n, n, rng);
  nn::Tensor out = RandomTensor(n, n, rng);
  for (auto _ : state) {
    nn::MatMulTransAAccumulate(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MatMulTransAAccumulate)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransBAccumulate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(13);
  const nn::Tensor a = RandomTensor(n, n, rng);
  const nn::Tensor b = RandomTensor(n, n, rng);
  nn::Tensor out = RandomTensor(n, n, rng);
  for (auto _ : state) {
    nn::MatMulTransBAccumulate(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MatMulTransBAccumulate)->Arg(64)->Arg(128)->Arg(256);

// Batch-loss assembly path: concatenating many small per-item losses.
void BM_ConcatColsForward(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  Rng rng(14);
  std::vector<nn::Var> vars;
  vars.reserve(parts);
  for (int i = 0; i < parts; ++i) {
    vars.push_back(nn::Var::Leaf(RandomTensor(1, 8, rng)));
  }
  for (auto _ : state) {
    nn::NoGradGuard no_grad;
    benchmark::DoNotOptimize(nn::ConcatCols(vars).value().data());
  }
}
BENCHMARK(BM_ConcatColsForward)->Arg(16)->Arg(64)->Arg(256);

// One path through the trainer's encoder LSTM (input 48, d_hidden 128,
// 2 layers): forward, then backward through LstmSequence.
void BM_LstmForwardBackward(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::Lstm lstm(48, 128, 2, rng);
  nn::Var x = nn::UniformParam(steps, 48, 0.1f, rng);
  for (auto _ : state) {
    nn::Var loss = nn::Sum(lstm.Forward(x));
    loss.Backward();
    benchmark::DoNotOptimize(loss.scalar());
  }
}
BENCHMARK(BM_LstmForwardBackward)->Arg(6)->Arg(12)->Arg(20);

void BM_Node2VecWalks(benchmark::State& state) {
  synth::CityConfig cfg;
  cfg.grid_width = 12;
  cfg.grid_height = 12;
  auto network = synth::GenerateCity(cfg);
  const auto topo = network->BuildTopologyGraph();
  node2vec::Node2VecConfig n2v;
  n2v.walks_per_node = 2;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(node2vec::GenerateWalks(topo, n2v, rng));
  }
}
BENCHMARK(BM_Node2VecWalks);

void BM_GbdtFit(benchmark::State& state) {
  const int rows = 500, cols = 16;
  Rng rng(4);
  gbdt::Matrix x(rows, cols);
  std::vector<float> y(rows);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      x.at(i, j) = static_cast<float>(rng.Gaussian());
    }
    y[i] = x.at(i, 0) * 2 + x.at(i, 1);
  }
  gbdt::BoostingConfig cfg;
  cfg.num_trees = 30;
  for (auto _ : state) {
    gbdt::GradientBoostingRegressor gbr(cfg);
    benchmark::DoNotOptimize(gbr.Fit(x, y).ok());
  }
}
BENCHMARK(BM_GbdtFit);

}  // namespace
}  // namespace tpr

// Custom main instead of benchmark_main so the CI smoke runner can pass
// the same --smoke flag it gives every other bench binary: smoke mode
// caps per-benchmark measurement time so the full suite runs in seconds.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static char min_time[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
