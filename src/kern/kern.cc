#include "kern/kern.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "kern/kern_internal.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace tpr::kern {

namespace {

// Cache-blocking tile for the scalar kernels (floats). 64x64 fp32 tiles
// of a and b together fit comfortably in a 32 KiB L1. Each scalar kernel
// keeps the per-output-element accumulation order of the original naive
// loops in src/nn/tensor.cc, so scalar results are bit-identical to the
// pre-kern library.
constexpr int kTile = 64;

namespace scalar {

void GemmAcc(const float* a, const float* b, float* out, int m, int k,
             int n) {
  // Blocked i-k-j: for each (j, kk) tile, the touched rows of b stay hot
  // in cache while every row of a streams through. kk remains increasing
  // for each output element. A single row reuses no tile, so it sweeps
  // each row of b whole (twice as fast at the recurrent-step shape).
  const int j_tile = m == 1 ? n : kTile;
  for (int j0 = 0; j0 < n; j0 += j_tile) {
    const int j1 = std::min(n, j0 + j_tile);
    for (int k0 = 0; k0 < k; k0 += kTile) {
      const int k1 = std::min(k, k0 + kTile);
      for (int i = 0; i < m; ++i) {
        float* out_row = out + static_cast<size_t>(i) * n;
        const float* a_row = a + static_cast<size_t>(i) * k;
        for (int kk = k0; kk < k1; ++kk) {
          const float av = a_row[kk];
          if (av == 0.0f) continue;
          const float* b_row = b + static_cast<size_t>(kk) * n;
          for (int j = j0; j < j1; ++j) out_row[j] += av * b_row[j];
        }
      }
    }
  }
}

void GemmTransAAcc(const float* a, const float* b, float* out, int k, int m,
                   int n) {
  // Blocked over (i, j) output tiles with the full kk sweep innermost-
  // but-two, so each out tile stays resident while a and b stream.
  for (int i0 = 0; i0 < m; i0 += kTile) {
    const int i1 = std::min(m, i0 + kTile);
    for (int j0 = 0; j0 < n; j0 += kTile) {
      const int j1 = std::min(n, j0 + kTile);
      for (int kk = 0; kk < k; ++kk) {
        const float* a_row = a + static_cast<size_t>(kk) * m;
        const float* b_row = b + static_cast<size_t>(kk) * n;
        for (int i = i0; i < i1; ++i) {
          const float av = a_row[i];
          if (av == 0.0f) continue;
          float* out_row = out + static_cast<size_t>(i) * n;
          for (int j = j0; j < j1; ++j) out_row[j] += av * b_row[j];
        }
      }
    }
  }
}

void GemmTransBAcc(const float* a, const float* b, float* out, int m, int k,
                   int n) {
  // Blocked over j: the tile's rows of b (kTile * k floats) are reused
  // across every row of a. The full-k dot per output element keeps the
  // naive summation order.
  for (int j0 = 0; j0 < n; j0 += kTile) {
    const int j1 = std::min(n, j0 + kTile);
    for (int i = 0; i < m; ++i) {
      const float* a_row = a + static_cast<size_t>(i) * k;
      float* out_row = out + static_cast<size_t>(i) * n;
      for (int j = j0; j < j1; ++j) {
        const float* b_row = b + static_cast<size_t>(j) * k;
        float s = 0.0f;
        for (int kk = 0; kk < k; ++kk) s += a_row[kk] * b_row[kk];
        out_row[j] += s;
      }
    }
  }
}

void GemmInt8Wide(const int8_t* a, const int16_t* bt, int32_t* out, int m,
                  int k, int n) {
  // Same j-blocked shape as GemmTransBAcc: a tile of bt rows is reused
  // across every row of a. Summation order is irrelevant here — the
  // int32 accumulation is exact — but the blocking keeps the packed
  // weight panel hot.
  for (int j0 = 0; j0 < n; j0 += kTile) {
    const int j1 = std::min(n, j0 + kTile);
    for (int i = 0; i < m; ++i) {
      const int8_t* a_row = a + static_cast<size_t>(i) * k;
      int32_t* out_row = out + static_cast<size_t>(i) * n;
      for (int j = j0; j < j1; ++j) {
        const int16_t* b_row = bt + static_cast<size_t>(j) * k;
        int32_t s = 0;
        for (int kk = 0; kk < k; ++kk) {
          s += static_cast<int32_t>(a_row[kk]) *
               static_cast<int32_t>(b_row[kk]);
        }
        out_row[j] = s;
      }
    }
  }
}

}  // namespace scalar

// -1 = unresolved; otherwise the int value of the Kernel enum.
std::atomic<int> g_kernel{-1};

// The calling thread's ThreadKernelPin: -1 = none, otherwise the int
// value of the Kernel enum. Checked before g_kernel.
thread_local int t_pinned = -1;

}  // namespace

bool CpuSupportsAvx2() {
#if defined(TPR_NO_AVX2)
  return false;
#elif defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const char* KernelName(Kernel k) {
  return k == Kernel::kAvx2 ? "avx2" : "scalar";
}

Kernel ResolveKernelSpec(const char* spec) {
  const char* s = spec != nullptr ? spec : "auto";
  if (std::strcmp(s, "scalar") == 0) return Kernel::kScalar;
  if (std::strcmp(s, "avx2") == 0) {
    TPR_CHECK(CpuSupportsAvx2())
        << "TPR_KERNEL=avx2 requested but this CPU/build lacks AVX2+FMA; "
           "a silent fallback would break run reproducibility";
    return Kernel::kAvx2;
  }
  TPR_CHECK(std::strcmp(s, "auto") == 0 || *s == '\0')
      << "TPR_KERNEL must be scalar, avx2, or auto (got '" << s << "')";
  return CpuSupportsAvx2() ? Kernel::kAvx2 : Kernel::kScalar;
}

Kernel ActiveKernel() {
  if (t_pinned >= 0) return static_cast<Kernel>(t_pinned);
  int k = g_kernel.load(std::memory_order_acquire);
  if (k < 0) {
    const Kernel resolved = ResolveKernelSpec(std::getenv("TPR_KERNEL"));
    int expected = -1;
    // First resolver wins; concurrent callers agree because the spec is
    // process-wide.
    g_kernel.compare_exchange_strong(expected, static_cast<int>(resolved),
                                     std::memory_order_acq_rel);
    k = g_kernel.load(std::memory_order_acquire);
    obs::GetGauge("kern.active").Set(static_cast<double>(k));
  }
  return static_cast<Kernel>(k);
}

void SetKernel(Kernel k) {
  TPR_CHECK(k == Kernel::kScalar || CpuSupportsAvx2())
      << "cannot select avx2 kernels: unsupported on this CPU/build";
  g_kernel.store(static_cast<int>(k), std::memory_order_release);
  obs::GetGauge("kern.active").Set(static_cast<double>(static_cast<int>(k)));
}

ThreadKernelPin::ThreadKernelPin(Kernel k) : previous_(t_pinned) {
  TPR_CHECK(k == Kernel::kScalar || CpuSupportsAvx2())
      << "cannot pin avx2 kernels: unsupported on this CPU/build";
  t_pinned = static_cast<int>(k);
}

ThreadKernelPin::~ThreadKernelPin() { t_pinned = previous_; }

void GemmAcc(const float* a, const float* b, float* out, int m, int k,
             int n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
#if !defined(TPR_NO_AVX2)
  if (ActiveKernel() == Kernel::kAvx2) {
    avx2::GemmAcc(a, b, out, m, k, n);
    return;
  }
#endif
  scalar::GemmAcc(a, b, out, m, k, n);
}

void GemmTransAAcc(const float* a, const float* b, float* out, int k, int m,
                   int n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
#if !defined(TPR_NO_AVX2)
  if (ActiveKernel() == Kernel::kAvx2) {
    avx2::GemmTransAAcc(a, b, out, k, m, n);
    return;
  }
#endif
  scalar::GemmTransAAcc(a, b, out, k, m, n);
}

void GemmTransBAcc(const float* a, const float* b, float* out, int m, int k,
                   int n) {
  if (m <= 0 || n <= 0) return;
#if !defined(TPR_NO_AVX2)
  if (ActiveKernel() == Kernel::kAvx2) {
    avx2::GemmTransBAcc(a, b, out, m, k, n);
    return;
  }
#endif
  scalar::GemmTransBAcc(a, b, out, m, k, n);
}

void GemmInt8Wide(const int8_t* a, const int16_t* btw, int32_t* out, int m,
                  int k, int n) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::memset(out, 0, static_cast<size_t>(m) * n * sizeof(int32_t));
    return;
  }
#if !defined(TPR_NO_AVX2)
  if (ActiveKernel() == Kernel::kAvx2) {
    avx2::GemmInt8Wide(a, btw, out, m, k, n);
    return;
  }
#endif
  scalar::GemmInt8Wide(a, btw, out, m, k, n);
}

namespace {

// Runs a bitwise avx2 leg (the int8 epilogues) over the whole 8-lane
// blocks of n columns when avx2 is active, and returns the first column
// left to the caller's scalar loop. Every tail runs here: the -mfma
// translation unit would contract a scalar tail into FMAs.
template <typename Leg>
int Avx2Blocks([[maybe_unused]] int n, [[maybe_unused]] const Leg& leg) {
#if !defined(TPR_NO_AVX2)
  if (n >= 8 && ActiveKernel() == Kernel::kAvx2) {
    leg();
    return n & ~7;
  }
#endif
  return 0;
}

}  // namespace

void DequantBias(const int32_t* acc, float a_scale, const float* b_scales,
                 const float* bias, float* y, int m, int n) {
  // The avx2 epilogue applies the identical lane-wise op sequence (one
  // mul + one mul + one add, no FMA), so the quantized forward stays
  // bitwise kernel-independent up to the fused cell.
  const int j0 = Avx2Blocks(n, [&] {
    avx2::DequantBias(acc, a_scale, b_scales, bias, y, m, n);
  });
  for (int i = 0; i < m; ++i) {
    const int32_t* acc_row = acc + static_cast<size_t>(i) * n;
    float* y_row = y + static_cast<size_t>(i) * n;
    for (int j = j0; j < n; ++j) {
      const float v = static_cast<float>(acc_row[j]) * (a_scale * b_scales[j]);
      y_row[j] = bias != nullptr ? v + bias[j] : v;
    }
  }
}

void DequantAcc(const int32_t* acc, float a_scale, const float* b_scales,
                float* y, int m, int n) {
  const int j0 = Avx2Blocks(
      n, [&] { avx2::DequantAcc(acc, a_scale, b_scales, y, m, n); });
  for (int i = 0; i < m; ++i) {
    const int32_t* acc_row = acc + static_cast<size_t>(i) * n;
    float* y_row = y + static_cast<size_t>(i) * n;
    for (int j = j0; j < n; ++j) {
      y_row[j] += static_cast<float>(acc_row[j]) * (a_scale * b_scales[j]);
    }
  }
}

void QuantizeRow(const float* x, float inv_scale, int8_t* q, int n) {
  const int i0 =
      Avx2Blocks(n, [&] { avx2::QuantizeRow(x, inv_scale, q, n); });
  for (int i = i0; i < n; ++i) {
    // nearbyintf under the default rounding mode is round-to-nearest-
    // even, matching the offline weight quantizer.
    float r = std::nearbyintf(x[i] * inv_scale);
    if (r > 127.0f) r = 127.0f;
    if (r < -127.0f) r = -127.0f;
    q[i] = static_cast<int8_t>(r);
  }
}

void HadamardAcc(const float* a, const float* b, float* out, int n) {
#if !defined(TPR_NO_AVX2)
  if (n >= 16 && ActiveKernel() == Kernel::kAvx2) {
    avx2::HadamardAcc(a, b, out, n);
    return;
  }
#endif
  for (int i = 0; i < n; ++i) out[i] += a[i] * b[i];
}

void AxpyAcc(float alpha, const float* x, float* y, int n) {
#if !defined(TPR_NO_AVX2)
  if (n >= 16 && ActiveKernel() == Kernel::kAvx2) {
    avx2::AxpyAcc(alpha, x, y, n);
    return;
  }
#endif
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AddAcc(const float* x, float* y, int n) {
#if !defined(TPR_NO_AVX2)
  if (n >= 16 && ActiveKernel() == Kernel::kAvx2) {
    avx2::AddAcc(x, y, n);
    return;
  }
#endif
  for (int i = 0; i < n; ++i) y[i] += x[i];
}

void LstmCellRow(const float* g, const float* c_prev, float* act, float* out,
                 int h) {
#if !defined(TPR_NO_AVX2)
  if (h >= 8 && ActiveKernel() == Kernel::kAvx2) {
    avx2::LstmCellRow(g, c_prev, act, out, h);
    return;
  }
#endif
  for (int j = 0; j < h; ++j) {
    const float ig = SigmoidScalar(g[j]);
    const float fg = SigmoidScalar(g[h + j]);
    const float gg = std::tanh(g[2 * h + j]);
    const float og = SigmoidScalar(g[3 * h + j]);
    const float c = fg * c_prev[j] + ig * gg;
    const float tc = std::tanh(c);
    act[j] = ig;
    act[h + j] = fg;
    act[2 * h + j] = gg;
    act[3 * h + j] = og;
    act[4 * h + j] = tc;
    out[j] = og * tc;
    out[h + j] = c;
  }
}

void GruCellRow(const float* gi, const float* gh, const float* h_prev,
                float* act, float* out, int h) {
#if !defined(TPR_NO_AVX2)
  if (h >= 8 && ActiveKernel() == Kernel::kAvx2) {
    avx2::GruCellRow(gi, gh, h_prev, act, out, h);
    return;
  }
#endif
  for (int j = 0; j < h; ++j) {
    const float rg = SigmoidScalar(gi[j] + gh[j]);
    const float zg = SigmoidScalar(gi[h + j] + gh[h + j]);
    const float ng = std::tanh(gi[2 * h + j] + rg * gh[2 * h + j]);
    act[j] = rg;
    act[h + j] = zg;
    act[2 * h + j] = ng;
    // Matches the unfused composition (n - z*n) + z*h_prev exactly.
    out[j] = (ng - zg * ng) + zg * h_prev[j];
  }
}

}  // namespace tpr::kern
