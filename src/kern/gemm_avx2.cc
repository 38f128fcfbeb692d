// AVX2/FMA GEMM microkernels. This is the only TU compiled with
// -mavx2 -mfma; nothing here may run unless kern dispatch verified CPUID
// support. All loops use a fixed summation order, so results are
// deterministic for a pinned kernel — just not bitwise equal to scalar.
//
// Layout of the main kernels: 16-column panels of B (optionally packed
// contiguously when the row count amortises the copy), register tiles of
// up to 4 A-rows x 16 columns accumulated over the full K extent in ymm
// registers, then added into C once per tile. The A element stride is
// parameterised so the same microkernel serves both A and A^T operands.

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "kern/arena.h"
#include "kern/kern_internal.h"

namespace tpr::kern::avx2 {

namespace {

constexpr int kPanel = 16;  // B panel width in floats (two ymm)

// Packing pays once a panel is reused across several row tiles.
constexpr int kPackMinRows = 8;

inline float Hsum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

// Copies the k x 16 column panel of b (k x n, row-major) at column j0
// into contiguous pb.
inline void PackB16(const float* b, int k, int n, int j0, float* pb) {
  for (int kk = 0; kk < k; ++kk) {
    std::memcpy(pb + static_cast<size_t>(kk) * kPanel,
                b + static_cast<size_t>(kk) * n + j0,
                kPanel * sizeof(float));
  }
}

// ROWS x 16 register tiles: out[r, 0..16) += sum_kk A(r, kk) * B(kk, 0..16).
// A element (r, kk) sits at abase[r * a_row_stride + kk * a_k_stride] so
// the kernel serves both normal (stride k, 1) and transposed (stride 1,
// m) A operands. bcol walks B's panel rows with stride bstride (16 when
// packed, n otherwise).
//
// The accumulators are individually named locals, NOT arrays: GCC at -O2
// does not promote indexed __m256 arrays to registers here, and the
// resulting stack spills in the kk loop cost ~3x throughput. Each output
// element still accumulates sequentially over kk in a single register,
// so tile row count never changes results.
#define TPR_TILE16_ROW_INIT(R)            \
  __m256 c##R##0 = _mm256_setzero_ps();   \
  __m256 c##R##1 = _mm256_setzero_ps();   \
  const float* a##R = abase + (R) * a_row_stride;
#define TPR_TILE16_ROW_FMA(R)                            \
  av = _mm256_broadcast_ss(a##R + ko);                   \
  c##R##0 = _mm256_fmadd_ps(av, b0, c##R##0);            \
  c##R##1 = _mm256_fmadd_ps(av, b1, c##R##1);
#define TPR_TILE16_ROW_STORE(R)                                            \
  o = out + (R) * static_cast<size_t>(ldc);                                \
  _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), c##R##0));         \
  _mm256_storeu_ps(o + 8, _mm256_add_ps(_mm256_loadu_ps(o + 8), c##R##1));

inline void Tile16R6(const float* abase, size_t a_row_stride,
                     size_t a_k_stride, int k, const float* bcol,
                     size_t bstride, float* out, int ldc) {
  TPR_TILE16_ROW_INIT(0) TPR_TILE16_ROW_INIT(1) TPR_TILE16_ROW_INIT(2)
  TPR_TILE16_ROW_INIT(3) TPR_TILE16_ROW_INIT(4) TPR_TILE16_ROW_INIT(5)
  for (int kk = 0; kk < k; ++kk) {
    const size_t ko = static_cast<size_t>(kk) * a_k_stride;
    const __m256 b0 = _mm256_loadu_ps(bcol + static_cast<size_t>(kk) * bstride);
    const __m256 b1 =
        _mm256_loadu_ps(bcol + static_cast<size_t>(kk) * bstride + 8);
    __m256 av;
    TPR_TILE16_ROW_FMA(0) TPR_TILE16_ROW_FMA(1) TPR_TILE16_ROW_FMA(2)
    TPR_TILE16_ROW_FMA(3) TPR_TILE16_ROW_FMA(4) TPR_TILE16_ROW_FMA(5)
  }
  float* o;
  TPR_TILE16_ROW_STORE(0) TPR_TILE16_ROW_STORE(1) TPR_TILE16_ROW_STORE(2)
  TPR_TILE16_ROW_STORE(3) TPR_TILE16_ROW_STORE(4) TPR_TILE16_ROW_STORE(5)
}

inline void Tile16R2(const float* abase, size_t a_row_stride,
                     size_t a_k_stride, int k, const float* bcol,
                     size_t bstride, float* out, int ldc) {
  TPR_TILE16_ROW_INIT(0) TPR_TILE16_ROW_INIT(1)
  for (int kk = 0; kk < k; ++kk) {
    const size_t ko = static_cast<size_t>(kk) * a_k_stride;
    const __m256 b0 = _mm256_loadu_ps(bcol + static_cast<size_t>(kk) * bstride);
    const __m256 b1 =
        _mm256_loadu_ps(bcol + static_cast<size_t>(kk) * bstride + 8);
    __m256 av;
    TPR_TILE16_ROW_FMA(0) TPR_TILE16_ROW_FMA(1)
  }
  float* o;
  TPR_TILE16_ROW_STORE(0) TPR_TILE16_ROW_STORE(1)
}

inline void Tile16R1(const float* abase, size_t a_row_stride,
                     size_t a_k_stride, int k, const float* bcol,
                     size_t bstride, float* out, int ldc) {
  TPR_TILE16_ROW_INIT(0)
  for (int kk = 0; kk < k; ++kk) {
    const size_t ko = static_cast<size_t>(kk) * a_k_stride;
    const __m256 b0 = _mm256_loadu_ps(bcol + static_cast<size_t>(kk) * bstride);
    const __m256 b1 =
        _mm256_loadu_ps(bcol + static_cast<size_t>(kk) * bstride + 8);
    __m256 av;
    TPR_TILE16_ROW_FMA(0)
  }
  float* o;
  TPR_TILE16_ROW_STORE(0)
}

#undef TPR_TILE16_ROW_INIT
#undef TPR_TILE16_ROW_FMA
#undef TPR_TILE16_ROW_STORE

// ROWS x 8 register tile for the 8..15-column tail.
template <int ROWS>
inline void Tile8(const float* abase, size_t a_row_stride, size_t a_k_stride,
                  int k, const float* bcol, size_t bstride, float* out,
                  int ldc) {
  __m256 acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = _mm256_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bcol + static_cast<size_t>(kk) * bstride);
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(
          abase + static_cast<size_t>(r) * a_row_stride +
          static_cast<size_t>(kk) * a_k_stride);
      acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    float* o = out + static_cast<size_t>(r) * ldc;
    _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), acc[r]));
  }
}

// Shared driver for out += op(A) * B with op(A) addressed through the
// two strides (see Tile16).
void GemmStridedA(const float* a, size_t a_row_stride, size_t a_k_stride,
                  const float* b, float* out, int m, int k, int n) {
  FloatBuffer pack;
  const bool do_pack = m >= kPackMinRows && n >= kPanel;
  if (do_pack) pack = FloatBuffer(static_cast<size_t>(k) * kPanel);

  int j = 0;
  for (; j + kPanel <= n; j += kPanel) {
    const float* bcol = b + j;
    size_t bstride = static_cast<size_t>(n);
    if (do_pack) {
      PackB16(b, k, n, j, pack.data());
      bcol = pack.data();
      bstride = kPanel;
    }
    int i = 0;
    for (; i + 6 <= m; i += 6) {
      Tile16R6(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
               a_k_stride, k, bcol, bstride,
               out + static_cast<size_t>(i) * n + j, n);
    }
    for (; i + 2 <= m; i += 2) {
      Tile16R2(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
               a_k_stride, k, bcol, bstride,
               out + static_cast<size_t>(i) * n + j, n);
    }
    for (; i < m; ++i) {
      Tile16R1(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
               a_k_stride, k, bcol, bstride,
               out + static_cast<size_t>(i) * n + j, n);
    }
  }
  if (j + 8 <= n) {
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      Tile8<4>(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
               a_k_stride, k, b + j, static_cast<size_t>(n),
               out + static_cast<size_t>(i) * n + j, n);
    }
    for (; i < m; ++i) {
      Tile8<1>(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
               a_k_stride, k, b + j, static_cast<size_t>(n),
               out + static_cast<size_t>(i) * n + j, n);
    }
    j += 8;
  }
  // Scalar column tail (< 8 columns): per-element dot over k, fixed order.
  for (; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const float* ar = a + static_cast<size_t>(i) * a_row_stride;
      float s = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        s += ar[static_cast<size_t>(kk) * a_k_stride] *
             b[static_cast<size_t>(kk) * n + j];
      }
      out[static_cast<size_t>(i) * n + j] += s;
    }
  }
}

}  // namespace

void GemmAcc(const float* a, const float* b, float* out, int m, int k,
             int n) {
  GemmStridedA(a, static_cast<size_t>(k), 1, b, out, m, k, n);
}

void GemmTransAAcc(const float* a, const float* b, float* out, int k, int m,
                   int n) {
  // A is k x m; element (i, kk) of A^T sits at a[kk * m + i].
  GemmStridedA(a, 1, static_cast<size_t>(m), b, out, m, k, n);
}

void GemmTransBAcc(const float* a, const float* b, float* out, int m, int k,
                   int n) {
  // out[i, j] = dot(a_row_i, b_row_j): both rows contiguous, so this is
  // a vector dot with 4 B-rows sharing each A load.
  for (int i = 0; i < m; ++i) {
    const float* ar = a + static_cast<size_t>(i) * k;
    float* out_row = out + static_cast<size_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      const float* b0 = b + static_cast<size_t>(j) * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      int kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        const __m256 va = _mm256_loadu_ps(ar + kk);
        acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b0 + kk), acc0);
        acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b1 + kk), acc1);
        acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b2 + kk), acc2);
        acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b3 + kk), acc3);
      }
      float t0 = Hsum(acc0), t1 = Hsum(acc1), t2 = Hsum(acc2),
            t3 = Hsum(acc3);
      for (; kk < k; ++kk) {
        const float av = ar[kk];
        t0 += av * b0[kk];
        t1 += av * b1[kk];
        t2 += av * b2[kk];
        t3 += av * b3[kk];
      }
      out_row[j] += t0;
      out_row[j + 1] += t1;
      out_row[j + 2] += t2;
      out_row[j + 3] += t3;
    }
    for (; j < n; ++j) {
      const float* br = b + static_cast<size_t>(j) * k;
      __m256 acc = _mm256_setzero_ps();
      int kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(ar + kk),
                              _mm256_loadu_ps(br + kk), acc);
      }
      float s = Hsum(acc);
      for (; kk < k; ++kk) s += ar[kk] * br[kk];
      out_row[j] += s;
    }
  }
}

namespace {

inline int32_t HsumI32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// 16 int16 pairs per step, both operands already widened: one madd and
// one add per 16 MACs, with no per-iteration sign extension.
inline __m256i Dot16I16(const int16_t* a, const int16_t* b, __m256i acc) {
  const __m256i va =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
}

}  // namespace

void GemmInt8Wide(const int8_t* a, const int16_t* bt, int32_t* out, int m,
                  int k, int n) {
  // The weight panel is pre-widened by the caller. Up to kRowTile
  // activation rows are widened once into an L1-resident int16 tile and
  // the column loop runs OUTSIDE the row loop within each tile, so a
  // 4-channel weight block is pulled from L2 once per tile and then
  // served from L1 for every row — with a row-outer order the panel is
  // re-streamed per row and batched (m > 1) calls gain nothing over
  // m = 1. Each out[i, j] is still an independent exact dot product, so
  // results are identical for any m and to the scalar kernel.
  constexpr int kRowTile = 32;
  static thread_local std::vector<int16_t> a16_scratch;
  a16_scratch.resize(static_cast<size_t>(kRowTile) * k);
  int16_t* a16 = a16_scratch.data();
  for (int i0 = 0; i0 < m; i0 += kRowTile) {
    const int mt = m - i0 < kRowTile ? m - i0 : kRowTile;
    for (int i = 0; i < mt; ++i) {
      const int8_t* ar = a + static_cast<size_t>(i0 + i) * k;
      int16_t* dst = a16 + static_cast<size_t>(i) * k;
      int kk = 0;
      for (; kk + 16 <= k; kk += 16) {
        const __m256i wide = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(ar + kk)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + kk), wide);
      }
      for (; kk < k; ++kk) dst[kk] = ar[kk];
    }
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const int16_t* b0 = bt + static_cast<size_t>(j) * k;
      const int16_t* b1 = b0 + k;
      const int16_t* b2 = b1 + k;
      const int16_t* b3 = b2 + k;
      // 2-row x 4-channel register block: the four weight loads of each
      // k-step are shared by two activation rows (6 loads per 8 madds
      // instead of 10), which matters because the kernel is load-port
      // bound, not multiply bound. 8 accumulators + 4 weight + 2
      // activation registers fit the 16 ymm budget.
      int i = 0;
      for (; i + 2 <= mt; i += 2) {
        const int16_t* arow0 = a16 + static_cast<size_t>(i) * k;
        const int16_t* arow1 = arow0 + k;
        int32_t* out_row0 = out + static_cast<size_t>(i0 + i) * n;
        int32_t* out_row1 = out_row0 + n;
        __m256i acc00 = _mm256_setzero_si256();
        __m256i acc01 = _mm256_setzero_si256();
        __m256i acc02 = _mm256_setzero_si256();
        __m256i acc03 = _mm256_setzero_si256();
        __m256i acc10 = _mm256_setzero_si256();
        __m256i acc11 = _mm256_setzero_si256();
        __m256i acc12 = _mm256_setzero_si256();
        __m256i acc13 = _mm256_setzero_si256();
        int kk = 0;
        for (; kk + 16 <= k; kk += 16) {
          const __m256i vb0 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(b0 + kk));
          const __m256i vb1 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(b1 + kk));
          const __m256i vb2 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(b2 + kk));
          const __m256i vb3 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(b3 + kk));
          const __m256i va0 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(arow0 + kk));
          const __m256i va1 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(arow1 + kk));
          acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(va0, vb0));
          acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(va0, vb1));
          acc02 = _mm256_add_epi32(acc02, _mm256_madd_epi16(va0, vb2));
          acc03 = _mm256_add_epi32(acc03, _mm256_madd_epi16(va0, vb3));
          acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(va1, vb0));
          acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(va1, vb1));
          acc12 = _mm256_add_epi32(acc12, _mm256_madd_epi16(va1, vb2));
          acc13 = _mm256_add_epi32(acc13, _mm256_madd_epi16(va1, vb3));
        }
        int32_t t00 = HsumI32(acc00), t01 = HsumI32(acc01),
                t02 = HsumI32(acc02), t03 = HsumI32(acc03);
        int32_t t10 = HsumI32(acc10), t11 = HsumI32(acc11),
                t12 = HsumI32(acc12), t13 = HsumI32(acc13);
        for (; kk < k; ++kk) {
          const int32_t a0 = arow0[kk], a1 = arow1[kk];
          t00 += a0 * b0[kk];
          t01 += a0 * b1[kk];
          t02 += a0 * b2[kk];
          t03 += a0 * b3[kk];
          t10 += a1 * b0[kk];
          t11 += a1 * b1[kk];
          t12 += a1 * b2[kk];
          t13 += a1 * b3[kk];
        }
        out_row0[j] = t00;
        out_row0[j + 1] = t01;
        out_row0[j + 2] = t02;
        out_row0[j + 3] = t03;
        out_row1[j] = t10;
        out_row1[j + 1] = t11;
        out_row1[j + 2] = t12;
        out_row1[j + 3] = t13;
      }
      for (; i < mt; ++i) {
        const int16_t* arow = a16 + static_cast<size_t>(i) * k;
        int32_t* out_row = out + static_cast<size_t>(i0 + i) * n;
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        __m256i acc2 = _mm256_setzero_si256();
        __m256i acc3 = _mm256_setzero_si256();
        int kk = 0;
        for (; kk + 16 <= k; kk += 16) {
          acc0 = Dot16I16(arow + kk, b0 + kk, acc0);
          acc1 = Dot16I16(arow + kk, b1 + kk, acc1);
          acc2 = Dot16I16(arow + kk, b2 + kk, acc2);
          acc3 = Dot16I16(arow + kk, b3 + kk, acc3);
        }
        int32_t t0 = HsumI32(acc0), t1 = HsumI32(acc1), t2 = HsumI32(acc2),
                t3 = HsumI32(acc3);
        for (; kk < k; ++kk) {
          const int32_t av = arow[kk];
          t0 += av * b0[kk];
          t1 += av * b1[kk];
          t2 += av * b2[kk];
          t3 += av * b3[kk];
        }
        out_row[j] = t0;
        out_row[j + 1] = t1;
        out_row[j + 2] = t2;
        out_row[j + 3] = t3;
      }
    }
    for (; j < n; ++j) {
      const int16_t* br = bt + static_cast<size_t>(j) * k;
      for (int i = 0; i < mt; ++i) {
        const int16_t* arow = a16 + static_cast<size_t>(i) * k;
        __m256i acc = _mm256_setzero_si256();
        int kk = 0;
        for (; kk + 16 <= k; kk += 16) acc = Dot16I16(arow + kk, br + kk, acc);
        int32_t s = HsumI32(acc);
        for (; kk < k; ++kk) {
          s += static_cast<int32_t>(arow[kk]) * static_cast<int32_t>(br[kk]);
        }
        out[static_cast<size_t>(i0 + i) * n + j] = s;
      }
    }
  }
}

namespace {

// This TU is compiled with -mfma and the default -ffp-contract=fast, so
// GCC will happily fuse a mul_ps feeding an add_ps into one vfmadd —
// which rounds once where the scalar code rounds twice and would break
// the bitwise kernel-independence of the dequant epilogues. The empty
// asm pins the product in a register, making the mul observable and
// therefore uncontractable. Costs nothing at runtime. Plain scalar code
// here contracts too, which is why those epilogues leave their n % 8
// tails to kern.cc.
inline __m256 BlockFmaContraction(__m256 v) {
  asm("" : "+x"(v));
  return v;
}

}  // namespace

void DequantBias(const int32_t* acc, float a_scale, const float* b_scales,
                 const float* bias, float* y, int m, int n) {
  // Lane-wise the same op sequence as the scalar epilogue — convert,
  // multiply by (a_scale * b_scales[j]), add bias — with no FMA, so the
  // result is bitwise identical to the scalar kernel's.
  const __m256 va = _mm256_set1_ps(a_scale);
  for (int i = 0; i < m; ++i) {
    const int32_t* acc_row = acc + static_cast<size_t>(i) * n;
    float* y_row = y + static_cast<size_t>(i) * n;
    for (int j = 0; j + 8 <= n; j += 8) {
      const __m256 s = _mm256_mul_ps(va, _mm256_loadu_ps(b_scales + j));
      const __m256 v = BlockFmaContraction(_mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(acc_row + j))),
          s));
      _mm256_storeu_ps(
          y_row + j,
          bias != nullptr ? _mm256_add_ps(v, _mm256_loadu_ps(bias + j)) : v);
    }
  }
}

void DequantAcc(const int32_t* acc, float a_scale, const float* b_scales,
                float* y, int m, int n) {
  const __m256 va = _mm256_set1_ps(a_scale);
  for (int i = 0; i < m; ++i) {
    const int32_t* acc_row = acc + static_cast<size_t>(i) * n;
    float* y_row = y + static_cast<size_t>(i) * n;
    for (int j = 0; j + 8 <= n; j += 8) {
      const __m256 s = _mm256_mul_ps(va, _mm256_loadu_ps(b_scales + j));
      const __m256 v = BlockFmaContraction(_mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(acc_row + j))),
          s));
      _mm256_storeu_ps(y_row + j, _mm256_add_ps(_mm256_loadu_ps(y_row + j), v));
    }
  }
}

void QuantizeRow(const float* x, float inv_scale, int8_t* q, int n) {
  // Round-to-nearest-even via _mm256_round_ps matches nearbyintf under
  // the default rounding mode; the clamp happens before conversion so
  // the int32 -> int8 packing never saturates differently from the
  // scalar path.
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256 vmax = _mm256_set1_ps(127.0f);
  const __m256 vmin = _mm256_set1_ps(-127.0f);
  for (int i = 0; i + 8 <= n; i += 8) {
    __m256 r = _mm256_round_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), vs),
                               _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    r = _mm256_min_ps(r, vmax);
    r = _mm256_max_ps(r, vmin);
    const __m256i vi = _mm256_cvtps_epi32(r);
    const __m128i v16 = _mm_packs_epi32(_mm256_castsi256_si128(vi),
                                        _mm256_extracti128_si256(vi, 1));
    const __m128i v8 = _mm_packs_epi16(v16, _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), v8);
  }
}

void HadamardAcc(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i),
                                       _mm256_loadu_ps(out + i));
    _mm256_storeu_ps(out + i, acc);
  }
  for (; i < n; ++i) out[i] += a[i] * b[i];
}

void AxpyAcc(float alpha, const float* x, float* y, int n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 acc =
        _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, acc);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void AddAcc(const float* x, float* y, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

// ---------------------------------------------------------------------------
// Vector transcendentals + fused recurrent cell rows.
//
// Exp8 is the classic Cephes polynomial (range-reduce by powers of two,
// degree-5 minimax on the residual), accurate to ~2 ulp over the clamped
// range. Sigmoid/tanh derive from it with one division each. These do
// NOT produce the same bits as std::exp-based scalar math — which is
// fine: the avx2 kernel is already a distinct deterministic numeric
// domain (see kern.h). What matters for the batched-inference contract
// is that every row of a batch goes through the exact same lane-uniform
// code below, so batched rows stay bitwise equal to single-row calls
// under either kernel.
// ---------------------------------------------------------------------------

namespace {

inline __m256 Exp8(__m256 x) {
  const __m256 kHi = _mm256_set1_ps(88.3762626647950f);
  const __m256 kLo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kHalf = _mm256_set1_ps(0.5f);
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 kC1 = _mm256_set1_ps(0.693359375f);
  const __m256 kC2 = _mm256_set1_ps(-2.12194440e-4f);

  x = _mm256_min_ps(_mm256_max_ps(x, kLo), kHi);
  __m256 fx = _mm256_fmadd_ps(x, kLog2e, kHalf);
  fx = _mm256_floor_ps(fx);
  // Extended-precision x -= fx * ln2.
  x = _mm256_fnmadd_ps(fx, kC1, x);
  x = _mm256_fnmadd_ps(fx, kC2, x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, kOne));

  // Scale by 2^fx through the exponent bits.
  const __m256i imm =
      _mm256_slli_epi32(_mm256_add_epi32(_mm256_cvttps_epi32(fx),
                                         _mm256_set1_epi32(0x7f)),
                        23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(imm));
}

inline __m256 Sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 Tanh8(__m256 x) {
  // tanh(x) = 1 - 2 / (exp(2x) + 1); saturates cleanly at both clamps.
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 e = Exp8(_mm256_mul_ps(two, x));
  return _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
}

// One 8-lane column chunk of the LSTM cell. Sources may be staged
// (tail) or direct; the math is identical either way.
inline void LstmCell8(__m256 gi, __m256 gf, __m256 gg8, __m256 go,
                      __m256 cp, float* ai, float* af, float* ag, float* ao,
                      float* atc, float* oh, float* oc) {
  const __m256 ig = Sigmoid8(gi);
  const __m256 fg = Sigmoid8(gf);
  const __m256 gg = Tanh8(gg8);
  const __m256 og = Sigmoid8(go);
  const __m256 c = _mm256_fmadd_ps(fg, cp, _mm256_mul_ps(ig, gg));
  const __m256 tc = Tanh8(c);
  _mm256_storeu_ps(ai, ig);
  _mm256_storeu_ps(af, fg);
  _mm256_storeu_ps(ag, gg);
  _mm256_storeu_ps(ao, og);
  _mm256_storeu_ps(atc, tc);
  _mm256_storeu_ps(oh, _mm256_mul_ps(og, tc));
  _mm256_storeu_ps(oc, c);
}

inline void GruCell8(__m256 gir, __m256 giz, __m256 gin, __m256 ghr,
                     __m256 ghz, __m256 ghn, __m256 hp, float* ar, float* az,
                     float* an, float* oh) {
  const __m256 rg = Sigmoid8(_mm256_add_ps(gir, ghr));
  const __m256 zg = Sigmoid8(_mm256_add_ps(giz, ghz));
  const __m256 ng = Tanh8(_mm256_fmadd_ps(rg, ghn, gin));
  _mm256_storeu_ps(ar, rg);
  _mm256_storeu_ps(az, zg);
  _mm256_storeu_ps(an, ng);
  // Matches the unfused composition (n - z*n) + z*h_prev.
  const __m256 h =
      _mm256_fmadd_ps(zg, hp, _mm256_sub_ps(ng, _mm256_mul_ps(zg, ng)));
  _mm256_storeu_ps(oh, h);
}

}  // namespace

void LstmCellRow(const float* g, const float* c_prev, float* act, float* out,
                 int h) {
  int j = 0;
  for (; j + 8 <= h; j += 8) {
    LstmCell8(_mm256_loadu_ps(g + j), _mm256_loadu_ps(g + h + j),
              _mm256_loadu_ps(g + 2 * h + j), _mm256_loadu_ps(g + 3 * h + j),
              _mm256_loadu_ps(c_prev + j), act + j, act + h + j,
              act + 2 * h + j, act + 3 * h + j, act + 4 * h + j, out + j,
              out + h + j);
  }
  if (j < h) {
    // Stage the ragged tail through zero-padded buffers so every element
    // runs the same vector math regardless of h alignment.
    const int rem = h - j;
    alignas(32) float in[5][8] = {};
    alignas(32) float stage[7][8];
    for (int t = 0; t < rem; ++t) {
      in[0][t] = g[j + t];
      in[1][t] = g[h + j + t];
      in[2][t] = g[2 * h + j + t];
      in[3][t] = g[3 * h + j + t];
      in[4][t] = c_prev[j + t];
    }
    LstmCell8(_mm256_load_ps(in[0]), _mm256_load_ps(in[1]),
              _mm256_load_ps(in[2]), _mm256_load_ps(in[3]),
              _mm256_load_ps(in[4]), stage[0], stage[1], stage[2], stage[3],
              stage[4], stage[5], stage[6]);
    for (int t = 0; t < rem; ++t) {
      act[j + t] = stage[0][t];
      act[h + j + t] = stage[1][t];
      act[2 * h + j + t] = stage[2][t];
      act[3 * h + j + t] = stage[3][t];
      act[4 * h + j + t] = stage[4][t];
      out[j + t] = stage[5][t];
      out[h + j + t] = stage[6][t];
    }
  }
}

void GruCellRow(const float* gi, const float* gh, const float* h_prev,
                float* act, float* out, int h) {
  int j = 0;
  for (; j + 8 <= h; j += 8) {
    GruCell8(_mm256_loadu_ps(gi + j), _mm256_loadu_ps(gi + h + j),
             _mm256_loadu_ps(gi + 2 * h + j), _mm256_loadu_ps(gh + j),
             _mm256_loadu_ps(gh + h + j), _mm256_loadu_ps(gh + 2 * h + j),
             _mm256_loadu_ps(h_prev + j), act + j, act + h + j,
             act + 2 * h + j, out + j);
  }
  if (j < h) {
    const int rem = h - j;
    alignas(32) float in[7][8] = {};
    alignas(32) float stage[4][8];
    for (int t = 0; t < rem; ++t) {
      in[0][t] = gi[j + t];
      in[1][t] = gi[h + j + t];
      in[2][t] = gi[2 * h + j + t];
      in[3][t] = gh[j + t];
      in[4][t] = gh[h + j + t];
      in[5][t] = gh[2 * h + j + t];
      in[6][t] = h_prev[j + t];
    }
    GruCell8(_mm256_load_ps(in[0]), _mm256_load_ps(in[1]),
             _mm256_load_ps(in[2]), _mm256_load_ps(in[3]),
             _mm256_load_ps(in[4]), _mm256_load_ps(in[5]),
             _mm256_load_ps(in[6]), stage[0], stage[1], stage[2], stage[3]);
    for (int t = 0; t < rem; ++t) {
      act[j + t] = stage[0][t];
      act[h + j + t] = stage[1][t];
      act[2 * h + j + t] = stage[2][t];
      out[j + t] = stage[3][t];
    }
  }
}

}  // namespace tpr::kern::avx2
