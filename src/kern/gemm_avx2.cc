// AVX2/FMA GEMM microkernels. This is the only TU compiled with
// -mavx2 -mfma; nothing here may run unless kern dispatch verified CPUID
// support. All loops use a fixed summation order, so results are
// deterministic for a pinned kernel — just not bitwise equal to scalar.
//
// Layout of the fp32 GEMMs: register tiles accumulated over the full K
// extent in ymm registers, then added into C once per tile. GemmAcc and
// GemmTransAAcc share one driver whose A element stride is
// parameterised, so the same tiles serve A and A^T: 6-row x 16-column
// tiles over B's 16-column panels (packed contiguously when the row
// count amortises the copy), and for the 1-5 rows those leave, 4 x 16,
// 2 x 32 and 1 x 64 tiles with 8 accumulator chains each. GemmTransBAcc
// runs 4 x 3, 2 x 4 and 1 x 8 tiles of 8-lane dot chains. The tile shape
// decides only which outputs share loads: each output element's op
// sequence is fixed (see Tile and DotTile), so a row's bits never depend
// on m, n or its neighbours.

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
constexpr int kBlock = 64;  // columns the leftover rows' tiles span

// Packing pays once a panel is reused across several row tiles.
constexpr int kPackMinRows = 8;

// ((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7)): the pairing two hadds give, in
// three shuffle uops instead of five. At small k this reduction, not
// the FMA loop, bounds a GemmTransBAcc dot.
inline float Hsum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_shuffle_ps(lo, lo, _MM_SHUFFLE(2, 3, 0, 1)));
  lo = _mm_add_ss(lo, _mm_movehl_ps(lo, lo));
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

// 6 x 16 register tile over one B panel: out[r, 0..16) += sum_kk
// A(r, kk) * B(kk, 0..16), A addressed as in Tile below. Each of its 12
// accumulators is one FMA chain over kk from zero, added to out once:
// the same op sequence as Tile<6, 2>. It stays written out with named
// accumulators because GCC compiles this form ~5-10% faster at k <= 5
// (the small-k dW products of LstmSequence's backward) than the
// template, whose pointers spill around every tile in the driver.
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

#undef TPR_TILE16_ROW_INIT
#undef TPR_TILE16_ROW_FMA
#undef TPR_TILE16_ROW_STORE

// R x 8V register tile: out[r, 0..8V) += sum_kk A(r, kk) * B(kk, 0..8V).
// A element (r, kk) sits at abase[r * a_row_stride + kk * a_k_stride] so
// the tile serves both normal (stride k, 1) and transposed (stride 1, m)
// A operands. B's columns come in 16-column groups: row kk of group g
// starts at bcol + kk * bstride + g * gstride (gstride 16 when B is read
// in place; bstride 16 and gstride 16k when it is packed panel by panel).
//
// Every output element is one FMA chain over kk from zero in its own
// register, added to out once, so the tile shape never changes a bit.
// The unroll pragmas matter: GCC at -O2 keeps the accumulator arrays in
// registers only once every index is a constant; spills in the kk loop
// would cost ~3x throughput.
template <int R, int V>
[[gnu::always_inline]] inline void Tile(const float* abase,
                                        size_t a_row_stride,
                                        size_t a_k_stride, int k,
                                        const float* bcol, size_t bstride,
                                        size_t gstride, float* out, int ldc) {
  __m256 c[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) c[r][v] = _mm256_setzero_ps();
  }
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = bcol + static_cast<size_t>(kk) * bstride;
    const size_t ko = static_cast<size_t>(kk) * a_k_stride;
    __m256 bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm256_loadu_ps(brow + (v / 2) * gstride + 8 * (v % 2));
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(abase + r * a_row_stride + ko);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        c[r][v] = _mm256_fmadd_ps(av, bv[v], c[r][v]);
      }
    }
  }
  float* o = out;
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r, o += ldc) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_ps(o + 8 * v,
                       _mm256_add_ps(_mm256_loadu_ps(o + 8 * v), c[r][v]));
    }
  }
}

// Rows [0, R) of op(A) over the w columns (a multiple of 16) at bcol:
// 8V-column tiles, then 16-column ones.
template <int R, int V>
[[gnu::noinline]] void Band(const float* abase, size_t a_row_stride,
                            size_t a_k_stride, int k, const float* bcol,
                            size_t bstride, size_t gstride, int w, float* out,
                            int ldc) {
  int j = 0;
  for (; j + 8 * V <= w; j += 8 * V) {
    Tile<R, V>(abase, a_row_stride, a_k_stride, k,
               bcol + j / kPanel * gstride, bstride, gstride, out + j, ldc);
  }
  for (; j < w; j += kPanel) {
    Tile<R, 2>(abase, a_row_stride, a_k_stride, k,
               bcol + j / kPanel * gstride, bstride, gstride, out + j, ldc);
  }
}

// Shared driver for out += op(A) * B with op(A) addressed through the
// two strides (see Tile). B goes in blocks of up to 64 columns. Within a
// block, rows go in 6-row x 16-column tiles, panel by panel; the 1-5
// rows those leave then take tiles with 8 accumulator chains over the
// whole block (4 x 16, 2 x 32, then 1 x 64), so each reads B once per
// up to 4 rows instead of once per 1-2. Once m rows amortise the copy,
// each 16-column panel is packed contiguously before its 6-row tiles,
// into its own slot when the leftover rows will read it again. The
// bands are out of line: inlined, they crowd the 6-row loop's pointers
// onto the stack, which costs ~10% at small k.
void GemmStridedA(const float* a, size_t a_row_stride, size_t a_k_stride,
                  const float* b, float* out, int m, int k, int n) {
  const int m6 = m - m % 6;
  const int n16 = n - n % kPanel;
  const bool do_pack = m >= kPackMinRows && n16 > 0;
  const size_t slot = m6 < m ? static_cast<size_t>(k) * kPanel : 0;
  FloatBuffer pack;
  if (do_pack) {
    pack = FloatBuffer(static_cast<size_t>(k) * kPanel +
                       (kBlock / kPanel - 1) * slot);
  }
  const size_t bstride = do_pack ? kPanel : static_cast<size_t>(n);
  const size_t gstride = do_pack ? slot : kPanel;
  for (int j = 0; j < n16; j += kBlock) {
    const int w = n16 - j < kBlock ? n16 - j : kBlock;
    const float* bcol = do_pack ? pack.data() : b + j;
    for (int p = 0; p < w / kPanel; ++p) {
      if (do_pack) PackB16(b, k, n, j + p * kPanel, pack.data() + p * slot);
      for (int i = 0; i < m6; i += 6) {
        Tile16R6(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
                 a_k_stride, k, bcol + p * gstride, bstride,
                 out + static_cast<size_t>(i) * n + j + p * kPanel, n);
      }
    }
    int i = m6;
    if (i + 4 <= m) {
      Band<4, 2>(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
                 a_k_stride, k, bcol, bstride, gstride, w,
                 out + static_cast<size_t>(i) * n + j, n);
      i += 4;
    }
    if (i + 2 <= m) {
      Band<2, 4>(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
                 a_k_stride, k, bcol, bstride, gstride, w,
                 out + static_cast<size_t>(i) * n + j, n);
      i += 2;
    }
    if (i < m) {
      Band<1, 8>(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
                 a_k_stride, k, bcol, bstride, gstride, w,
                 out + static_cast<size_t>(i) * n + j, n);
    }
  }
  int j = n16;
  if (j + 8 <= n) {
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      Tile<4, 1>(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
                 a_k_stride, k, b + j, static_cast<size_t>(n), kPanel,
                 out + static_cast<size_t>(i) * n + j, n);
    }
    for (; i < m; ++i) {
      Tile<1, 1>(a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
                 a_k_stride, k, b + j, static_cast<size_t>(n), kPanel,
                 out + static_cast<size_t>(i) * n + j, n);
    }
    j += 8;
  }
  // Scalar column tail (< 8 columns): the same FMA chain per element,
  // spelt with std::fmaf so it holds at any -O level or -ffp-contract.
  for (; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const float* ar = a + static_cast<size_t>(i) * a_row_stride;
      float s = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        s = std::fmaf(ar[static_cast<size_t>(kk) * a_k_stride],
                      b[static_cast<size_t>(kk) * n + j], s);
      }
      out[static_cast<size_t>(i) * n + j] += s;
    }
  }
}

// R x C tile of dots for out[i, j] += dot(A row i, B row j), both rows
// contiguous: 8-lane FMA chains over the whole 8-float blocks of k, the
// Hsum pairing, then the k % 8 tail as std::fmaf in order, added to out
// once. That op sequence is the same for every tile shape. The tail
// steps all R x C sums together, so at small k the chains overlap
// instead of running one after another.
template <int R, int C>
inline void DotTile(const float* a, const float* b, float* out, int k,
                    int n) {
  __m256 acc[R][C];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) acc[r][c] = _mm256_setzero_ps();
  }
  int kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    __m256 bv[C];
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) {
      bv[c] = _mm256_loadu_ps(b + static_cast<size_t>(c) * k + kk);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_loadu_ps(a + static_cast<size_t>(r) * k + kk);
#pragma GCC unroll 8
      for (int c = 0; c < C; ++c) {
        acc[r][c] = _mm256_fmadd_ps(va, bv[c], acc[r][c]);
      }
    }
  }
  float s[R][C];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) s[r][c] = Hsum(acc[r][c]);
  }
  for (; kk < k; ++kk) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const float av = a[static_cast<size_t>(r) * k + kk];
#pragma GCC unroll 8
      for (int c = 0; c < C; ++c) {
        s[r][c] = std::fmaf(av, b[static_cast<size_t>(c) * k + kk], s[r][c]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) out[static_cast<size_t>(r) * n + c] += s[r][c];
  }
}

// Rows [0, R) of A against every row of B: C B rows per tile, then one.
template <int R, int C>
inline void DotRows(const float* a, const float* b, float* out, int k,
                    int n) {
  int j = 0;
  for (; j + C <= n; j += C) {
    DotTile<R, C>(a, b + static_cast<size_t>(j) * k, out + j, k, n);
  }
  for (; j < n; ++j) {
    DotTile<R, 1>(a, b + static_cast<size_t>(j) * k, out + j, k, n);
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
  // 4 A rows x 3 B rows share each tile's loads, so B streams once per 4
  // rows; leftover rows go in pairs against 4 B rows, then one row
  // against 8.
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    DotRows<4, 3>(a + static_cast<size_t>(i) * k, b,
                  out + static_cast<size_t>(i) * n, k, n);
  }
  for (; i + 2 <= m; i += 2) {
    DotRows<2, 4>(a + static_cast<size_t>(i) * k, b,
                  out + static_cast<size_t>(i) * n, k, n);
  }
  if (i < m) {
    DotRows<1, 8>(a + static_cast<size_t>(i) * k, b,
                  out + static_cast<size_t>(i) * n, k, n);
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

// Lane t of the result is the sum of x[t]'s eight lanes: one hadd tree
// for four or eight dots instead of one reduction each.
inline __m128i Hsum4I32(const __m256i* x) {
  const __m256i h = _mm256_hadd_epi32(_mm256_hadd_epi32(x[0], x[1]),
                                      _mm256_hadd_epi32(x[2], x[3]));
  return _mm_add_epi32(_mm256_castsi256_si128(h),
                       _mm256_extracti128_si256(h, 1));
}

inline __m256i Hsum8I32(const __m256i* x) {
  const __m256i h0 = _mm256_hadd_epi32(
      _mm256_hadd_epi32(x[0], x[1]), _mm256_hadd_epi32(x[2], x[3]));
  const __m256i h1 = _mm256_hadd_epi32(
      _mm256_hadd_epi32(x[4], x[5]), _mm256_hadd_epi32(x[6], x[7]));
  return _mm256_add_epi32(_mm256_permute2x128_si256(h0, h1, 0x20),
                          _mm256_permute2x128_si256(h0, h1, 0x31));
}

// R activation rows x C weight channels of int32 dots (R * C = 8 or 12):
// out[r * n + c] = dot(arow r, b row c). Each weight load of a k step
// serves all R rows, and the accumulators are reduced together.
template <int R, int C>
[[gnu::always_inline]] inline void Int8Block(const int16_t* arow,
                                             const int16_t* b, int32_t* out,
                                             int k, int n) {
  constexpr int T = R * C;
  static_assert(T == 8 || T == 12, "the hadd trees reduce 8 or 12 dots");
  __m256i acc[T];
#pragma GCC unroll 12
  for (int t = 0; t < T; ++t) acc[t] = _mm256_setzero_si256();
  int kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    __m256i vb[C];
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) {
      vb[c] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          b + static_cast<size_t>(c) * k + kk));
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          arow + static_cast<size_t>(r) * k + kk));
#pragma GCC unroll 8
      for (int c = 0; c < C; ++c) {
        acc[r * C + c] =
            _mm256_add_epi32(_mm256_madd_epi16(va, vb[c]), acc[r * C + c]);
      }
    }
  }
  // Ends each accumulator's live range in its loop register. Without
  // this GCC picks registers for the hadd pairing and copies every
  // accumulator inside the k loop, a third more uops per step.
  asm("" : "+x"(acc[0]), "+x"(acc[1]), "+x"(acc[2]), "+x"(acc[3]),
      "+x"(acc[4]), "+x"(acc[5]), "+x"(acc[6]), "+x"(acc[7]));
  // The k % 16 tail, then each row's C sums stored as one vector.
  alignas(32) int32_t tail[T] = {};
  for (; kk < k; ++kk) {
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) {
        tail[r * C + c] += static_cast<int32_t>(arow[r * k + kk]) *
                           static_cast<int32_t>(b[c * k + kk]);
      }
    }
  }
  const __m256i s8 = _mm256_add_epi32(
      Hsum8I32(acc),
      _mm256_load_si256(reinterpret_cast<const __m256i*>(tail)));
  if constexpr (C == 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), s8);
  } else {
    static_assert(C == 4, "rows hold 4 or 8 channels");
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm256_castsi256_si128(s8));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + n),
                     _mm256_extracti128_si256(s8, 1));
  }
  if constexpr (T == 12) {
    asm("" : "+x"(acc[8]), "+x"(acc[9]), "+x"(acc[10]), "+x"(acc[11]));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + 2 * n),
        _mm_add_epi32(Hsum4I32(acc + 8),
                      _mm_load_si128(reinterpret_cast<const __m128i*>(
                          tail + 8))));
  }
}

}  // namespace

void GemmInt8Wide(const int8_t* a, const int16_t* bt, int32_t* out, int m,
                  int k, int n) {
  // The weight panel is pre-widened by the caller. Up to kRowTile
  // activation rows are widened once into an L1-resident int16 tile and
  // the column loop runs OUTSIDE the row loop within each tile, so an
  // 8-channel weight block is pulled from L2 once per tile and then
  // served from L1 for every row — with a row-outer order the panel is
  // re-streamed per row and batched (m > 1) calls gain nothing over
  // m = 1. Rows go in threes, then a pair, against 4 channels, and a
  // leftover row against all 8. Each out[i, j] is still an exact dot
  // product, so results are identical for any m and to the scalar
  // kernel.
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
    int32_t* out_tile = out + static_cast<size_t>(i0) * n;
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      const int16_t* b0 = bt + static_cast<size_t>(j) * k;
      int i = 0;
      for (; i + 3 <= mt; i += 3) {
        const int16_t* arow = a16 + static_cast<size_t>(i) * k;
        int32_t* o = out_tile + static_cast<size_t>(i) * n + j;
        Int8Block<3, 4>(arow, b0, o, k, n);
        Int8Block<3, 4>(arow, b0 + static_cast<size_t>(4) * k, o + 4, k, n);
      }
      for (; i + 2 <= mt; i += 2) {
        const int16_t* arow = a16 + static_cast<size_t>(i) * k;
        int32_t* o = out_tile + static_cast<size_t>(i) * n + j;
        Int8Block<2, 4>(arow, b0, o, k, n);
        Int8Block<2, 4>(arow, b0 + static_cast<size_t>(4) * k, o + 4, k, n);
      }
      if (i < mt) {
        Int8Block<1, 8>(a16 + static_cast<size_t>(i) * k, b0,
                        out_tile + static_cast<size_t>(i) * n + j, k, n);
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
        out_tile[static_cast<size_t>(i) * n + j] = s;
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
