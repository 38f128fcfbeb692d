#ifndef TPR_KERN_KERN_H_
#define TPR_KERN_KERN_H_

// CPU kernel layer for the tensor/autograd hot path: the three GEMM
// accumulate variants behind nn::MatMul*Accumulate, plus the fused
// elementwise kernels used by the fused autograd ops.
//
// Every kernel exists in two implementations selected at runtime:
//
//   scalar — bit-compatible with the original blocked loops in
//            src/nn/tensor.cc; the reproducibility anchor.
//   avx2   — register-blocked, panel-packed AVX2/FMA microkernels.
//            Deterministic (fixed summation order) but a different
//            order than scalar, so results agree to ~1e-6 rel, not
//            bitwise.
//
// Selection: the TPR_KERNEL environment variable (scalar | avx2 | auto,
// default auto) resolved once on first use; `auto` picks avx2 iff the
// CPU supports AVX2+FMA. Pinning TPR_KERNEL makes any run bitwise
// reproducible on any machine. Requesting avx2 on hardware without it is
// a hard error, never a silent fallback. Tests and benches may switch
// kernels mid-process via SetKernel; ThreadKernelPin overrides the
// kernel for one thread only (quant's calibration runs under it).

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace tpr::kern {

enum class Kernel { kScalar = 0, kAvx2 = 1 };

/// True when this binary and CPU can run the avx2 kernels.
bool CpuSupportsAvx2();

/// The kernel every dispatching entry point currently routes to.
/// Resolved from TPR_KERNEL on first call.
Kernel ActiveKernel();

/// Overrides the active kernel (tests, benches). Fatal if `k` is not
/// supported on this CPU.
void SetKernel(Kernel k);

/// Pins the kernel for the calling thread only: while the pin lives,
/// ActiveKernel() returns `k` on this thread, and every other thread
/// keeps seeing the process kernel. Pins nest; each one restores the
/// pin it replaced. Fatal if `k` is not supported on this CPU.
class ThreadKernelPin {
 public:
  explicit ThreadKernelPin(Kernel k);
  ~ThreadKernelPin();
  ThreadKernelPin(const ThreadKernelPin&) = delete;
  ThreadKernelPin& operator=(const ThreadKernelPin&) = delete;

 private:
  int previous_;  // the enclosing pin, or -1 for none
};

/// "scalar" or "avx2".
const char* KernelName(Kernel k);

/// Parses a TPR_KERNEL value ("scalar" | "avx2" | "auto" | ""). Fatal on
/// unknown strings or when avx2 is requested but unsupported.
Kernel ResolveKernelSpec(const char* spec);

// ---------------------------------------------------------------------------
// GEMM accumulate kernels (row-major, raw pointers). All tolerate m, n,
// or k of zero.
// ---------------------------------------------------------------------------

/// out(m x n) += a(m x k) * b(k x n)
///
/// Under either kernel each output element runs one fixed op sequence
/// over k, and no tile shape changes it: a row's bits depend on that row
/// of a, on b and on k, never on m, n or the rows beside it, so a row
/// encoded alone equals the same row inside any batch. avx2 runs one FMA
/// chain over k from zero and adds it to out once; scalar adds each
/// product of a nonzero a element into out in increasing k. The other
/// two GEMMs keep the same rule (GemmTransBAcc's avx2 element: eight FMA
/// lane chains, their fixed pairwise sum, then the k % 8 tail).
void GemmAcc(const float* a, const float* b, float* out, int m, int k, int n);

/// out(m x n) += a(k x m)^T * b(k x n)
void GemmTransAAcc(const float* a, const float* b, float* out, int k, int m,
                   int n);

/// out(m x n) += a(m x k) * b(n x k)^T
void GemmTransBAcc(const float* a, const float* b, float* out, int m, int k,
                   int n);

// ---------------------------------------------------------------------------
// Fused elementwise kernels. The scalar forms match the composition of
// the unfused autograd loops exactly; avx2 forms of the accumulators use
// FMA (same values to within one ulp per element).
// ---------------------------------------------------------------------------

/// out[i] += a[i] * b[i]         (Hadamard-accumulate)
void HadamardAcc(const float* a, const float* b, float* out, int n);

/// y[i] += alpha * x[i]
void AxpyAcc(float alpha, const float* x, float* y, int n);

/// y[i] += x[i]
void AddAcc(const float* x, float* y, int n);

// ---------------------------------------------------------------------------
// Int8 inference kernels (tpr::quant). Integer accumulation is exact, so
// — unlike the fp32 GEMMs above — the scalar and avx2 GemmInt8Wide
// produce bitwise-identical int32 results; the avx2 form only reorders
// an associative integer sum. The dequant and quantize epilogues
// dispatch to avx2 for n >= 8, and their lanes apply the scalar op
// sequence exactly (plain mul + add, no FMA, round-to-nearest-even) over
// whole 8-lane blocks; the n % 8 tail of each row runs in kern.cc's
// scalar loop, never in the -mfma translation unit. So the quantized
// forward is identical under either kernel up to the fused cell, which
// dispatches like the fp32 path.
// ---------------------------------------------------------------------------

/// out(m x n) = a(m x k, int8) * btw(n x k)^T, int32 accumulation
/// (overwrite, not accumulate). btw holds the int8 weight matrix
/// pre-packed with each output channel's k inputs contiguous and
/// pre-widened to int16 (btw[i] == int16(bt[i])), so every output
/// element is one contiguous dot. The serving twin keeps this widened
/// copy in memory beside the int8 artifact: the avx2 inner loop then
/// loads 16 weight lanes per step with no per-iteration sign extension.
/// 127 * 127 * k fits int32 for any k < 2^16, far above every model
/// shape here.
void GemmInt8Wide(const int8_t* a, const int16_t* btw, int32_t* out, int m,
                  int k, int n);

/// y[i, j] = float(acc[i, j]) * (a_scale * b_scales[j]) + bias[j].
/// The per-channel dequant epilogue fused with the bias add. `bias` may
/// be null (treated as zero). The avx2 leg (n >= 8) is bitwise equal to
/// the scalar one.
void DequantBias(const int32_t* acc, float a_scale, const float* b_scales,
                 const float* bias, float* y, int m, int n);

/// y[i, j] += float(acc[i, j]) * (a_scale * b_scales[j]). Accumulating
/// form for the second (recurrent) GEMM of a fused gate row.
void DequantAcc(const int32_t* acc, float a_scale, const float* b_scales,
                float* y, int m, int n);

/// q[i] = clamp(round-to-nearest-even(x[i] * inv_scale), -127, 127).
/// Symmetric int8 activation quantization; `inv_scale` is the
/// precomputed reciprocal so every caller rounds the same product.
void QuantizeRow(const float* x, float inv_scale, int8_t* q, int n);

/// Fused LSTM cell forward over one row. Reads the gate preactivations
/// g = [i | f | g | o] (4h) and the previous cell row c_prev (h); writes
/// the saved activations act = [i f g o tanh(c)] (5h) and the output row
/// out = [h_t | c_t] (2h). The scalar form is the reproducibility
/// anchor (std::exp-based); the avx2 form uses polynomial vector
/// transcendentals — deterministic, lane-uniform, and identical for a
/// row whether it is encoded alone or inside a packed batch.
void LstmCellRow(const float* g, const float* c_prev, float* act, float* out,
                 int h);

/// Fused GRU cell forward over one row: gi/gh = [r | z | n] input and
/// hidden gate preactivations (3h each), h_prev (h); writes act =
/// [r z n] (3h) and the new hidden row out (h).
void GruCellRow(const float* gi, const float* gh, const float* h_prev,
                float* act, float* out, int h);

/// Stable logistic sigmoid of one value (shared by scalar kernels and
/// the fused cell ops so every path computes the exact same bits).
inline float SigmoidScalar(float x) {
  return x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                : std::exp(x) / (1.0f + std::exp(x));
}

}  // namespace tpr::kern

#endif  // TPR_KERN_KERN_H_
