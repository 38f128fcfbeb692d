#ifndef TPR_KERN_KERN_INTERNAL_H_
#define TPR_KERN_KERN_INTERNAL_H_

// Implementation split between kern.cc (dispatch + scalar) and
// gemm_avx2.cc (the only TU compiled with -mavx2 -mfma). When the
// toolchain cannot target AVX2 the avx2 TU is dropped and TPR_NO_AVX2 is
// defined; dispatch then never references these symbols.

#include <cstdint>

namespace tpr::kern::avx2 {

void GemmAcc(const float* a, const float* b, float* out, int m, int k, int n);
void GemmInt8Wide(const int8_t* a, const int16_t* btw, int32_t* out, int m,
                  int k, int n);
// The bitwise legs (DequantBias, DequantAcc, QuantizeRow) cover whole
// 8-lane blocks only: columns [0, n & ~7) of each row. The dispatcher
// runs the rest in kern.cc's scalar loop.
void DequantBias(const int32_t* acc, float a_scale, const float* b_scales,
                 const float* bias, float* y, int m, int n);
void DequantAcc(const int32_t* acc, float a_scale, const float* b_scales,
                float* y, int m, int n);
void QuantizeRow(const float* x, float inv_scale, int8_t* q, int n);
void GemmTransAAcc(const float* a, const float* b, float* out, int k, int m,
                   int n);
void GemmTransBAcc(const float* a, const float* b, float* out, int m, int k,
                   int n);
void HadamardAcc(const float* a, const float* b, float* out, int n);
void AxpyAcc(float alpha, const float* x, float* y, int n);
void AddAcc(const float* x, float* y, int n);
void LstmCellRow(const float* g, const float* c_prev, float* act, float* out,
                 int h);
void GruCellRow(const float* gi, const float* gh, const float* h_prev,
                float* act, float* out, int h);

}  // namespace tpr::kern::avx2

#endif  // TPR_KERN_KERN_INTERNAL_H_
