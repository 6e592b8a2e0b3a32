#ifndef PILOTE_TENSOR_GEMM_H_
#define PILOTE_TENSOR_GEMM_H_

#include <cstdint>
#include "common/hot_path.h"

namespace pilote {

// Dense single-precision matrix multiply kernels over raw row-major buffers.
// All kernels compute C = A_op * B_op (C is fully overwritten) and
// parallelize over rows of C via ThreadPool::Global() when profitable
// (GemmTransA and GemmPackedSerial stay serial).
//
// Gemm:        C[m,n] = A[m,k] * B[k,n]
// GemmTransB:  C[m,n] = A[m,k] * B[n,k]^T
// GemmTransA:  C[m,n] = A[k,m]^T * B[k,n]
//
// Rounding contract: every C element sums its k products in order of p,
// starting from 0.0f, and each step's rounding is fixed in source —
// GemmTransB rounds the product and then the sum (unfused); Gemm and
// GemmTransA round once per step (std::fma). gemm.cc is compiled with
// -ffp-contract=off so the compiler cannot change either choice, and
// tests/gemm_test.cc pins both against in-order references with memcmp.
// GemmTransB packs B^T into a per-thread panel and runs vectorized SAXPY
// rows when C has at least 16 rows and 16 columns, and runs dot-product
// rows otherwise; the two give the same bits, so which one ran is not
// observable.
PILOTE_HOT_PATH void Gemm(const float* a, const float* b, float* c,
                          int64_t m, int64_t k, int64_t n);
PILOTE_HOT_PATH void GemmTransB(const float* a, const float* b, float* c,
                                int64_t m, int64_t k, int64_t n);
void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n);

// Compiled-plan GEMM: C[m,n] = A[m,k] * Bt[k,n], where Bt is a weight B
// [n, k] stored once as B^T by PackTransposed. It runs the unfused SAXPY
// rows of the packed GemmTransB path over all m rows, so it gives the same
// bits as GemmTransB(a, b, c, m, k, n) under the rounding contract above.
// It is serial and allocates nothing: the pool Dispatch captures the row
// callback in a std::function, a heap allocation per call, and the
// compiled-inference replay loop (src/exec/) must be allocation-free.
PILOTE_HOT_PATH void GemmPackedSerial(const float* a, const float* bt,
                                      float* c, int64_t m, int64_t k,
                                      int64_t n);

// Writes bt[p * n + j] = b[j * k + p]: B [n, k] into B^T [k, n].
void PackTransposed(const float* b, float* bt, int64_t n, int64_t k);

}  // namespace pilote

#endif  // PILOTE_TENSOR_GEMM_H_
