#ifndef PILOTE_TENSOR_GEMM_H_
#define PILOTE_TENSOR_GEMM_H_

#include <cstdint>
#include "common/hot_path.h"

namespace pilote {

// Dense single-precision matrix multiply kernels over raw row-major buffers.
// All kernels compute C = A_op * B_op (C is fully overwritten) and
// parallelize over rows of C via ThreadPool::Global() when profitable
// (GemmTransA stays serial).
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

// Single-threaded variants over the full row range with no pool dispatch.
// The thread-pool Dispatch captures the row callback in a std::function —
// a heap allocation per call — so the compiled-inference executor
// (src/exec/), whose replay loop must be allocation-free, calls these
// instead. GemmTransBSerial always runs the dot-product rows (no panel).
// Results are bit-identical to the parallel entry points under the
// rounding contract above, and both variants tick the same
// tensor/gemm_calls metrics.
PILOTE_HOT_PATH void GemmSerial(const float* a, const float* b, float* c,
                                int64_t m, int64_t k, int64_t n);
PILOTE_HOT_PATH void GemmTransBSerial(const float* a, const float* b,
                                      float* c, int64_t m, int64_t k,
                                      int64_t n);

}  // namespace pilote

#endif  // PILOTE_TENSOR_GEMM_H_
