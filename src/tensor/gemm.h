#ifndef PILOTE_TENSOR_GEMM_H_
#define PILOTE_TENSOR_GEMM_H_

#include <cstdint>
#include "common/hot_path.h"

namespace pilote {

// Dense single-precision matrix multiply kernels over raw row-major buffers.
// All kernels compute C = A_op * B_op (C is fully overwritten). Gemm,
// GemmTransB and GemmTransA run one register-tiled microkernel on AVX-512
// builds: an 8x32 tile of C stays in registers while p walks the depth,
// over a 32-column strip of B packed per task into a per-thread panel.
// Above 4 MFLOP they split C into (row block x column strip) tasks on
// ThreadPool::Global(). Without AVX-512 they run i-k-j SAXPY rows,
// partitioned over rows of C. GemmPackedSerial stays serial.
//
// Gemm:        C[m,n] = A[m,k] * B[k,n]
// GemmTransB:  C[m,n] = A[m,k] * B[n,k]^T
// GemmTransA:  C[m,n] = A[k,m]^T * B[k,n]
//
// Rounding contract: every C element sums its k products in order of p,
// starting from 0.0f, and each step's rounding is fixed in source —
// GemmTransB rounds the product and then the sum (unfused); Gemm and
// GemmTransA round once per step (fused: a masked vfmadd in the tile,
// std::fma in the rows) and skip a step whose A entry is exactly zero, in
// every row (a NaN entry is not skipped). So 0 x Inf in B adds nothing in
// a fused kernel and gives NaN in an unfused one. gemm.cc is compiled
// with -ffp-contract=off so the compiler cannot change either choice, and
// tests/gemm_test.cc pins every kernel, on both builds, against in-order
// references with memcmp. Which loop form or task split ran is therefore
// not observable.
PILOTE_HOT_PATH void Gemm(const float* a, const float* b, float* c,
                          int64_t m, int64_t k, int64_t n);
PILOTE_HOT_PATH void GemmTransB(const float* a, const float* b, float* c,
                                int64_t m, int64_t k, int64_t n);
void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n);

// Compiled-plan GEMM: C[m,n] = A[m,k] * Bt[k,n], where Bt is a weight B
// [n, k] stored once as B^T by PackTransposed. It runs the unfused SAXPY
// rows over all m rows, so it gives the same bits as
// GemmTransB(a, b, c, m, k, n) under the rounding contract above.
// It is serial and allocates nothing: a pool dispatch allocates its task
// callback and shared state per call, a strip panel may grow, and the
// compiled-inference replay loop (src/exec/) must be allocation-free.
PILOTE_HOT_PATH void GemmPackedSerial(const float* a, const float* bt,
                                      float* c, int64_t m, int64_t k,
                                      int64_t n);

// Writes bt[p * n + j] = b[j * k + p]: B [n, k] into B^T [k, n].
void PackTransposed(const float* b, float* bt, int64_t n, int64_t k);

}  // namespace pilote

#endif  // PILOTE_TENSOR_GEMM_H_
