#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace pilote {
namespace {

// One counting site shared by all three kernels; the disabled cost is a
// relaxed load + branch per GEMM call (amortized over the whole kernel).
void CountGemm(int64_t m, int64_t k, int64_t n) {
  PILOTE_METRIC_COUNT("tensor/gemm_calls", 1);
  PILOTE_METRIC_COUNT("tensor/gemm_flops", 2 * m * k * n);
}

// Rough per-kernel FLOP threshold below which threading overhead dominates.
constexpr int64_t kParallelFlopThreshold = 1 << 22;

// Row-tile width: B is streamed once per TILE rows of A instead of once
// per row, which is what makes batched inference cheaper per row than
// row-at-a-time (the weight matrix is the dominant memory traffic at our
// skinny shapes). Per-element accumulation order over p is unchanged, so
// tiled and untiled results are bit-identical — the serving layer relies
// on batched == unbatched predictions.
constexpr int64_t kRowTile = 4;

// Shape from which GemmTransB packs B^T and runs the SAXPY rows. Packing
// costs k * n and the GEMM m * k * n, so at few rows the pack is most of
// the work; the SAXPY rows vectorize over n, so at few columns they cannot
// fill a vector. BM_GemmLayerShape (median of 5-10 runs, 4-vCPU Xeon,
// 4 pool threads), dot rows vs packed:
//   1024->512, m = 1: 0.55 vs 0.43 ms   128->5,  m = 512: 0.15 vs 0.26 ms
//   1024->512, m = 4: 1.14 vs 1.21 ms   128->16, m = 512: 0.42 vs 0.24 ms
//   1024->512, m = 16: 1.70 vs 1.36 ms
//   1024->512, m = 128: 8.7 vs 2.9 ms
// Below 16 rows the winner depends on m (packing wins at m = 1, where the
// dot rows run one latency-bound accumulator, and loses at m = 4); below
// 16 columns (n = 5, 8, 12 measured; the NCM cross-term has one column
// per class) the dot rows win. Both forms give the same bits, so only
// speed differs.
constexpr int64_t kPackMinRows = 16;
constexpr int64_t kPackMinCols = 16;

// Packed B^T panel of the calling thread. It grows only past the largest
// [k, n] this thread has packed and is never shrunk. The caller packs it
// and then blocks in Dispatch while pool workers read it, so no two GEMMs
// ever share a panel.
thread_local std::vector<float> t_panel;

// One accumulation step, acc + x * y, with its rounding written in source.
// kFused rounds once (std::fma, which -march=native compiles and
// vectorizes to vfmadd...ps with no libm call); unfused rounds the product
// and then the sum. This file is compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt), so the compiler can never fuse the unfused
// form on its own: the bits of every kernel below are fixed by this
// choice, not by how a given optimizer schedules the loop.
template <bool kFused>
inline float MulAdd(float acc, float x, float y) {
  if constexpr (kFused) {
    return std::fma(x, y, acc);
  } else {
    return acc + x * y;
  }
}

// Computes rows [row_begin, row_end) of C = A * B with an i-k-j loop order:
// the inner j loop is a contiguous SAXPY the compiler vectorizes. Each C
// element still sums over p in order, one MulAdd<kFused> per step. The
// fused rows skip zero activations in the tail loop (ReLU inputs); the
// unfused rows keep every term, so a zero times a non-finite weight
// propagates exactly as in GemmTransBRows, which they must match.
template <bool kFused>
void GemmRows(const float* a, const float* b, float* c, int64_t row_begin,
              int64_t row_end, int64_t k, int64_t n) {
  int64_t i = row_begin;
  for (; i + kRowTile <= row_end; i += kRowTile) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    std::memset(c0, 0, static_cast<size_t>(kRowTile * n) * sizeof(float));
    for (int64_t p = 0; p < k; ++p) {
      const float a0p = a0[p];
      const float a1p = a1[p];
      const float a2p = a2[p];
      const float a3p = a3[p];
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        const float b_pj = b_row[j];
        c0[j] = MulAdd<kFused>(c0[j], a0p, b_pj);
        c1[j] = MulAdd<kFused>(c1[j], a1p, b_pj);
        c2[j] = MulAdd<kFused>(c2[j], a2p, b_pj);
        c3[j] = MulAdd<kFused>(c3[j], a3p, b_pj);
      }
    }
  }
  for (; i < row_end; ++i) {
    float* c_row = c + i * n;
    std::memset(c_row, 0, static_cast<size_t>(n) * sizeof(float));
    const float* a_row = a + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (kFused && a_ip == 0.0f) continue;
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] = MulAdd<kFused>(c_row[j], a_ip, b_row[j]);
      }
    }
  }
}

// Rows of C = A * B^T: each output element is a contiguous dot product,
// unfused like the packed GemmTransB path, so both give the same bits.
// Row-tiled like GemmRows: four independent accumulators share one
// streamed b_row, so the weight matrix is read once per tile. The
// reduction over p cannot vectorize without reassociating it, so this is
// the slow form at wide shapes: it runs only in GemmTransB below
// kPackMinRows/kPackMinCols, where packing B^T per call does not pay.
void GemmTransBRows(const float* a, const float* b, float* c,
                    int64_t row_begin, int64_t row_end, int64_t k, int64_t n) {
  int64_t i = row_begin;
  for (; i + kRowTile <= row_end; i += kRowTile) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc0 = 0.0f;
      float acc1 = 0.0f;
      float acc2 = 0.0f;
      float acc3 = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float b_jp = b_row[p];
        acc0 = MulAdd<false>(acc0, a0[p], b_jp);
        acc1 = MulAdd<false>(acc1, a1[p], b_jp);
        acc2 = MulAdd<false>(acc2, a2[p], b_jp);
        acc3 = MulAdd<false>(acc3, a3[p], b_jp);
      }
      c0[j] = acc0;
      c1[j] = acc1;
      c2[j] = acc2;
      c3[j] = acc3;
    }
  }
  for (; i < row_end; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = MulAdd<false>(acc, a_row[p], b_row[p]);
      }
      c_row[j] = acc;
    }
  }
}

void Dispatch(int64_t m, int64_t k, int64_t n,
              const std::function<void(int64_t, int64_t)>& rows_fn) {
  const int64_t flops = 2 * m * k * n;
  ThreadPool& pool = ThreadPool::Global();
  if (flops < kParallelFlopThreshold || pool.num_threads() <= 1) {
    rows_fn(0, m);
  } else {
    pool.ParallelForRanges(m, rows_fn);
  }
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  CountGemm(m, k, n);
  Dispatch(m, k, n, [=](int64_t begin, int64_t end) {
    GemmRows<true>(a, b, c, begin, end, k, n);
  });
}

void GemmTransB(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  CountGemm(m, k, n);
  if (m < kPackMinRows || n < kPackMinCols) {
    Dispatch(m, k, n, [=](int64_t begin, int64_t end) {
      GemmTransBRows(a, b, c, begin, end, k, n);
    });
    return;
  }
  const size_t needed = static_cast<size_t>(k * n);
  if (needed > t_panel.size()) {
    // hotpath-ok: panel growth past this thread's high-water mark only
    t_panel.resize(needed);
  }
  float* panel = t_panel.data();
  PackTransposed(b, panel, n, k);
  Dispatch(m, k, n, [=](int64_t begin, int64_t end) {
    GemmRows<false>(a, panel, c, begin, end, k, n);
  });
}

// The plan's kernel at every shape, with no size threshold. Serial, one
// 4-vCPU Xeon core, median of 5 (BM_PlanGemmLayerShape), against the dot
// rows the plan ran before (GemmTransBRows over B), m = 1:
//   80->1024:  9.7 vs 58 us    1024->512: 67 vs 692 us
//   512->128:  6.0 vs 73 us    128->64: 0.80 vs 7.1 us   64->128: 1.5 vs 5.6 us
//   128->5 (NCM cross-term): 0.59 vs 0.59 us
// and 1024->512 at m = 16: 0.76 vs 4.5 ms. Weight read at m = 1, as a share
// of the 31 GB/s a 2 MB memcpy moves in the same run (BM_HostPeakCopy, read
// plus write, in L2): 1024->512 29 GB/s (94%), 80->1024 31 GB/s (100%);
// the 256 KB and 32 KB weights run at 20-40 GB/s. Only the cross-term is
// not faster (6.5 vs 5.1 us at m = 16, 0.2% of that batch), too little for
// a size selection to show, so it takes the same kernel.
void GemmPackedSerial(const float* a, const float* bt, float* c, int64_t m,
                      int64_t k, int64_t n) {
  CountGemm(m, k, n);
  GemmRows<false>(a, bt, c, 0, m, k, n);
}

// Sixteen rows of B are read side by side so each store fills one 64-byte
// line of B^T; a row-at-a-time transpose strides every store by n floats
// and ran 8x slower at the 1024->512 layer.
constexpr int64_t kPackStrip = 16;

void PackTransposed(const float* b, float* bt, int64_t n, int64_t k) {
  int64_t j0 = 0;
  for (; j0 + kPackStrip <= n; j0 += kPackStrip) {
    const float* b_strip = b + j0 * k;
    for (int64_t p = 0; p < k; ++p) {
      float* bt_row = bt + p * n + j0;
      for (int64_t q = 0; q < kPackStrip; ++q) bt_row[q] = b_strip[q * k + p];
    }
  }
  for (; j0 < n; ++j0) {
    for (int64_t p = 0; p < k; ++p) bt[p * n + j0] = b[j0 * k + p];
  }
}

void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  CountGemm(m, k, n);
  // C[m,n] = sum_p A[p,m]^T * B[p,n]. Outer-product accumulation keeps both
  // input walks contiguous. A row partition of C would be race-free, but
  // parallelizing it moved the backward pass by under 5%, so it stays
  // serial.
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  for (int64_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) continue;
      float* c_row = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] = MulAdd<true>(c_row[j], a_pi, b_row[j]);
      }
    }
  }
}

}  // namespace pilote
