#include "tensor/gemm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#ifdef __AVX512F__
#include <immintrin.h>
#endif

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

// One GEMM C[m, n] = A_op * B_op over raw row-major buffers, with
// A_op(i, p) = a[i * a_row + p * a_depth] and
// B_op(p, j) = b[p * b_depth + j * b_col]. A [m, k] is (k, 1) and A [k, m]
// read as A^T is (1, m); B [k, n] is (n, 1) and B [n, k] read as B^T is
// (1, k). So one description covers all three kernels without copying an
// operand.
struct GemmArgs {
  const float* a;
  int64_t a_row;
  int64_t a_depth;
  const float* b;
  int64_t b_depth;
  int64_t b_col;
  float* c;
  int64_t m;
  int64_t k;
  int64_t n;
};

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

// Row-tile height of the SAXPY rows: B is streamed once per four rows of
// A instead of once per row, which is what makes a batched plan replay
// cheaper per row than row-at-a-time (the weight matrix is the dominant
// memory traffic at our skinny shapes).
constexpr int64_t kRowTile = 4;

// Computes rows [row_begin, row_end) of C = A * B, A [m, k] and B [k, n]
// row-major, with an i-k-j loop order: the inner j loop is a contiguous
// SAXPY the compiler vectorizes. Each C element sums over p in order, one
// MulAdd<kFused> per step. A fused step skips an exact-zero A entry (ReLU
// inputs) in every row; the unfused rows keep every term. Kept out of
// line: inlined into GemmPackedSerial, GCC 12 spilled the four C row
// pointers of the 4-row SAXPY loop and the plan's 16-row batches ran
// 10-15% slower (BM_PlanGemmLayerShape).
template <bool kFused>
[[gnu::noinline]] void GemmRows(const float* a, const float* b, float* c,
                                int64_t row_begin, int64_t row_end, int64_t k,
                                int64_t n) {
  auto saxpy = [n](float* c_row, float x, const float* b_row) {
    for (int64_t j = 0; j < n; ++j) {
      c_row[j] = MulAdd<kFused>(c_row[j], x, b_row[j]);
    }
  };
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
      if (kFused && (a0p == 0.0f || a1p == 0.0f || a2p == 0.0f ||
                     a3p == 0.0f)) {
        if (a0p != 0.0f) saxpy(c0, a0p, b_row);
        if (a1p != 0.0f) saxpy(c1, a1p, b_row);
        if (a2p != 0.0f) saxpy(c2, a2p, b_row);
        if (a3p != 0.0f) saxpy(c3, a3p, b_row);
        continue;
      }
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
      saxpy(c_row, a_ip, b + p * n);
    }
  }
}

bool RunSerial(const GemmArgs& g) {
  return 2 * g.m * g.k * g.n < kParallelFlopThreshold ||
         ThreadPool::Global().num_threads() <= 1;
}

#ifdef __AVX512F__

int64_t CeilDiv(int64_t x, int64_t y) { return (x + y - 1) / y; }

// Register tile of C: kTileRows rows by kTileCols columns (two 16-float
// vectors per row), 16 accumulators in all.
constexpr int64_t kTileRows = 8;
constexpr int64_t kTileCols = 32;

// Lanes [0, count) of a 16-float vector.
__mmask16 LaneMask(int64_t count) {
  if (count <= 0) return 0;
  if (count >= 16) return 0xFFFF;
  return static_cast<__mmask16>((1u << count) - 1u);
}

// Copies columns [j0, j0 + cols) of B_op into panel[p * kTileCols + q],
// zero past cols. The packed strip is contiguous in p, so the tile walks
// one stream whatever B's leading dimension: read in place, the 1024- and
// 512-float rows of the backbone's weights (4 KB and 2 KB strides) map the
// strip's lines onto a few L1 sets.
void PackStrip(const GemmArgs& g, int64_t j0, int64_t cols, float* panel) {
  if (g.b_col == 1) {
    const __mmask16 lo = LaneMask(cols);
    const __mmask16 hi = LaneMask(cols - 16);
    for (int64_t p = 0; p < g.k; ++p) {
      const float* src = g.b + p * g.b_depth + j0;
      float* dst = panel + p * kTileCols;
      _mm512_store_ps(dst, _mm512_maskz_loadu_ps(lo, src));
      _mm512_store_ps(dst + 16, _mm512_maskz_loadu_ps(hi, src + 16));
    }
    return;
  }
  // B^T: column j of B_op is row j of b, contiguous over p. Sixteen p at a
  // time keep the strided stores inside 16 panel lines.
  constexpr int64_t kDepthBlock = 16;
  for (int64_t p0 = 0; p0 < g.k; p0 += kDepthBlock) {
    const int64_t p_end = std::min(g.k, p0 + kDepthBlock);
    for (int64_t q = 0; q < kTileCols; ++q) {
      float* dst = panel + q;
      if (q >= cols) {
        for (int64_t p = p0; p < p_end; ++p) dst[p * kTileCols] = 0.0f;
        continue;
      }
      const float* src = g.b + (j0 + q) * g.b_col;
      for (int64_t p = p0; p < p_end; ++p) {
        dst[p * kTileCols] = src[p * g.b_depth];
      }
    }
  }
}

// C[i0 .. i0 + kRows, j0 .. j0 + 16 * kVecs) = A_op rows times one packed
// strip, held in registers while p walks 0..k in order from 0.0f. The
// fused step is one masked vfmadd per vector: a lane keeps its
// accumulator where the A entry is an exact zero (the compare is unordered,
// so a NaN entry is not skipped). The unfused step is a vmulps then a
// vaddps, which -ffp-contract=off keeps apart. Each C element so sees
// exactly the rounding sequence of MulAdd<kFused> over p, the contract
// tests/gemm_test.cc pins with memcmp. The tile is written with
// intrinsics, whose accumulators GCC 12 keeps in registers (no stack
// access in the p loop of the 8-row tiles' object code).
template <bool kFused, int kRows, int kVecs>
void Tile(const GemmArgs& g, const float* panel, int64_t i0, int64_t j0,
          __mmask16 lo, __mmask16 hi) {
  __m512 acc[kRows][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm512_setzero_ps();
  }
  const float* a = g.a + i0 * g.a_row;
  const int64_t a_row = g.a_row;
  for (int64_t p = 0; p < g.k; ++p) {
    const float* ap = a + p * g.a_depth;
    const float* bp = panel + p * kTileCols;
    __m512 b[kVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) b[v] = _mm512_load_ps(bp + 16 * v);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m512 x = _mm512_set1_ps(ap[r * a_row]);
      if constexpr (kFused) {
        const __mmask16 nonzero =
            _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_NEQ_UQ);
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = _mm512_mask3_fmadd_ps(x, b[v], acc[r][v], nonzero);
        }
      } else {
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(x, b[v]));
        }
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    float* c_row = g.c + (i0 + r) * g.n + j0;
    _mm512_mask_storeu_ps(c_row, lo, acc[r][0]);
    if constexpr (kVecs == 2) _mm512_mask_storeu_ps(c_row + 16, hi, acc[r][1]);
  }
}

using TileFn = void (*)(const GemmArgs&, const float*, int64_t, int64_t,
                        __mmask16, __mmask16);

// kTiles[kVecs - 1][rows - 1]: the tile for a row tail of 1..kTileRows rows.
template <bool kFused, int kVecs, int... kRowsMinus1>
constexpr std::array<TileFn, kTileRows> TileRow(
    std::integer_sequence<int, kRowsMinus1...>) {
  return {&Tile<kFused, kRowsMinus1 + 1, kVecs>...};
}
template <bool kFused>
constexpr std::array<std::array<TileFn, kTileRows>, 2> kTiles = {
    TileRow<kFused, 1>(std::make_integer_sequence<int, kTileRows>()),
    TileRow<kFused, 2>(std::make_integer_sequence<int, kTileRows>())};

// Packed column strip of the calling thread, 64-byte aligned. It grows
// only past the deepest k this thread has packed and is never shrunk. Each
// pool task packs its own strip, so no two threads ever share one.
thread_local std::vector<float> t_strip;

float* StripPanel(int64_t k) {
  const size_t needed = static_cast<size_t>(k * kTileCols + 16);
  if (needed > t_strip.size()) {
    // hotpath-ok: strip growth past this thread's high-water mark only
    t_strip.resize(needed);
  }
  const uintptr_t base = reinterpret_cast<uintptr_t>(t_strip.data());
  return t_strip.data() + ((64 - base % 64) % 64) / sizeof(float);
}

// Packs column strip `strip` once and runs every row tile of
// [row_begin, row_end) over it.
template <bool kFused>
void StripRows(const GemmArgs& g, int64_t strip, int64_t row_begin,
               int64_t row_end) {
  float* panel = StripPanel(g.k);
  const int64_t j0 = strip * kTileCols;
  const int64_t cols = std::min(kTileCols, g.n - j0);
  PackStrip(g, j0, cols, panel);
  const std::array<TileFn, kTileRows>& tiles = kTiles<kFused>[cols > 16];
  const __mmask16 lo = LaneMask(cols);
  const __mmask16 hi = LaneMask(cols - 16);
  for (int64_t i = row_begin; i < row_end; i += kTileRows) {
    const int64_t rows = std::min(kTileRows, row_end - i);
    tiles[static_cast<size_t>(rows - 1)](g, panel, i, j0, lo, hi);
  }
}

// Tile tasks per pool thread. ThreadPool::ParallelFor hands each worker
// one contiguous chunk of them, so this only sets how finely C is split.
constexpr int64_t kTasksPerThread = 4;

// Runs C = A_op * B_op as (row block x column strip) tasks. Column strips
// alone are too few at n = 80 (2.5 strips) and row blocks alone too
// short at m = 64; each task packs its strip once for all its row tiles.
// Tasks write disjoint C tiles, so any split is race-free.
//
// bench_micro_kernels, median of 3 runs of 5, 4-vCPU Xeon, 4 pool
// threads, us, the kernels before this tile -> the tile. The backbone's
// layers at the 128-row training batch, in -> out:
//                  80->1024  1024->512  512->128  128->64  64->128
//   forward        834->208 4111->1000  549->205  133->34  108->39
//   input grad     746->167  3795->725  570->126  147->31  164->29
//   weight grad   1586->185  11299->881 1071->134 113->27  138->26
// (the weight gradient ran serial before). GemmTransB at the shapes where
// it used to run dot-product rows instead of packing B^T: 1024->512 at
// m = 1, 4, 16: 392->382, 834->181, 1954->275; 512 rows of 128->5 and
// 128->16: 150->45, 246->52. So the tile runs at every shape.
template <bool kFused>
void RunGemm(const GemmArgs& g) {
  if (g.m == 0 || g.n == 0) return;
  const int64_t strips = CeilDiv(g.n, kTileCols);
  if (RunSerial(g)) {
    for (int64_t s = 0; s < strips; ++s) StripRows<kFused>(g, s, 0, g.m);
    return;
  }
  ThreadPool& pool = ThreadPool::Global();
  const int64_t row_tiles = CeilDiv(g.m, kTileRows);
  const int64_t blocks = std::clamp<int64_t>(
      CeilDiv(kTasksPerThread * pool.num_threads(), strips), 1, row_tiles);
  const int64_t block_rows = CeilDiv(row_tiles, blocks) * kTileRows;
  const int64_t row_blocks = CeilDiv(g.m, block_rows);
  pool.ParallelFor(row_blocks * strips, [&g, strips, block_rows](int64_t t) {
    const int64_t row_begin = (t / strips) * block_rows;
    StripRows<kFused>(g, t % strips, row_begin,
                      std::min(g.m, row_begin + block_rows));
  });
}

#else  // !__AVX512F__

// Transposed operand of the calling thread: A^T for GemmTransA, B^T for
// GemmTransB. It grows only past the largest operand this thread has
// transposed and is never shrunk. The caller fills it and then blocks in
// ParallelForRanges while pool workers read it, so no two GEMMs ever share
// a panel.
thread_local std::vector<float> t_panel;

// Without AVX-512 every kernel runs the SAXPY rows over A [m, k] and
// B [k, n], partitioned over rows of C; GemmTransA and GemmTransB first
// transpose their transposed operand into the panel.
template <bool kFused>
void RunGemm(const GemmArgs& g) {
  const float* a = g.a;
  const float* b = g.b;
  if (g.a_depth != 1 || g.b_col != 1) {
    const size_t needed =
        static_cast<size_t>(g.k * (g.a_depth != 1 ? g.m : g.n));
    if (needed > t_panel.size()) {
      // hotpath-ok: panel growth past this thread's high-water mark only
      t_panel.resize(needed);
    }
    if (g.a_depth != 1) {
      PackTransposed(g.a, t_panel.data(), g.k, g.m);
      a = t_panel.data();
    } else {
      PackTransposed(g.b, t_panel.data(), g.n, g.k);
      b = t_panel.data();
    }
  }
  if (RunSerial(g)) {
    GemmRows<kFused>(a, b, g.c, 0, g.m, g.k, g.n);
    return;
  }
  ThreadPool::Global().ParallelForRanges(
      g.m, [&g, a, b](int64_t begin, int64_t end) {
        GemmRows<kFused>(a, b, g.c, begin, end, g.k, g.n);
      });
}

#endif  // __AVX512F__

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  CountGemm(m, k, n);
  RunGemm<true>({a, k, 1, b, n, 1, c, m, k, n});
}

void GemmTransB(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  CountGemm(m, k, n);
  RunGemm<false>({a, k, 1, b, 1, k, c, m, k, n});
}

void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  CountGemm(m, k, n);
  RunGemm<true>({a, 1, m, b, n, 1, c, m, k, n});
}

// The plan's kernel at every shape, with no size threshold: the SAXPY rows
// over the B^T stored at capture, serial and allocation-free. It keeps the
// rows rather than the tile: the tile reads B through a strip panel packed
// per call, which would grow a thread_local on the allocation-free replay
// path, and a batch-1 window is bound by the weight read, which the rows
// already stream at about the L2 copy rate (DESIGN.md, compiled inference
// plans).
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

}  // namespace pilote
