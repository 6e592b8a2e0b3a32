#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/numerics_guard.h"
#include "common/span.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace exec {
namespace {

// Replay arena of the calling thread (see executor.h). It grows only past
// the largest replay this thread has run and is never shrunk.
thread_local std::vector<float> t_arena;

// The numerics-guard insertion point of the replay path: mirrors the
// per-op PILOTE_GUARD_NUMERICS of the eager kernels, over the arena slice
// a step just wrote. Gated on the same runtime/compile-time switch.
PILOTE_HOT_PATH void GuardStepNumerics(const char* step_name, const float* p,
                                       int64_t count) {
  if (!numerics::Enabled()) return;
  for (int64_t i = 0; i < count; ++i) {
    PILOTE_CHECK(std::isfinite(p[i]))
        << "non-finite value in compiled-plan step " << step_name
        << " at flat index " << i;
  }
}

// One elementwise micro pass over [n, cols], reading src and writing dst
// (src == dst for the in-place passes after the first). Each pass stores
// every element, reproducing the rounding sequence of the eager
// RowBroadcast / ElementwiseUnary / StandardScaler::Transform kernels.
PILOTE_HOT_PATH void ApplyMicroPass(const MicroStep& micro, const float* pa,
                                    const float* pb, const float* src,
                                    float* dst, int64_t n, int64_t cols) {
  for (int64_t r = 0; r < n; ++r) {
    const float* s = src + r * cols;
    float* d = dst + r * cols;
    switch (micro.op) {
      case MicroOp::kStandardize:
        for (int64_t c = 0; c < cols; ++c) d[c] = (s[c] - pa[c]) / pb[c];
        break;
      case MicroOp::kAddRow:
        for (int64_t c = 0; c < cols; ++c) d[c] = s[c] + pa[c];
        break;
      case MicroOp::kSubRow:
        for (int64_t c = 0; c < cols; ++c) d[c] = s[c] - pa[c];
        break;
      case MicroOp::kMulRow:
        for (int64_t c = 0; c < cols; ++c) d[c] = s[c] * pa[c];
        break;
      case MicroOp::kRelu:
        for (int64_t c = 0; c < cols; ++c)
          d[c] = s[c] > 0.0f ? s[c] : 0.0f;
        break;
    }
  }
}

// Arena slice of a planned value for a batch of n rows, as a sized span:
// pointer+size in release, bounds-checked kernel-side writes in debug.
// Slices are re-derived per use — never stored across an arena resize.
PILOTE_HOT_PATH Span<float> SliceAt(const InferencePlan& plan, float* arena,
                                    int32_t value, int64_t n) {
  PILOTE_DCHECK(value > 0);
  // Per-row offsets scale by the batch size; disjoint per-row slices stay
  // disjoint after scaling (see exec/memory_planner.h).
  const ArenaSlice& s = plan.slice(value);
  return Span<float>(arena + s.offset * n, static_cast<size_t>(s.size * n));
}

// Walks steps [0, last_step] over the calling thread's arena and returns
// the arena base (ReplayEmbedding stops at the plan's output_ready_step;
// the classify tail needs the full list).
PILOTE_HOT_PATH float* ReplaySteps(const InferencePlan& plan,
                                   const Tensor& in, int32_t last_step,
                                   std::vector<int>* labels) {
  PILOTE_CHECK_EQ(in.rank(), 2);
  PILOTE_CHECK_EQ(in.cols(), plan.input_cols());
  const int64_t n = in.rows();
  const size_t needed = static_cast<size_t>(plan.arena_per_row() * n);
  if (needed > t_arena.size()) {
    // hotpath-ok: arena growth past this thread's high-water mark only
    t_arena.resize(needed);
  }
  float* arena = t_arena.data();
  auto slice = [&plan, arena, n](int32_t value) {
    return SliceAt(plan, arena, value, n);
  };
  // The input value (id 0) has no slice: it is read from the caller's
  // tensor.
  auto read = [&slice, &in](int32_t value) -> ConstSpan<float> {
    if (value == 0) return in.span();
    return slice(value);
  };
  const std::vector<Step>& steps = plan.steps();
  for (int32_t s = 0; s <= last_step; ++s) {
    const Step& step = steps[static_cast<size_t>(s)];
    switch (step.kind) {
      case StepKind::kGemmPacked: {
        const Tensor& weight_t = plan.constant(step.constant);
        GemmPackedSerial(read(step.in).data(), weight_t.data(),
                         slice(step.out).data(), n, step.k, step.cols);
        GuardStepNumerics("gemm", slice(step.out).data(), n * step.cols);
        break;
      }
      case StepKind::kElementwise: {
        const float* src = read(step.in).data();
        float* dst = slice(step.out).data();
        for (const MicroStep& micro : step.micro) {
          const float* pa =
              micro.a >= 0 ? plan.constant(micro.a).data() : nullptr;
          const float* pb =
              micro.b >= 0 ? plan.constant(micro.b).data() : nullptr;
          ApplyMicroPass(micro, pa, pb, src, dst, n, step.cols);
          src = dst;  // later passes run in place on the output slice
        }
        GuardStepNumerics("elementwise", dst, n * step.cols);
        break;
      }
      case StepKind::kRowSquaredNorm: {
        RowSquaredNormInto(read(step.in).data(), n, step.k,
                           slice(step.out).data());
        GuardStepNumerics("row_squared_norm", slice(step.out).data(), n);
        break;
      }
      case StepKind::kNcmCombine: {
        const Tensor& proto_norms = plan.constant(step.constant);
        SquaredDistanceCombineInto(read(step.in).data(),
                                   read(step.in2).data(),
                                   proto_norms.data(),
                                   slice(step.out).data(), n, step.cols);
        GuardStepNumerics("ncm_combine", slice(step.out).data(),
                          n * step.cols);
        break;
      }
      case StepKind::kArgMinLabel: {
        PILOTE_DCHECK(labels != nullptr);
        const float* distances = read(step.in).data();
        const std::vector<int>& table = plan.labels();
        labels->resize(static_cast<size_t>(n));  // hotpath-ok: the output
        for (int64_t r = 0; r < n; ++r) {
          const float* pm = distances + r * step.cols;
          // Same first-minimum rule as the eager ArgMinPerRow.
          const int64_t nearest = std::min_element(pm, pm + step.cols) - pm;
          (*labels)[static_cast<size_t>(r)] =
              table[static_cast<size_t>(nearest)];
        }
        break;
      }
    }
  }
  return arena;
}

}  // namespace

void ReplayEmbedding(const InferencePlan& plan, const Tensor& in,
                     Tensor* out) {
  PILOTE_CHECK(out != nullptr);
  const int32_t output = plan.output_value();
  PILOTE_CHECK(output > 0) << "plan has no marked tensor output";
  // Stop once the marked output is complete: the classify tail (if any)
  // never feeds back into the pinned output value.
  float* arena = ReplaySteps(plan, in, plan.output_ready_step(),
                             /*labels=*/nullptr);
  const int64_t n = in.rows();
  const int64_t out_cols = plan.value_cols(output);
  if (out->rank() != 2 || out->cols() != out_cols) {
    *out = Tensor(Shape::Matrix(n, out_cols));  // hotpath-ok: first call
  } else {
    out->ResizeRows(n);
  }
  std::memcpy(out->data(), SliceAt(plan, arena, output, n).data(),
              static_cast<size_t>(n * out_cols) * sizeof(float));
}

void ReplayClassify(const InferencePlan& plan, const Tensor& in,
                    std::vector<int>* labels) {
  PILOTE_CHECK(labels != nullptr);
  PILOTE_CHECK(plan.has_classify_tail())
      << "plan was captured without a classify tail";
  ReplaySteps(plan, in, static_cast<int32_t>(plan.steps().size()) - 1,
              labels);
}

}  // namespace exec
}  // namespace pilote
