#include "exec/plan.h"

#include <sstream>
#include <utility>

#include "common/macros.h"

namespace pilote {
namespace exec {
namespace {

const char* StepKindName(StepKind kind) {
  switch (kind) {
    case StepKind::kGemmPacked:
      return "gemm_packed";
    case StepKind::kElementwise:
      return "elementwise";
    case StepKind::kRowSquaredNorm:
      return "row_squared_norm";
    case StepKind::kNcmCombine:
      return "ncm_combine";
    case StepKind::kArgMinLabel:
      return "argmin_label";
  }
  return "?";
}

const char* MicroOpName(MicroOp op) {
  switch (op) {
    case MicroOp::kStandardize:
      return "standardize";
    case MicroOp::kAddRow:
      return "add_row";
    case MicroOp::kSubRow:
      return "sub_row";
    case MicroOp::kMulRow:
      return "mul_row";
    case MicroOp::kRelu:
      return "relu";
  }
  return "?";
}

}  // namespace

InferencePlan::InferencePlan(std::vector<Step> steps,
                             std::vector<Tensor> constants,
                             std::vector<ArenaSlice> value_slices,
                             std::vector<int64_t> value_cols,
                             std::vector<int> labels, int64_t input_cols,
                             int32_t output_value, int32_t output_ready_step,
                             int64_t arena_per_row, int64_t version)
    : steps_(std::move(steps)),
      constants_(std::move(constants)),
      value_slices_(std::move(value_slices)),
      value_cols_(std::move(value_cols)),
      labels_(std::move(labels)),
      input_cols_(input_cols),
      output_value_(output_value),
      output_ready_step_(output_ready_step),
      arena_per_row_(arena_per_row),
      version_(version) {
  PILOTE_CHECK(!steps_.empty());
  PILOTE_CHECK_GT(input_cols_, 0);
}

std::string InferencePlan::DebugString() const {
  std::ostringstream os;
  os << "plan v" << version_ << ": input [n, " << input_cols_
     << "], arena " << arena_per_row_ << " floats/row, " << steps_.size()
     << " steps\n";
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    os << "  #" << i << " " << StepKindName(step.kind) << " v" << step.in;
    if (step.in2 >= 0) os << " (+v" << step.in2 << ")";
    if (step.out >= 0) {
      os << " -> v" << step.out << " [n, " << step.cols << "]";
      if (step.out == step.in) os << " in-place";
    } else {
      os << " -> labels";
    }
    if (step.kind == StepKind::kElementwise) {
      os << " {";
      for (size_t m = 0; m < step.micro.size(); ++m) {
        if (m > 0) os << ", ";
        os << MicroOpName(step.micro[m].op);
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace exec
}  // namespace pilote
