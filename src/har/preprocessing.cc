#include "har/preprocessing.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/macros.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace har {

void DenoiseMovingAverageInto(const Tensor& recording, int half_width,
                              Tensor* out) {
  PILOTE_CHECK_EQ(recording.rank(), 2);
  PILOTE_CHECK_GE(half_width, 0);
  PILOTE_CHECK(out != nullptr);
  PILOTE_CHECK(out != &recording) << "in-place smoothing would corrupt input";
  if (out->shape() != recording.shape()) {
    *out = Tensor(recording.shape());  // hotpath-ok: first window only
  }
  if (half_width == 0) {
    ConstSpan<float> src = recording.span();
    Span<float> dst = out->span();
    PILOTE_DCHECK(src.size() == dst.size());
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(float));
    return;
  }
  const int64_t t_len = recording.rows();
  const int64_t channels = recording.cols();
  for (int64_t t = 0; t < t_len; ++t) {
    const int64_t begin = std::max<int64_t>(0, t - half_width);
    const int64_t end = std::min<int64_t>(t_len - 1, t + half_width);
    const float inv_n = 1.0f / static_cast<float>(end - begin + 1);
    Span<float> out_row = out->row_span(t);
    for (int64_t c = 0; c < channels; ++c) {
      float acc = 0.0f;
      for (int64_t s = begin; s <= end; ++s) acc += recording(s, c);
      out_row[static_cast<size_t>(c)] = acc * inv_n;
    }
  }
}

Recording RecordContinuous(SensorSimulator& simulator, Activity activity,
                           int num_windows) {
  PILOTE_CHECK_GT(num_windows, 0);
  std::vector<Tensor> chunks;
  int remaining = num_windows;
  while (remaining > 0) {
    // One episode spans 1-4 consecutive windows: a real stream changes
    // its episode parameters (placement, intensity) only occasionally.
    const int span =
        std::min(remaining, simulator.rng().UniformInt(1, 4));
    Tensor window = simulator.GenerateWindow(activity);
    for (int i = 0; i < span; ++i) {
      // Re-generate per window but within the same episode family is not
      // exposed by the simulator; approximate stream continuity by
      // repeating the episode draw (windows stay i.i.d. in features,
      // which is what the downstream pipeline assumes).
      chunks.push_back(i == 0 ? window
                              : simulator.GenerateWindow(activity));
    }
    remaining -= span;
  }
  Recording recording;
  recording.samples = ConcatRows(chunks);
  recording.activity = activity;
  return recording;
}

}  // namespace har
}  // namespace pilote
