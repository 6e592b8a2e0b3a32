#ifndef PILOTE_HAR_WINDOW_ASSEMBLER_H_
#define PILOTE_HAR_WINDOW_ASSEMBLER_H_

#include "tensor/tensor.h"
#include "common/hot_path.h"

namespace pilote {
namespace har {

// Streams samples into a preallocated [window_length, kNumChannels] window
// and runs the paper's per-window preprocessing (denoise + feature
// extraction) when the window fills. This is the zero-allocation ingest
// primitive of the device stream: the window and denoise scratch are
// allocated once at construction, so the steady state (one Append per
// sample) never touches the heap. core::StreamingClassifier is the one
// stream that windows raw samples; the serving layer takes feature rows.
//
// Produces the exact tensors of the original assemble-by-concatenation
// path: ConcatRows of [1, c] sample rows is the same [t, c] matrix this
// class fills in place, and the denoise/feature kernels are the same
// bit-identical implementations.
class WindowAssembler {
 public:
  WindowAssembler(int window_length, int denoise_half_width);

  // Appends one [kNumChannels] sample. When the sample completes the
  // window, writes the [1, kNumFeatures] raw feature row into *features
  // (resizing it only on first use) and returns true; the assembler is
  // then empty, ready for the next window.
  PILOTE_HOT_PATH bool Append(const Tensor& sample, Tensor* features);

  // Samples buffered toward the in-flight window.
  int pending() const { return cursor_; }
  int window_length() const { return window_length_; }

  // Read-only view of the samples buffered so far (pending() rows of the
  // ring). Generation-checked in debug builds: the view goes stale if the
  // assembler's window buffer is ever reallocated or reassigned.
  ConstSpan<float> pending_samples() const {
    return window_.span().first(
        static_cast<size_t>(cursor_) * static_cast<size_t>(window_.cols()));
  }

 private:
  const int window_length_;
  const int half_width_;
  int cursor_ = 0;
  Tensor window_;    // [window_length, kNumChannels], filled in place
  Tensor denoised_;  // scratch for the smoothed window
};

}  // namespace har
}  // namespace pilote

#endif  // PILOTE_HAR_WINDOW_ASSEMBLER_H_
