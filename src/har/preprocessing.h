#ifndef PILOTE_HAR_PREPROCESSING_H_
#define PILOTE_HAR_PREPROCESSING_H_

#include "common/hot_path.h"
#include "har/activity.h"
#include "har/sensor_simulator.h"
#include "tensor/tensor.h"

namespace pilote {
namespace har {

// The paper's edge-side preprocessing (Sec 5, Figure 3): the raw sensor
// stream is segmented into one-second windows, each denoised and reduced
// to features in linear time. har::WindowAssembler runs that pipeline one
// sample at a time; this header holds its denoise kernel and the
// continuous recordings that feed it.

// Centered moving-average smoothing of each channel of a [t, c] recording
// (odd window size; ends use the available neighborhood), written into
// *out (resized on first use; no allocation once the shape matches).
// half_width = 0 copies the input.
PILOTE_HOT_PATH void DenoiseMovingAverageInto(const Tensor& recording,
                                              int half_width, Tensor* out);

// A continuous labeled recording, as produced on the device.
struct Recording {
  Tensor samples;  // [t, kNumChannels]
  Activity activity;
};

// Generates a continuous recording of `num_windows` seconds by
// concatenating simulator episodes (each episode spans 1-4 windows, so
// consecutive windows are correlated like a real stream).
Recording RecordContinuous(SensorSimulator& simulator, Activity activity,
                           int num_windows);

}  // namespace har
}  // namespace pilote

#endif  // PILOTE_HAR_PREPROCESSING_H_
