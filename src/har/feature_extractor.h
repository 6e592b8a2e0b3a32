#ifndef PILOTE_HAR_FEATURE_EXTRACTOR_H_
#define PILOTE_HAR_FEATURE_EXTRACTOR_H_

#include <string>
#include <vector>

#include "har/sensor_layout.h"
#include "common/hot_path.h"
#include "tensor/tensor.h"

namespace pilote {
namespace har {

// The paper's handcrafted statistical features (Sec 6.1.1): from each
// 1-second window of 22 channels it extracts 80 features —
//   * mean and variance of every channel            (22 * 2 = 44)
//   * mean and variance of the jerk (first time difference scaled by the
//     sample rate) of every three-axis channel      (18 * 2 = 36)
// Extraction is a single linear pass over the window, matching the paper's
// "linear processing time" requirement for on-edge preprocessing.
inline constexpr int kNumFeatures = 80;

// window: [kWindowLength, kNumChannels] -> [kNumFeatures].
Tensor ExtractFeatures(const Tensor& window);

// In-place variant for the serve hot loop: writes the features of `window`
// into *features shaped [1, kNumFeatures] (a batched-classification row),
// resizing only on first use. Values are bit-identical to ExtractFeatures.
PILOTE_HOT_PATH void ExtractFeaturesInto(const Tensor& window,
                                         Tensor* features);

// Stable names ("acc_x_mean", "acc_x_var", ..., "gyro_y_jerk_var", ...)
// aligned with the output order of ExtractFeatures.
const std::vector<std::string>& FeatureNames();

}  // namespace har
}  // namespace pilote

#endif  // PILOTE_HAR_FEATURE_EXTRACTOR_H_
