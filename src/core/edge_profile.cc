#include "core/edge_profile.h"

#include <cmath>
#include <sstream>

#include "common/alloc_tracker.h"
#include "obs/metrics.h"
#include "serialize/quantize.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace core {

std::string EdgeProfileReport::ToString() const {
  std::ostringstream os;
  os << "model: " << model_parameters << " params (" << model_bytes
     << " B)\n"
     << "support set: " << support_exemplars << " exemplars ("
     << support_bytes_fp32 << " B fp32, " << support_bytes_fp16
     << " B fp16, " << support_bytes_int8 << " B int8)\n"
     << "prototypes: " << prototype_bytes << " B\n"
     << "inference: " << inference_ms_per_window << " ms/window (p50 "
     << inference_p50_ms << ", p95 " << inference_p95_ms << ", p99 "
     << inference_p99_ms << ", p999 " << inference_p999_ms << "), "
     << inference_allocs_per_window << " allocs/window\n"
     << "training: ";
  if (std::isnan(train_epoch_seconds)) {
    os << "n/a";
  } else {
    os << train_epoch_seconds << " s/epoch";
  }
  return os.str();
}

EdgeProfileReport ProfileEdge(const EdgeLearner& learner,
                              const Tensor& probe_features,
                              const TrainReport* last_report) {
  EdgeProfileReport report;

  report.model_parameters = learner.ModelParameters();
  report.model_bytes = learner.ModelStateBytes();

  const SupportSet& support = learner.support();
  report.support_exemplars = support.TotalExemplars();
  report.support_bytes_fp32 =
      support.StorageBytes(serialize::QuantMode::kFloat32);
  report.support_bytes_fp16 =
      support.StorageBytes(serialize::QuantMode::kFloat16);
  report.support_bytes_int8 =
      support.StorageBytes(serialize::QuantMode::kInt8);
  report.prototype_bytes = learner.classifier().StorageBytes();

  // End-to-end inference latency (scaling + embedding + NCM). Predict()
  // feeds the shared "core/inference_window_ms" histogram; probing row by
  // row makes each recorded sample a true single-window latency, and the
  // before/after snapshot delta isolates this probe from any earlier
  // recordings in the process.
  PILOTE_CHECK_GT(probe_features.rows(), 0);
  obs::ScopedEnable enable_metrics;
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "core/inference_window_ms");
  const obs::HistogramSnapshot before = latency.Snapshot();
  // The allocation count includes the probe-row gather — one small
  // constant per window, same as the serve ingest handing a feature row
  // to the batcher — so the figure matches the deployed steady state.
  alloc::ScopedTracking track_allocs;
  alloc::AllocationScope alloc_scope;
  for (int64_t r = 0; r < probe_features.rows(); ++r) {
    learner.Predict(GatherRows(probe_features, {r}));
  }
  report.inference_allocs_per_window =
      static_cast<double>(alloc_scope.count()) /
      static_cast<double>(probe_features.rows());
  const obs::HistogramSnapshot probe =
      obs::Delta(before, latency.Snapshot());
  report.inference_ms_per_window = probe.Mean();
  report.inference_p50_ms = probe.Percentile(0.50);
  report.inference_p95_ms = probe.Percentile(0.95);
  report.inference_p99_ms = probe.Percentile(0.99);
  report.inference_p999_ms = probe.Percentile(0.999);

  if (last_report != nullptr) {
    report.train_epoch_seconds = last_report->mean_epoch_seconds;
  }
  return report;
}

}  // namespace core
}  // namespace pilote
