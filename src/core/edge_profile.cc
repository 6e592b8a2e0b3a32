#include "core/edge_profile.h"

#include <chrono>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/alloc_tracker.h"
#include "exec/executor.h"
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
     << inference_allocs_per_window
     << " allocs/window\n"
     << "exec: ";
  if (exec_plan_live) {
    os << "plan " << exec_plan_ms_per_window << " ms/window ("
       << exec_plan_allocs_per_window << " allocs) vs eager "
       << exec_eager_ms_per_window << " ms/window ("
       << exec_eager_allocs_per_window << " allocs)\n";
  } else {
    os << "no live plan (eager " << exec_eager_ms_per_window
       << " ms/window, " << exec_eager_allocs_per_window << " allocs)\n";
  }
  os << "training: ";
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

  // Compiled-plan vs eager-tape execution over the same rows. The rows are
  // pre-gathered and both loops warm up first, so each timed region covers
  // execution only — no gather, no arena growth, no first-call buffers.
  const int64_t n_rows = probe_features.rows();
  std::vector<Tensor> rows;
  rows.reserve(static_cast<size_t>(n_rows));
  for (int64_t r = 0; r < n_rows; ++r) {
    rows.push_back(GatherRows(probe_features, {r}));
  }
  using MilliDouble = std::chrono::duration<double, std::milli>;
  {
    const auto eager_predict = [&learner](const Tensor& row) {
      return learner.classifier().Predict(learner.EmbedRaw(row));
    };
    eager_predict(rows.front());  // warm-up
    alloc::AllocationScope eager_scope;
    const auto start = std::chrono::steady_clock::now();
    for (const Tensor& row : rows) eager_predict(row);
    const auto end = std::chrono::steady_clock::now();
    report.exec_eager_ms_per_window =
        MilliDouble(end - start).count() / static_cast<double>(n_rows);
    report.exec_eager_allocs_per_window =
        static_cast<double>(eager_scope.count()) /
        static_cast<double>(n_rows);
  }
  std::shared_ptr<const exec::InferencePlan> plan = learner.inference_plan();
  if (plan != nullptr) {
    report.exec_plan_live = true;
    std::vector<int> labels;
    // warm-up: this thread's replay arena and the label buffer
    exec::ReplayClassify(*plan, rows.front(), &labels);
    alloc::AllocationScope plan_scope;
    const auto start = std::chrono::steady_clock::now();
    for (const Tensor& row : rows) exec::ReplayClassify(*plan, row, &labels);
    const auto end = std::chrono::steady_clock::now();
    report.exec_plan_ms_per_window =
        MilliDouble(end - start).count() / static_cast<double>(n_rows);
    report.exec_plan_allocs_per_window =
        static_cast<double>(plan_scope.count()) /
        static_cast<double>(n_rows);
  }

  if (last_report != nullptr) {
    report.train_epoch_seconds = last_report->mean_epoch_seconds;
  }
  return report;
}

}  // namespace core
}  // namespace pilote
