// Serving-layer benchmark: replays M simulated device streams of feature
// windows through the SessionManager, once with batch-1 flushes and once
// with cross-stream batching (one backbone GEMM chain for K windows).
// Prints the mean achieved batch and the serve worker's heap allocations
// per window for each pass; --bench-json writes the counted allocation
// figures that CI gates. It is also the CI driver of the telemetry
// exporter. It times nothing: perfbench measures serve latency and
// throughput at a stated offered load.
//
// Flags:
//   --devices=N     simulated device streams        (default 8)
//   --windows=N     feature windows per device      (default 200)
//   --max-batch=N   batched-pass coalescing limit   (default 16)
//   --threads=N     ingest threads                  (default 4)
//   --small         test-sized backbone instead of the paper's
//   --bench-json=PATH  write the allocation counts as JSON for
//                      tools/check_bench_regression.py
//   --metrics-json=PATH / --trace-out=PATH  (see obs/export.h)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "nn/backbone.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serialize/io.h"
#include "serve/session_manager.h"
#include "tensor/tensor.h"

namespace {

using pilote::Rng;
using pilote::Shape;
using pilote::Tensor;

struct BenchArgs {
  int devices = 8;
  int windows = 200;
  int max_batch = 16;
  int threads = 4;
  bool small = false;  // --small: test-sized backbone for smoke runs
  std::string bench_json;  // --bench-json=PATH: results written as JSON
};

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--devices=", 0) == 0) {
      args.devices = std::atoi(arg.c_str() + std::strlen("--devices="));
    } else if (arg.rfind("--windows=", 0) == 0) {
      args.windows = std::atoi(arg.c_str() + std::strlen("--windows="));
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      args.max_batch = std::atoi(arg.c_str() + std::strlen("--max-batch="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      args.threads = std::atoi(arg.c_str() + std::strlen("--threads="));
    } else if (arg == "--small") {
      args.small = true;
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      args.bench_json = arg.substr(std::strlen("--bench-json="));
    } else {
      std::fprintf(stderr, "warning: unknown flag %s\n", arg.c_str());
    }
  }
  PILOTE_CHECK_GT(args.devices, 0);
  PILOTE_CHECK_GT(args.windows, 0);
  PILOTE_CHECK_GT(args.max_batch, 0);
  PILOTE_CHECK_GT(args.threads, 0);
  return args;
}

// A cloud artifact without the cloud: randomly initialized backbone and
// synthetic exemplar clusters. Throughput depends only on tensor shapes,
// not on learned weights.
pilote::core::CloudArtifact MakeArtifact(
    const pilote::core::PiloteConfig& config) {
  Rng rng(20230901);
  pilote::nn::MlpBackbone model(config.backbone, rng);
  pilote::core::CloudArtifact artifact;
  artifact.backbone_config = config.backbone;
  artifact.model_payload = pilote::serialize::SerializeModuleToString(model);
  const int64_t input_dim = config.backbone.input_dim;
  artifact.scaler.Fit(Tensor::RandNormal(Shape::Matrix(128, input_dim), rng));
  for (int label = 0; label < 4; ++label) {
    Tensor exemplars =
        Tensor::RandNormal(Shape::Matrix(16, input_dim), rng,
                           /*mean=*/static_cast<float>(2 * label), 0.25f);
    artifact.support.SetClassExemplars(label,
                                       artifact.scaler.Transform(exemplars));
    artifact.old_classes.push_back(label);
  }
  return artifact;
}

struct PassResult {
  int64_t classified = 0;
  int64_t batches = 0;
  int64_t flush_allocs = 0;  // worker-thread allocations across flushes

  double MeanBatch() const {
    return batches > 0
               ? static_cast<double>(classified) / static_cast<double>(batches)
               : 0.0;
  }
  // Steady-state heap allocations per classified window on the serve
  // worker (flush scratch + batched predict); the quantity the hot-path
  // lint and the alloc-pin test keep honest.
  double AllocsPerWindow() const {
    return classified > 0 ? static_cast<double>(flush_allocs) /
                                static_cast<double>(classified)
                          : 0.0;
  }
  double AllocsPerFlush() const {
    return batches > 0 ? static_cast<double>(flush_allocs) /
                             static_cast<double>(batches)
                       : 0.0;
  }
};

// Replays every device's pre-extracted feature windows through one
// SessionManager configured with `max_batch`. Windows are submitted
// asynchronously (SubmitWindow) from `threads` ingest threads — the
// serving shape where independent devices produce windows concurrently —
// and all futures are resolved before the counters are read.
PassResult RunPass(const BenchArgs& args,
                   const std::shared_ptr<pilote::serve::LearnerHandle>& handle,
                   const pilote::core::StreamingOptions& streaming,
                   const std::vector<std::vector<Tensor>>& device_windows,
                   int max_batch) {
  pilote::serve::ServeOptions options;
  options.max_batch = max_batch;
  options.max_delay_us = 2000;
  options.queue_capacity =
      static_cast<int64_t>(args.devices) * args.windows + 16;
  pilote::serve::SessionManager manager(options);

  std::vector<pilote::serve::SessionId> ids;
  for (int d = 0; d < args.devices; ++d) {
    pilote::Result<pilote::serve::SessionId> id =
        manager.CreateSession(handle, streaming);
    PILOTE_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  pilote::obs::Counter& batch_count =
      pilote::obs::MetricsRegistry::Global().GetCounter("serve/batches");
  pilote::obs::Counter& flush_allocs =
      pilote::obs::MetricsRegistry::Global().GetCounter("serve/flush_allocs");
  const int64_t batches_before = batch_count.value();
  const int64_t allocs_before = flush_allocs.value();
  // Arms the global operator-new interposer so the worker thread reports
  // its per-flush allocation counts through serve/flush_allocs.
  pilote::alloc::ScopedTracking track_allocs;

  std::atomic<int64_t> classified{0};
  std::vector<std::thread> ingest;
  for (int t = 0; t < args.threads; ++t) {
    ingest.emplace_back([&, t] {
      std::vector<std::future<int>> futures;
      for (int d = t; d < args.devices; d += args.threads) {
        for (const Tensor& window : device_windows[static_cast<size_t>(d)]) {
          while (true) {
            pilote::Result<std::future<int>> f =
                manager.SubmitWindow(ids[static_cast<size_t>(d)], window);
            if (f.ok()) {
              futures.push_back(std::move(f).value());
              break;
            }
            PILOTE_CHECK(f.status().code() ==
                         pilote::StatusCode::kResourceExhausted)
                << f.status().ToString();
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
      }
      for (std::future<int>& f : futures) {
        if (f.get() >= 0) classified.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : ingest) thread.join();

  PassResult result;
  result.classified = classified.load();
  result.batches = batch_count.value() - batches_before;
  result.flush_allocs = flush_allocs.value() - allocs_before;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  argc = pilote::obs::ConsumeMetricsFlags(argc, argv);
  const BenchArgs args = ParseArgs(argc, argv);
  pilote::obs::ScopedEnable metrics_enabled;

  // The deployment-shaped workload is the paper's [1024,512,128,64]->128
  // backbone; --small swaps in the test-sized one for sanitizer smoke runs.
  pilote::core::PiloteConfig config = pilote::core::PiloteConfig::Small();
  if (!args.small) config.backbone = pilote::nn::BackboneConfig::Paper();
  pilote::Result<std::shared_ptr<pilote::serve::LearnerHandle>> handle =
      pilote::serve::LearnerHandle::Create("pretrained", MakeArtifact(config),
                                           config);
  PILOTE_CHECK(handle.ok()) << handle.status().ToString();

  // Pre-extract every device's feature windows so both passes replay the
  // identical classification workload.
  Rng rng(99);
  std::vector<std::vector<Tensor>> device_windows(
      static_cast<size_t>(args.devices));
  for (auto& windows : device_windows) {
    windows.reserve(static_cast<size_t>(args.windows));
    for (int w = 0; w < args.windows; ++w) {
      windows.push_back(Tensor::RandNormal(
          Shape::Matrix(1, config.backbone.input_dim), rng));
    }
  }

  std::printf("serving benchmark: %d devices x %d windows, %d ingest threads\n",
              args.devices, args.windows, args.threads);
  const int64_t total = static_cast<int64_t>(args.devices) * args.windows;

  PassResult unbatched = RunPass(args, handle.value(), config.streaming,
                                 device_windows, /*max_batch=*/1);
  PILOTE_CHECK_EQ(unbatched.classified, total);
  PassResult batched = RunPass(args, handle.value(), config.streaming,
                               device_windows, args.max_batch);
  PILOTE_CHECK_EQ(batched.classified, total);

  std::printf("\n%-12s %12s %11s\n", "config", "mean batch", "allocs/win");
  std::printf("%-12s %12.2f %11.1f\n", "batch=1", unbatched.MeanBatch(),
              unbatched.AllocsPerWindow());
  std::printf("%-12s %12.2f %11.1f\n",
              ("batch=" + std::to_string(args.max_batch)).c_str(),
              batched.MeanBatch(), batched.AllocsPerWindow());

  if (!args.bench_json.empty()) {
    // Hand-rolled JSON, same style as obs/export. Only counted
    // quantities: the per-flush counts are gated by the regression check
    // (they do not depend on scheduling); the batched per-window rate
    // varies with the achieved batch size, so it is exported under a
    // non-gated name.
    std::FILE* f = std::fopen(args.bench_json.c_str(), "w");
    PILOTE_CHECK(f != nullptr) << "cannot write " << args.bench_json;
    std::fprintf(f,
                 "{\n"
                 "  \"allocs_per_window_batch1\": %.3f,\n"
                 "  \"batched_window_alloc_rate\": %.3f,\n"
                 "  \"allocs_per_flush_batch1\": %.3f,\n"
                 "  \"allocs_per_flush_batched\": %.3f\n"
                 "}\n",
                 unbatched.AllocsPerWindow(), batched.AllocsPerWindow(),
                 unbatched.AllocsPerFlush(), batched.AllocsPerFlush());
    std::fclose(f);
    std::printf("bench json written to %s\n", args.bench_json.c_str());
  }
  return 0;
}
