// Microbenchmarks (google-benchmark) of the computational kernels behind
// the pipeline: GEMM at the paper backbone's layer shapes, the 80-feature
// extractor, NCM classification, and herding selection, plus two host-peak
// probes (FMA rate, streaming copy) that the GEMM rates are read against.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "obs/export.h"
#include "core/exemplar_selector.h"
#include "core/ncm_classifier.h"
#include "har/feature_extractor.h"
#include "har/sensor_simulator.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace {

void BM_GemmLayerShape(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t in = state.range(1);
  const int64_t out = state.range(2);
  Rng rng(1);
  Tensor x = Tensor::RandNormal(Shape::Matrix(batch, in), rng);
  Tensor w = Tensor::RandNormal(Shape::Matrix(out, in), rng);
  for (auto _ : state) {
    Tensor y = MatMulTransB(x, w);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * in * out);
}
// The paper backbone's layer shapes at a 128-row siamese batch, plus the
// shapes around where MatMulTransB switches from the dot rows to packing
// B^T (kPackMinRows/kPackMinCols in src/tensor/gemm.cc): the widest layer
// at few rows, and the NCM cross-term (5 prototypes) next to 16 columns.
BENCHMARK(BM_GemmLayerShape)
    ->Args({128, 80, 1024})
    ->Args({128, 1024, 512})
    ->Args({128, 512, 128})
    ->Args({128, 128, 64})
    ->Args({128, 64, 128})
    ->Args({1, 1024, 512})
    ->Args({4, 1024, 512})
    ->Args({16, 1024, 512})
    ->Args({32, 1024, 512})
    ->Args({512, 128, 5})
    ->Args({512, 128, 16})
    ->UseRealTime();

// The compiled-plan GEMM (what every serve window runs) over a weight
// transposed once, as plan capture stores it. Bytes processed is the
// weight read per call, the traffic that bounds a batch-1 window; compare
// it with BM_HostPeakCopy.
void BM_PlanGemmLayerShape(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t in = state.range(1);
  const int64_t out = state.range(2);
  Rng rng(1);
  Tensor x = Relu(Tensor::RandNormal(Shape::Matrix(batch, in), rng));
  Tensor w = Tensor::RandNormal(Shape::Matrix(out, in), rng);
  Tensor wt(Shape::Matrix(in, out));
  PackTransposed(w.data(), wt.data(), out, in);
  Tensor y(Shape::Matrix(batch, out));
  for (auto _ : state) {
    GemmPackedSerial(x.data(), wt.data(), y.data(), batch, in, out);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * in * out);
  state.SetBytesProcessed(state.iterations() * in * out *
                          static_cast<int64_t>(sizeof(float)));
}
// The paper backbone 80 -> [1024, 512, 128, 64] -> 128 and its NCM
// cross-term (5 prototypes), one window (m = 1) and one full serve batch
// (m = 16).
BENCHMARK(BM_PlanGemmLayerShape)
    ->ArgsProduct({{1, 16}, {80}, {1024}})
    ->ArgsProduct({{1, 16}, {1024}, {512}})
    ->ArgsProduct({{1, 16}, {512}, {128}})
    ->ArgsProduct({{1, 16}, {128}, {64}})
    ->ArgsProduct({{1, 16}, {64}, {128}})
    ->ArgsProduct({{1, 16}, {128}, {5}})
    ->UseRealTime();

// Host FMA peak of one core: twelve independent 8-float FMA chains, more
// than FMA latency times issue width, so the loop is throughput-bound.
// Items processed are FLOPs (2 per FMA).
void BM_HostPeakFma(benchmark::State& state) {
  constexpr int kLanes = 96;  // 12 chains of 8 floats
  constexpr int kReps = 1024;
  Rng rng(9);
  const float mul = 1.0f - 1e-7f * static_cast<float>(rng.UniformDouble());
  const float add = 1e-7f * static_cast<float>(rng.UniformDouble());
  float acc[kLanes];
  for (int l = 0; l < kLanes; ++l) acc[l] = static_cast<float>(l);
  for (auto _ : state) {
    for (int r = 0; r < kReps; ++r) {
      for (int l = 0; l < kLanes; ++l) acc[l] = std::fma(acc[l], mul, add);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kReps * kLanes);
}
BENCHMARK(BM_HostPeakFma);

// Host streaming bandwidth of one core: memcpy between two buffers that
// together take the given footprint. Bytes processed count the read and
// the write. At 2 MB, the size of the largest plan weight (1024 -> 512)
// and of one core's L2, the copy stays in L2; 64 MB is well past it.
void BM_HostPeakCopy(benchmark::State& state) {
  const size_t half = static_cast<size_t>(state.range(0)) / 2;
  std::vector<char> src(half, 1);
  std::vector<char> dst(half, 0);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), half);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 2 *
                          static_cast<int64_t>(half));
}
BENCHMARK(BM_HostPeakCopy)->Arg(2 << 20)->Arg(64 << 20)->UseRealTime();

// The Linear weight gradient of the backward pass: dW[out, in] =
// dY[batch, out]^T * X[batch, in].
void BM_GemmTransALayerShape(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t in = state.range(1);
  const int64_t out = state.range(2);
  Rng rng(1);
  Tensor dy = Tensor::RandNormal(Shape::Matrix(batch, out), rng);
  Tensor x = Tensor::RandNormal(Shape::Matrix(batch, in), rng);
  for (auto _ : state) {
    Tensor dw = MatMulTransA(dy, x);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * in * out);
}
BENCHMARK(BM_GemmTransALayerShape)
    ->Args({128, 80, 1024})
    ->Args({128, 1024, 512})
    ->Args({128, 512, 128})
    ->Args({128, 128, 64})
    ->Args({128, 64, 128})
    ->UseRealTime();

// The Linear input gradient of the backward pass: dX[batch, in] =
// dY[batch, out] * W[out, in], with dY ReLU-sparse as the backward pass
// sees it.
void BM_GemmGradInputLayerShape(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t in = state.range(1);
  const int64_t out = state.range(2);
  Rng rng(1);
  Tensor dy = Relu(Tensor::RandNormal(Shape::Matrix(batch, out), rng));
  Tensor w = Tensor::RandNormal(Shape::Matrix(out, in), rng);
  for (auto _ : state) {
    Tensor dx = MatMul(dy, w);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * in * out);
}
BENCHMARK(BM_GemmGradInputLayerShape)
    ->Args({128, 80, 1024})
    ->Args({128, 1024, 512})
    ->Args({128, 512, 128})
    ->Args({128, 128, 64})
    ->Args({128, 64, 128})
    ->UseRealTime();

void BM_FeatureExtraction(benchmark::State& state) {
  har::SensorSimulator sim(2);
  Tensor window = sim.GenerateWindow(har::Activity::kWalk);
  for (auto _ : state) {
    Tensor features = har::ExtractFeatures(window);
    benchmark::DoNotOptimize(features.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureExtraction);

void BM_WindowSimulation(benchmark::State& state) {
  har::SensorSimulator sim(3);
  for (auto _ : state) {
    Tensor window = sim.GenerateWindow(har::Activity::kRun);
    benchmark::DoNotOptimize(window.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowSimulation);

void BM_NcmPredict(benchmark::State& state) {
  const int64_t num_classes = state.range(0);
  const int64_t dim = 128;
  Rng rng(4);
  core::NcmClassifier ncm;
  for (int64_t c = 0; c < num_classes; ++c) {
    ncm.SetPrototype(static_cast<int>(c),
                     Tensor::RandNormal(Shape::Vector(dim), rng));
  }
  Tensor queries = Tensor::RandNormal(Shape::Matrix(64, dim), rng);
  for (auto _ : state) {
    auto predictions = ncm.Predict(queries);
    benchmark::DoNotOptimize(predictions.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NcmPredict)->Arg(5)->Arg(20)->Arg(100);

void BM_HerdingSelect(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  Tensor embeddings = Tensor::RandNormal(Shape::Matrix(n, 128), rng);
  for (auto _ : state) {
    auto selected = core::HerdingSelect(embeddings, n / 4);
    benchmark::DoNotOptimize(selected.data());
  }
}
BENCHMARK(BM_HerdingSelect)->Arg(200)->Arg(800);

void BM_PairwiseSquaredDistance(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  Tensor a = Tensor::RandNormal(Shape::Matrix(n, 128), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(5, 128), rng);
  for (auto _ : state) {
    Tensor d = PairwiseSquaredDistance(a, b);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 5);
}
BENCHMARK(BM_PairwiseSquaredDistance)->Arg(64)->Arg(512);

}  // namespace
}  // namespace pilote

// Custom main: google-benchmark rejects flags it does not know, so the
// observability flags (--metrics-json=PATH, --trace-out=PATH) must be
// stripped from argv before Initialize sees them.
int main(int argc, char** argv) {
  argc = pilote::obs::ConsumeMetricsFlags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
