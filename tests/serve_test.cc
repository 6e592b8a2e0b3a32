// Tests of the multi-session serving layer: concurrent ingest across
// sessions (exercised under TSan in CI), cross-stream batching
// equivalence, backpressure, deadline degradation, and the Status-based
// error paths of the core entry points (corrupt artifacts, bad pretrain
// corpora) that previously aborted.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_tracker.h"
#include "common/bounded_queue.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "core/cloud.h"
#include "core/edge_learner.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace pilote {
namespace serve {
namespace {

using pilote::testing::MakeTestArtifact;
using std::chrono::microseconds;

core::PiloteConfig TestConfig() { return core::PiloteConfig::Small(); }

std::shared_ptr<LearnerHandle> MakeHandle(
    const core::PiloteConfig& config,
    const std::string& strategy = "pretrained") {
  Result<std::shared_ptr<LearnerHandle>> handle =
      LearnerHandle::Create(strategy, MakeTestArtifact(config.backbone),
                            config);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return handle.value();
}

Tensor RandomWindow(const core::PiloteConfig& config, Rng& rng) {
  return Tensor::RandNormal(
      Shape::Matrix(1, config.backbone.input_dim), rng);
}

// Rows of class 4, a cluster away from the artifact's classes 0-3.
data::Dataset NewClassRows(const core::PiloteConfig& config, Rng& rng) {
  return data::Dataset(
      Tensor::RandNormal(Shape::Matrix(16, config.backbone.input_dim), rng,
                         /*mean=*/8.0f, 0.25f),
      std::vector<int>(16, 4));
}

// Epochs of a "pilote" update that lasts hundreds of milliseconds. Under
// ThreadSanitizer training runs about 100x slower, so one epoch already
// lasts seconds.
#if defined(__SANITIZE_THREAD__)
constexpr int kLongUpdateEpochs = 1;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kLongUpdateEpochs = 1;
#else
constexpr int kLongUpdateEpochs = 12;
#endif
#else
constexpr int kLongUpdateEpochs = 12;
#endif

// A config whose "pilote" update trains for all kLongUpdateEpochs epochs
// (no early stop).
core::PiloteConfig LongUpdateConfig() {
  core::PiloteConfig config = TestConfig();
  config.incremental.max_epochs = kLongUpdateEpochs;
  config.incremental.early_stop_patience = config.incremental.max_epochs;
  return config;
}

int64_t FailpointHits(const std::string& name) {
  for (const fail::FailpointStats& stats :
       fail::FailpointRegistry::Global().Stats()) {
    if (stats.name == name) return stats.hits;
  }
  return 0;
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueueTest, TryPushFailsAtCapacityAndAfterClose) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full
  queue.Close();
  std::vector<int> out;
  EXPECT_TRUE(queue.PopBatch(out, 8, microseconds(0)));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(queue.TryPush(4));  // closed
  EXPECT_FALSE(queue.PopBatch(out, 8, microseconds(0)));  // drained
}

TEST(BoundedQueueTest, PopBatchCoalescesUpToMaxBatch) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.TryPush(i));
  std::vector<int> out;
  ASSERT_TRUE(queue.PopBatch(out, 3, microseconds(0)));
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  ASSERT_TRUE(queue.PopBatch(out, 3, microseconds(0)));
  EXPECT_EQ(out, (std::vector<int>{3, 4}));
}

// Interrupt() racing concurrent producers and the consumer: interrupts may
// surface as empty batches but must never drop or duplicate an item, and
// Close() must still terminate the consumer loop. Runs under TSan in CI,
// where it also exercises the CondVar adopt/release handoff in
// common/thread_annotations.h.
TEST(BoundedQueueTest, InterruptRacesConcurrentPushPop) {
  constexpr int kProducers = 4;
  constexpr int kItemsPerProducer = 2000;
  BoundedQueue<int> queue(64);

  std::atomic<bool> done{false};
  std::thread interrupter([&done, &queue] {
    while (!done.load(std::memory_order_acquire)) {
      queue.Interrupt();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kItemsPerProducer; ++i) {
        // Producers never block; spin until the consumer makes room.
        while (!queue.TryPush(p * kItemsPerProducer + i)) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::int64_t sum = 0;
  int consumed = 0;
  std::thread consumer([&queue, &sum, &consumed] {
    std::vector<int> batch;
    // Interrupted pops legitimately return true with an empty batch; the
    // loop only ends once the queue is closed and drained.
    while (queue.PopBatch(batch, 16, microseconds(200))) {
      consumed += static_cast<int>(batch.size());
      for (int v : batch) sum += v;
    }
  });

  for (auto& t : producers) t.join();
  queue.Close();
  consumer.join();
  done.store(true, std::memory_order_release);
  interrupter.join();

  constexpr int kTotal = kProducers * kItemsPerProducer;
  EXPECT_EQ(consumed, kTotal);
  EXPECT_EQ(sum, static_cast<std::int64_t>(kTotal) * (kTotal - 1) / 2);
  EXPECT_EQ(queue.size(), 0u);
}

// ----------------------------------------------------- Options validation

TEST(ServeOptionsTest, ValidateRejectsOutOfRangeValues) {
  ServeOptions options;
  EXPECT_TRUE(ValidateServeOptions(options).ok());
  options.max_batch = 0;
  EXPECT_EQ(ValidateServeOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = ServeOptions();
  options.max_delay_us = -1;
  EXPECT_EQ(ValidateServeOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = ServeOptions();
  options.queue_capacity = 0;
  EXPECT_EQ(ValidateServeOptions(options).code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingOptionsTest, ValidateRejectsOutOfRangeValues) {
  core::StreamingOptions options;
  EXPECT_TRUE(core::ValidateStreamingOptions(options).ok());
  options.window_length = 0;
  EXPECT_EQ(core::ValidateStreamingOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = core::StreamingOptions();
  options.vote_window = 0;
  EXPECT_EQ(core::ValidateStreamingOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = core::StreamingOptions();
  options.denoise_half_width = -1;
  EXPECT_EQ(core::ValidateStreamingOptions(options).code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- Core error paths

TEST(CoreErrorPathTest, FactoryRejectsCorruptArtifactPayload) {
  core::PiloteConfig config = TestConfig();
  core::CloudArtifact artifact = MakeTestArtifact(config.backbone);
  artifact.model_payload = "definitely not a serialized module";
  Result<std::unique_ptr<core::EdgeLearner>> made =
      core::MakeEdgeLearner("pilote", artifact, config);
  EXPECT_FALSE(made.ok());
}

TEST(CoreErrorPathTest, FactoryRejectsTruncatedArtifactPayload) {
  core::PiloteConfig config = TestConfig();
  core::CloudArtifact artifact = MakeTestArtifact(config.backbone);
  artifact.model_payload.resize(artifact.model_payload.size() / 2);
  Result<std::unique_ptr<core::EdgeLearner>> made =
      core::MakeEdgeLearner("pretrained", artifact, config);
  EXPECT_FALSE(made.ok());
}

TEST(CoreErrorPathTest, FactoryRejectsEmptySupportSet) {
  core::PiloteConfig config = TestConfig();
  core::CloudArtifact artifact = MakeTestArtifact(config.backbone);
  artifact.support = core::SupportSet();
  Result<std::unique_ptr<core::EdgeLearner>> made =
      core::MakeEdgeLearner("pilote", artifact, config);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
}

TEST(CoreErrorPathTest, FactoryRejectsArtifactThatDisagreesWithTheConfig) {
  // Each artifact below would pass every section CRC. A config section
  // naming a huge hidden layer must not size an allocation, and a scaler
  // of the wrong width must not reach plan capture's CHECK.
  core::PiloteConfig config = TestConfig();
  Rng rng(8);
  core::CloudArtifact huge_layer = MakeTestArtifact(config.backbone);
  huge_layer.backbone_config.hidden_dims = {1 << 20, 1 << 20};
  core::CloudArtifact wide_scaler = MakeTestArtifact(config.backbone);
  wide_scaler.scaler.Fit(Tensor::RandNormal(Shape::Matrix(16, 3), rng));
  alloc::ScopedTracking tracking;
  for (const core::CloudArtifact* artifact : {&huge_layer, &wide_scaler}) {
    alloc::AllocationScope scope;
    Result<std::unique_ptr<core::EdgeLearner>> made =
        core::MakeEdgeLearner("pretrained", *artifact, config);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
    EXPECT_LT(scope.bytes(), 64 * 1024) << made.status();
  }
}

TEST(CoreErrorPathTest, PretrainerRejectsEmptyCorpus) {
  core::CloudPretrainer pretrainer(TestConfig());
  Result<core::CloudPretrainResult> result = pretrainer.Run(data::Dataset());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CoreErrorPathTest, PretrainerRejectsSingleClassCorpus) {
  core::PiloteConfig config = TestConfig();
  Rng rng(7);
  data::Dataset single(
      Tensor::RandNormal(Shape::Matrix(10, config.backbone.input_dim), rng),
      std::vector<int>(10, 3));
  core::CloudPretrainer pretrainer(config);
  Result<core::CloudPretrainResult> result = pretrainer.Run(single);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- SessionManager

TEST(SessionManagerTest, CreateSubmitClose) {
  core::PiloteConfig config = TestConfig();
  SessionManager manager(ServeOptions{});
  Result<SessionId> id =
      manager.CreateSession(MakeHandle(config), config.streaming);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(manager.NumSessions(), 1);

  Rng rng(1);
  Result<std::future<int>> future =
      manager.SubmitWindow(*id, RandomWindow(config, rng));
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  const int label = future.value().get();
  EXPECT_GE(label, 0);

  EXPECT_TRUE(manager.CloseSession(*id).ok());
  EXPECT_EQ(manager.NumSessions(), 0);
  EXPECT_EQ(manager.CloseSession(*id).code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.SubmitWindow(*id, RandomWindow(config, rng))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SessionManagerTest, RejectsNullHandleAndBadOptions) {
  core::PiloteConfig config = TestConfig();
  SessionManager manager(ServeOptions{});
  EXPECT_EQ(manager.CreateSession(nullptr, config.streaming).status().code(),
            StatusCode::kInvalidArgument);
  core::StreamingOptions bad = config.streaming;
  bad.vote_window = 0;
  EXPECT_EQ(manager.CreateSession(MakeHandle(config), bad).status().code(),
            StatusCode::kInvalidArgument);
}

// serve/rejected_total{reason=shape|non_finite}, as SubmitWindow counts it.
obs::CounterFamily RejectedCounters() {
  return obs::FamilyRegistry::Global().GetCounterFamily(
      "serve/rejected_total", "reason", {"shape", "non_finite"});
}

TEST(SessionManagerTest, SubmitRejectsWrongShape) {
  obs::ScopedEnable metrics;
  core::PiloteConfig config = TestConfig();
  SessionManager manager(ServeOptions{});
  Result<SessionId> id =
      manager.CreateSession(MakeHandle(config), config.streaming);
  ASSERT_TRUE(id.ok());
  const obs::CounterFamily rejected = RejectedCounters();
  const int64_t shape_before = rejected.At(0).value();
  const int64_t non_finite_before = rejected.At(1).value();
  Rng rng(1);
  Tensor bad = Tensor::RandNormal(
      Shape::Matrix(1, config.backbone.input_dim + 1), rng);
  EXPECT_EQ(manager.SubmitWindow(*id, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.At(0).value() - shape_before, 1);
  EXPECT_EQ(rejected.At(1).value() - non_finite_before, 0);
}

TEST(SessionManagerTest, SubmitRejectsNonFiniteFeatures) {
  obs::ScopedEnable metrics;
  core::PiloteConfig config = TestConfig();
  SessionManager manager(ServeOptions{});
  Result<SessionId> id =
      manager.CreateSession(MakeHandle(config), config.streaming);
  ASSERT_TRUE(id.ok());
  const obs::CounterFamily rejected = RejectedCounters();
  const int64_t shape_before = rejected.At(0).value();
  const int64_t non_finite_before = rejected.At(1).value();
  Rng rng(13);
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity()};
  for (float bad : kBad) {
    Tensor window = RandomWindow(config, rng);
    window(0, config.backbone.input_dim / 2) = bad;
    Result<std::future<int>> f = manager.SubmitWindow(*id, window);
    // Accepted, the row's NaN distances argmin to a confident label 0.
    EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument)
        << "feature " << bad << " reached the batcher";
  }
  EXPECT_EQ(rejected.At(1).value() - non_finite_before, 2);
  EXPECT_EQ(rejected.At(0).value() - shape_before, 0);
  // The session still serves finite rows.
  Result<std::future<int>> good =
      manager.SubmitWindow(*id, RandomWindow(config, rng));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_GE(good.value().get(), 0);
}

// --------------------------------------------- Batched == unbatched labels

TEST(SessionManagerTest, BatchedMatchesUnbatchedPredictions) {
  core::PiloteConfig config = TestConfig();
  // vote_window = 1 so the smoothed label equals the raw label and the
  // manager's output is directly comparable to PredictBatch.
  core::StreamingOptions streaming = config.streaming;
  streaming.vote_window = 1;
  std::shared_ptr<LearnerHandle> handle = MakeHandle(config);

  Rng rng(33);
  constexpr int kWindows = 24;
  std::vector<Tensor> windows;
  for (int i = 0; i < kWindows; ++i) {
    windows.push_back(RandomWindow(config, rng));
  }
  const std::vector<int> direct = handle->PredictBatch(ConcatRows(windows));
  ASSERT_EQ(direct.size(), static_cast<size_t>(kWindows));

  ServeOptions options;
  options.max_batch = 8;
  SessionManager manager(options);
  Result<SessionId> id = manager.CreateSession(handle, streaming);
  ASSERT_TRUE(id.ok());
  std::vector<std::future<int>> futures;
  for (const Tensor& window : windows) {
    Result<std::future<int>> f = manager.SubmitWindow(*id, window);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    futures.push_back(std::move(f).value());
  }
  for (int i = 0; i < kWindows; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(),
              direct[static_cast<size_t>(i)])
        << "window " << i;
  }
}

// ------------------------------------------------------------ Concurrency

TEST(SessionManagerTest, ConcurrentMultiSessionIngest) {
  core::PiloteConfig config = TestConfig();
  std::shared_ptr<LearnerHandle> handle = MakeHandle(config);
  ServeOptions options;
  options.max_batch = 8;
  options.queue_capacity = 1024;
  SessionManager manager(options);

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 2;
  constexpr int kWindowsPerSession = 12;
  std::vector<SessionId> ids;
  for (int i = 0; i < kThreads * kSessionsPerThread; ++i) {
    Result<SessionId> id = manager.CreateSession(handle, config.streaming);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  std::atomic<int> resolved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, &manager, &config, &resolved, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      std::vector<std::future<int>> futures;
      for (int w = 0; w < kWindowsPerSession; ++w) {
        for (int s = 0; s < kSessionsPerThread; ++s) {
          const SessionId id =
              ids[static_cast<size_t>(t * kSessionsPerThread + s)];
          Result<std::future<int>> f =
              manager.SubmitWindow(id, RandomWindow(config, rng));
          if (f.ok()) futures.push_back(std::move(f).value());
        }
      }
      for (std::future<int>& f : futures) {
        if (f.get() >= 0) resolved.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(resolved.load(),
            kThreads * kSessionsPerThread * kWindowsPerSession);
}

TEST(SessionManagerTest, LearnNewClassesAgainstConcurrentIngest) {
  core::PiloteConfig config = TestConfig();
  std::shared_ptr<LearnerHandle> handle = MakeHandle(config);
  ServeOptions options;
  options.queue_capacity = 1024;
  SessionManager manager(options);
  Result<SessionId> id = manager.CreateSession(handle, config.streaming);
  ASSERT_TRUE(id.ok());

  const int64_t known_before = handle->NumKnownClasses();
  std::atomic<bool> stop{false};
  std::thread ingest([&stop, &manager, &id, &config] {
    Rng rng(55);
    while (!stop.load()) {
      Result<std::future<int>> f =
          manager.SubmitWindow(*id, RandomWindow(config, rng));
      if (f.ok()) f.value().wait();
    }
  });

  // New class 4 arrives mid-stream. The update is staged while batches
  // keep predicting on the shared lock and committed under the exclusive
  // one (TSan checks both halves against the in-flight batches).
  Rng rng(77);
  Result<core::TrainReport> report =
      manager.LearnNewClasses(*id, NewClassRows(config, rng));
  stop.store(true);
  ingest.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(handle->NumKnownClasses(), known_before + 1);
  EXPECT_GT(handle->model_version(), 0);
}

TEST(SessionManagerTest, LearnNewClassesServesDuringUpdate) {
  fail::ScopedFailpoints failpoints;
  const core::PiloteConfig config = LongUpdateConfig();
  std::shared_ptr<LearnerHandle> handle = MakeHandle(config, "pilote");
  SessionManager manager(ServeOptions{});
  Result<SessionId> id = manager.CreateSession(handle, config.streaming);
  ASSERT_TRUE(id.ok());
  const int64_t known_before = handle->NumKnownClasses();

  // "core/learn/begin" is evaluated once the update has started; armed
  // never to fire, it only counts.
  ASSERT_TRUE(fail::FailpointRegistry::Global()
                  .Arm("core/learn/begin",
                       fail::FailpointSpec::WithProbability(0.0, 1))
                  .ok());
  const int64_t hits_before = FailpointHits("core/learn/begin");
  Rng rng(77);
  const data::Dataset d_new = NewClassRows(config, rng);
  std::future<Result<core::TrainReport>> update =
      std::async(std::launch::async,
                 [&manager, &id, &d_new] {
                   return manager.LearnNewClasses(*id, d_new);
                 });
  while (FailpointHits("core/learn/begin") < hits_before + 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A window submitted mid-update is answered by the current version
  // without waiting for the update to finish.
  Result<std::future<int>> window =
      manager.SubmitWindow(*id, RandomWindow(config, rng));
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_GE(window.value().get(), 0);
  EXPECT_EQ(update.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the window was held until the update returned";

  Result<core::TrainReport> report = update.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(handle->NumKnownClasses(), known_before + 1);
}

TEST(LearnerHandleTest, PredictBatchCompletionNamesTheVersionThatLabeled) {
  core::PiloteConfig config = TestConfig();
  config.incremental.max_epochs = 1;
  std::shared_ptr<LearnerHandle> handle = MakeHandle(config, "pilote");
  Rng rng(91);
  const data::Dataset d_new = NewClassRows(config, rng);
  // The new-class rows read as old classes before the update and, for
  // some rows at least, as class 4 after it.
  const Tensor& probe = d_new.features();
  const std::vector<int> labels_before = handle->PredictBatch(probe);
  const int64_t version_before = handle->model_version();

  std::atomic<bool> updated{false};
  std::thread update([&handle, &d_new, &updated] {
    Result<core::TrainReport> report = handle->LearnNewClasses(d_new);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    updated.store(true);
  });
  // Predict before, during and after the commit; each label set must
  // come with the version that produced it.
  std::vector<std::pair<int64_t, std::vector<int>>> served;
  for (int after = 0; after < 3;) {
    if (updated.load()) ++after;
    handle->PredictBatch(probe, [&handle, &served](
                                    const std::vector<int>& labels,
                                    int64_t model_version) {
      // Inside the shared lock no commit can land.
      EXPECT_EQ(model_version, handle->model_version());
      served.emplace_back(model_version, labels);
    });
  }
  update.join();
  const std::vector<int> labels_after = handle->PredictBatch(probe);
  ASSERT_NE(labels_after, labels_before);
  ASSERT_EQ(handle->model_version(), version_before + 1);

  int64_t old_version = 0;
  int64_t new_version = 0;
  for (const auto& [model_version, labels] : served) {
    if (model_version == version_before) {
      EXPECT_EQ(labels, labels_before);
      ++old_version;
    } else {
      EXPECT_EQ(model_version, version_before + 1);
      EXPECT_EQ(labels, labels_after);
      ++new_version;
    }
  }
  EXPECT_GT(old_version, 0);
  EXPECT_GT(new_version, 0);
}

// ----------------------------------------------- Backpressure + deadlines

TEST(SessionManagerTest, FullQueueRejectsWithResourceExhausted) {
  core::PiloteConfig config = TestConfig();
  ServeOptions options;
  options.queue_capacity = 1;
  SessionManager manager(options);
  Result<SessionId> id =
      manager.CreateSession(MakeHandle(config), config.streaming);
  ASSERT_TRUE(id.ok());

  manager.engine().PauseForTesting();  // returns once the worker is parked
  Rng rng(9);
  Result<std::future<int>> accepted =
      manager.SubmitWindow(*id, RandomWindow(config, rng));
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  Result<std::future<int>> rejected =
      manager.SubmitWindow(*id, RandomWindow(config, rng));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  manager.engine().ResumeForTesting();
  EXPECT_GE(accepted.value().get(), 0);
}

TEST(SessionManagerTest, DeadlineMissDegradesToLastVote) {
  core::PiloteConfig config = TestConfig();
  SessionManager manager(ServeOptions{});
  Result<SessionId> id =
      manager.CreateSession(MakeHandle(config), config.streaming);
  ASSERT_TRUE(id.ok());
  Rng rng(13);

  // Before any window completes, a deadline miss yields kNoPrediction.
  manager.engine().PauseForTesting();
  Result<Prediction> first =
      manager.PushWindow(*id, RandomWindow(config, rng), microseconds(2000));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->degraded);
  EXPECT_EQ(first->label, kNoPrediction);

  // Let the queued window (and a fresh one) classify normally.
  manager.engine().ResumeForTesting();
  Result<Prediction> normal =
      manager.PushWindow(*id, RandomWindow(config, rng), microseconds(0));
  ASSERT_TRUE(normal.ok());
  EXPECT_FALSE(normal->degraded);
  EXPECT_GE(normal->label, 0);

  // Now a deadline miss degrades to the last majority-vote label.
  manager.engine().PauseForTesting();
  Result<Prediction> degraded =
      manager.PushWindow(*id, RandomWindow(config, rng), microseconds(2000));
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_GE(degraded->label, 0);
  manager.engine().ResumeForTesting();
}

// ------------------------------------------- Hot-path allocation budgets

// The flush side is pinned through the serve/flush_allocs counter, which
// the worker thread ticks per batch when tracking is enabled. The batched
// predict replays the compiled inference plan on a preallocated arena
// (src/exec/), so after warm-up the only heap traffic per flush is the
// per-call labels vector — the budget is ≤2 allocations per window.
TEST(SessionManagerTest, SteadyStateFlushAllocationsAreBounded) {
  core::PiloteConfig config = TestConfig();
  SessionManager manager(ServeOptions{});
  Result<SessionId> id =
      manager.CreateSession(MakeHandle(config), config.streaming);
  ASSERT_TRUE(id.ok());
  Rng rng(21);
  auto classify_one = [&] {
    Result<std::future<int>> f =
        manager.SubmitWindow(*id, RandomWindow(config, rng));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    EXPECT_GE(f.value().get(), 0);
  };

  // Warm-up: drive the flush scratch to its high-water mark.
  for (int i = 0; i < 4; ++i) classify_one();

  obs::Counter& flush_allocs =
      obs::MetricsRegistry::Global().GetCounter("serve/flush_allocs");
  alloc::ScopedTracking tracking;
  const int64_t before = flush_allocs.value();
  constexpr int kWindows = 16;
  for (int i = 0; i < kWindows; ++i) classify_one();
  // The worker records the counter after completing a batch's futures; one
  // sentinel window makes the first kWindows flushes' metrics visible (the
  // sentinel's own allocations may or may not be included — the bound has
  // headroom for one extra flush either way).
  classify_one();
  const int64_t delta = flush_allocs.value() - before;
  const double per_window =
      static_cast<double>(delta) / static_cast<double>(kWindows);
  EXPECT_LE(per_window, 2.0)
      << "steady-state flush allocations regressed: " << per_window
      << " allocs/window (the compiled-plan replay budget is the per-call "
         "labels vector only)";
}

}  // namespace
}  // namespace serve
}  // namespace pilote
