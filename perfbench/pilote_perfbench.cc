// PILOTE end-to-end benchmark binary.
//
// Runs one operation of one workload through the library's public API and
// writes one JSON object per line to stdout: the configuration, the
// operation's timings, every timed window and every output check, each
// flushed as it is written. perfbench/run.py builds this binary, runs one
// process per operation, turns the records into metrics and decides
// correctness. A process that aborts loses only its own operation, which
// run.py counts as failed and never retries. Statistics live in
// perfbench/harness.py, not here.
//
// Every workload runs the same edge cycle on the paper backbone
// (80 -> [1024, 512, 128, 64] -> 128), as three kinds of process:
//   --phase=setup   one set-up, timed from process start: data
//                   generation, cloud pre-training on the four old
//                   activities, LearnerHandle creation (artifact load +
//                   plan capture), warm-up. Saves the cloud artifact.
//   --phase=update  loads a cloud artifact and has LearnNewClasses teach
//                   `Run` to a fresh learner, while live sessions on the
//                   same handle send one window per second each. Saves
//                   the updated learner as an artifact.
//   --phase=serve   loads an updated learner and feeds raw samples to one
//                   StreamingClassifier in a closed loop for one fork's
//                   share of the serve phase.
//
// With --trace=1 the obs registry is on, the benchmark adds its own timed
// probes around public calls, and `layers` records carry the per-layer
// numbers. Update 0 and the first half of each serve fork run with tracing
// off, so run.py can state the tracing overhead.
//
// Flags (all --name=value): --phase (setup|update|serve), --artifact (the
//   artifact a setup or update writes, or a serve reads), --cloud (the
//   cloud artifact an update reads), --index (set-up repetition, update or
//   fork number), --forks, --workload, --seed, --seconds (recorded only),
//   --trace (0|1), --serve_seconds (one fork's share). Every other setting
//   is a constant below; the config record reports each one.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/macros.h"
#include "core/artifact_io.h"
#include "core/cloud.h"
#include "core/config.h"
#include "core/edge_learner.h"
#include "core/streaming_classifier.h"
#include "data/dataset.h"
#include "har/activity.h"
#include "har/har_dataset.h"
#include "har/preprocessing.h"
#include "har/sensor_simulator.h"
#include "har/window_assembler.h"
#include "nn/backbone.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serialize/io.h"
#include "serve/learner_handle.h"
#include "serve/session_manager.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace {

using pilote::Tensor;
using pilote::core::CloudArtifact;
using pilote::core::EdgeLearner;
using pilote::core::PiloteConfig;
using pilote::data::Dataset;
using pilote::har::Activity;
using pilote::serve::LearnerHandle;
using pilote::serve::SessionId;
using pilote::serve::SessionManager;
using Clock = std::chrono::steady_clock;

// Every timestamp in the output is milliseconds since this origin.
const Clock::time_point kOrigin = Clock::now();

double MsSinceOrigin(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - kOrigin).count();
}
double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- output

std::mutex g_out_mutex;

// One JSON object, written as one line and flushed at once so that a
// process that dies later loses nothing already emitted.
class Record {
 public:
  explicit Record(const char* kind) { os_ << "{\"kind\":\"" << kind << '"'; }

  Record& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os_ << ",\"" << key << "\":" << buf;
    return *this;
  }
  Record& Int(const char* key, int64_t v) {
    os_ << ",\"" << key << "\":" << v;
    return *this;
  }
  Record& Str(const char* key, const std::string& v) {
    os_ << ",\"" << key << "\":\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        os_ << ' ';
      } else {
        os_ << c;
      }
    }
    os_ << '"';
    return *this;
  }
  Record& Bool(const char* key, bool v) {
    os_ << ",\"" << key << "\":" << (v ? "true" : "false");
    return *this;
  }
  // Fixed-point array (4 decimals: 0.1 us resolution for milliseconds).
  Record& Array(const char* key, const std::vector<double>& v) {
    os_ << ",\"" << key << "\":[";
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.4f", i ? "," : "", v[i]);
      os_ << buf;
    }
    os_ << ']';
    return *this;
  }
  Record& IntArray(const char* key, const std::vector<int64_t>& v) {
    os_ << ",\"" << key << "\":[";
    for (size_t i = 0; i < v.size(); ++i) os_ << (i ? "," : "") << v[i];
    os_ << ']';
    return *this;
  }

  void Emit() {
    os_ << "}\n";
    const std::string line = os_.str();
    std::lock_guard<std::mutex> lock(g_out_mutex);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fflush(stdout);
  }

 private:
  std::ostringstream os_;
};

// ---------------------------------------------------------------- settings

constexpr int64_t kCloudPerClass = 400;  // cloud corpus rows per activity
// Cloud schedule: epochs x batches of 64 pairs. Longer schedules make
// set-up slower without raising the post-update accuracy.
constexpr int kCloudEpochs = 1;
constexpr int kCloudBatches = 48;
constexpr int64_t kTestPerClass = 100;
constexpr int64_t kNewSamples = 120;     // `Run` rows that reach the edge
constexpr int kLearnEpochs = 3;          // fixed: early stopping is off
constexpr int kLiveSessions = 16;        // one window per second each
constexpr double kLiveMinSeconds = 4.0;  // live traffic per update
constexpr int kStreamWindows = 1000;     // device stream, looped
constexpr int64_t kRowsPerClass = 100;   // feature rows the sessions send
constexpr int kMaxBatch = 16;
constexpr int64_t kMaxDelayUs = 2000;
// Far above the live sessions' backlog behind an update: backpressure
// never fires.
constexpr int64_t kQueueCapacity = 4096;

// ---------------------------------------------------------------- options

struct Options {
  std::string phase;
  std::string artifact;
  std::string cloud;
  int index = 0;
  int forks = 1;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double serve_seconds = 0.0;
};

Options ParseOptions(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "pilote_perfbench: bad argument %s\n", arg.c_str());
      std::exit(2);
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  Options o;
  auto take = [&flags](const char* name, auto* out) {
    auto it = flags.find(name);
    if (it == flags.end()) return;
    using T = std::remove_pointer_t<decltype(out)>;
    if constexpr (std::is_same_v<T, std::string>) {
      *out = it->second;
    } else if constexpr (std::is_same_v<T, double>) {
      *out = std::strtod(it->second.c_str(), nullptr);
    } else if constexpr (std::is_same_v<T, bool>) {
      *out = it->second == "1";
    } else {
      *out = static_cast<T>(std::strtoll(it->second.c_str(), nullptr, 10));
    }
    flags.erase(it);
  };
  take("phase", &o.phase);
  take("artifact", &o.artifact);
  take("cloud", &o.cloud);
  take("index", &o.index);
  take("forks", &o.forks);
  take("workload", &o.workload);
  take("seed", &o.seed);
  take("seconds", &o.seconds);
  take("trace", &o.trace);
  take("serve_seconds", &o.serve_seconds);
  if (!flags.empty()) {
    std::fprintf(stderr, "pilote_perfbench: unknown flag --%s\n",
                 flags.begin()->first.c_str());
    std::exit(2);
  }
  if (o.workload.empty() ||
      (o.phase != "setup" && o.phase != "update" && o.phase != "serve") ||
      o.artifact.empty() || (o.phase == "update" && o.cloud.empty()) ||
      o.index < 0 || o.forks < 1 ||
      (o.phase == "serve" && o.index >= o.forks) || o.serve_seconds <= 0.0) {
    std::fprintf(stderr, "pilote_perfbench: invalid options\n");
    std::exit(2);
  }
  return o;
}

PiloteConfig MakeConfig() {
  // Small()'s schedules with the paper's deployment backbone.
  PiloteConfig config = PiloteConfig::Small();
  config.backbone = pilote::nn::BackboneConfig::Paper();
  config.exemplars_per_class = 200;
  config.pretrain.max_epochs = kCloudEpochs;
  config.pretrain.batches_per_epoch = kCloudBatches;
  // A fixed epoch count: early stopping would let update_s move with
  // convergence instead of cost.
  config.incremental.max_epochs = kLearnEpochs;
  config.incremental.early_stop_patience = kLearnEpochs + 1;
  return config;
}

std::string BackboneString(const pilote::nn::BackboneConfig& b) {
  std::ostringstream os;
  os << b.input_dim << "->[";
  for (size_t i = 0; i < b.hidden_dims.size(); ++i) {
    os << (i ? "," : "") << b.hidden_dims[i];
  }
  os << "]->" << b.embedding_dim;
  return os.str();
}

// ---------------------------------------------------------------- inputs

constexpr Activity kNewActivity = Activity::kRun;

// The deployment is fixed: the cloud corpus and the `Run` rows the update
// learns from come from the repository's experiment data seed, so every
// run trains the same models and --seed varies the traffic: test rows,
// the raw stream and the feature rows sessions send.
constexpr uint64_t kDeploymentSeed = 20230328;

// A set-up fills everything but the stream, an update the edge datasets
// and the rows, a serve process the stream and the rows.
struct Inputs {
  Dataset d_old;     // cloud corpus: the four old activities
  Dataset d_new;     // `Run` rows that reach the edge
  Dataset test;      // held-out rows of all five activities
  Dataset test_old;  // the old-activity part of `test`
  // serve phase: a continuous raw stream over all five activities,
  // pre-split into samples so the timed loop only calls PushSample.
  std::vector<Tensor> stream_samples;
  std::vector<int> stream_truth;  // activity label per window
  // live sessions: [1, 80] feature rows.
  std::vector<Tensor> rows;
  std::vector<int> row_truth;
};

std::vector<Activity> OldActivities() {
  std::vector<Activity> old_activities;
  for (Activity a : pilote::har::AllActivities()) {
    if (a != kNewActivity) old_activities.push_back(a);
  }
  return old_activities;
}

void MakeCloudCorpus(Inputs* in) {
  pilote::har::HarDataGenerator cloud_gen(kDeploymentSeed);
  in->d_old = cloud_gen.GenerateBalanced(kCloudPerClass, OldActivities());
}

void MakeEdgeData(const Options& o, Inputs* in) {
  pilote::har::HarDataGenerator new_gen(kDeploymentSeed ^ 0xA5A5A5A5ULL);
  pilote::har::HarDataGenerator test_gen(o.seed ^ 0x5A5A5A5AULL);
  in->d_new = new_gen.Generate(kNewActivity, kNewSamples);
  in->test = test_gen.GenerateBalanced(kTestPerClass);
  std::vector<int> old_labels;
  for (Activity a : OldActivities()) {
    old_labels.push_back(pilote::har::ActivityLabel(a));
  }
  in->test_old = in->test.FilterByClasses(old_labels);
}

void MakeStream(const Options& o, const PiloteConfig& config, Inputs* in) {
  // Stream: segments of 20..40 windows cycling through the five activities.
  pilote::har::SensorSimulator sensors(o.seed ^ 0x3C3C3C3CULL);
  pilote::Rng rng(o.seed ^ 0xC3C3C3C3ULL);
  const int window = config.streaming.window_length;
  int produced = 0;
  for (int segment = 0; produced < kStreamWindows; ++segment) {
    const Activity activity =
        static_cast<Activity>(segment % pilote::har::kNumActivities);
    const int n =
        std::min(kStreamWindows - produced, rng.UniformInt(20, 40));
    pilote::har::Recording rec =
        pilote::har::RecordContinuous(sensors, activity, n);
    PILOTE_CHECK_EQ(rec.samples.rows(), static_cast<int64_t>(n) * window);
    for (int64_t t = 0; t < rec.samples.rows(); ++t) {
      in->stream_samples.push_back(pilote::RowAt(rec.samples, t));
    }
    for (int w = 0; w < n; ++w) {
      in->stream_truth.push_back(pilote::har::ActivityLabel(activity));
    }
    produced += n;
  }
}

void MakeRows(const Options& o, Inputs* in) {
  pilote::har::HarDataGenerator row_gen(o.seed ^ 0x0F0F0F0FULL);
  Dataset rows = row_gen.GenerateBalanced(kRowsPerClass);
  // Interleave classes so every stretch of traffic mixes activities.
  const int64_t n = rows.size();
  pilote::Rng shuffle(o.seed ^ 0xF0F0F0F0ULL);
  std::vector<int> order = shuffle.SampleWithoutReplacement(
      static_cast<int>(n), static_cast<int>(n));
  for (int i : order) {
    in->rows.push_back(pilote::SliceRows(rows.features(), i, i + 1));
    in->row_truth.push_back(rows.label(i));
  }
}

double AccuracyOf(const std::vector<int>& predicted, const Dataset& truth) {
  PILOTE_CHECK_EQ(static_cast<int64_t>(predicted.size()), truth.size());
  int64_t hit = 0;
  for (int64_t i = 0; i < truth.size(); ++i) {
    hit += predicted[static_cast<size_t>(i)] == truth.label(i) ? 1 : 0;
  }
  return truth.size() > 0
             ? static_cast<double>(hit) / static_cast<double>(truth.size())
             : 0.0;
}

// ---------------------------------------------------------------- trace

// Span aggregates by name, for before/after deltas.
std::map<std::string, pilote::obs::SpanSample> Spans() {
  std::map<std::string, pilote::obs::SpanSample> out;
  for (const auto& s : pilote::obs::SpanProfile()) out[s.name] = s;
  return out;
}

struct SpanDelta {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

SpanDelta DeltaOf(const std::map<std::string, pilote::obs::SpanSample>& a,
                  const std::map<std::string, pilote::obs::SpanSample>& b,
                  const std::string& name) {
  SpanDelta d;
  auto ib = b.find(name);
  if (ib == b.end()) return d;
  d.count = ib->second.count;
  d.total_ms = ib->second.total_seconds * 1e3;
  d.self_ms = ib->second.self_seconds * 1e3;
  auto ia = a.find(name);
  if (ia != a.end()) {
    d.count -= ia->second.count;
    d.total_ms -= ia->second.total_seconds * 1e3;
    d.self_ms -= ia->second.self_seconds * 1e3;
  }
  return d;
}

int64_t CounterValue(const char* name) {
  return pilote::obs::MetricsRegistry::Global().GetCounter(name).value();
}

pilote::obs::HistogramFamily StageFamily() {
  return pilote::obs::FamilyRegistry::Global().GetHistogramFamily(
      "serve/stage_ms", "stage", {"queue_wait", "batch_wait", "predict"});
}

struct StageSnapshot {
  pilote::obs::HistogramSnapshot queue_wait, predict;
};

StageSnapshot Stages() {
  pilote::obs::HistogramFamily f = StageFamily();
  return {f.At(0).Snapshot(), f.At(2).Snapshot()};
}

StageSnapshot StagesDelta(const StageSnapshot& a, const StageSnapshot& b) {
  return {pilote::obs::Delta(a.queue_wait, b.queue_wait),
          pilote::obs::Delta(a.predict, b.predict)};
}

// The serve/queue_depth gauge; the engine sets it only while tracing.
double QueueDepth() {
  return pilote::obs::MetricsRegistry::Global()
      .GetGauge("serve/queue_depth")
      .value();
}

// Tracing is on for the whole traced run except inside an Untraced scope.
class Untraced {
 public:
  explicit Untraced(bool active) : active_(active) {
    if (active_) pilote::obs::SetEnabled(false);
  }
  ~Untraced() {
    if (active_) pilote::obs::SetEnabled(true);
  }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;

 private:
  bool active_;
};

// ---------------------------------------------------------------- open loop

// Sends windows on a fixed schedule (window i is due at start + i / rate)
// from one generator thread through SessionManager::SubmitWindow, and
// resolves the futures in submission order on a second thread. The batching
// engine serves one learner first-in first-out, so in-order resolution
// records each completion when it happens. Every time is kept, so latency
// is measured from the due time and the generator's own lateness is
// visible.
class OpenLoop {
 public:
  struct Window {
    double due_ms = 0.0;
    double sent_ms = 0.0;
    double submit_us = 0.0;
    double done_ms = -1.0;  // -1: rejected or never resolved
    int64_t row = 0;
    double queue_depth = 0.0;
    int label = pilote::serve::kNoPrediction;
    bool rejected = false;
  };

  OpenLoop(SessionManager* manager, std::vector<SessionId> sessions,
           const std::vector<Tensor>* rows, double rate, int64_t max_windows,
           int64_t first_row)
      : manager_(manager),
        sessions_(std::move(sessions)),
        rows_(rows),
        rate_(rate),
        first_row_(first_row),
        windows_(static_cast<size_t>(max_windows)),
        futures_(static_cast<size_t>(max_windows)) {}

  ~OpenLoop() { Stop(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void Start() {
    start_ = Clock::now();
    // lifetime-ok: both threads are joined in Stop(), called by ~OpenLoop
    generator_ = std::thread([this] { Generate(); });
    resolver_ = std::thread([this] { Resolve(); });
  }

  // Stops generating and waits until every sent window has resolved.
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (generator_.joinable()) generator_.join();
    if (resolver_.joinable()) resolver_.join();
  }

  Clock::time_point start() const { return start_; }
  // Valid after Stop().
  std::vector<Window> Windows() const {
    return std::vector<Window>(windows_.begin(),
                               windows_.begin() + static_cast<long>(sent_));
  }

 private:
  void Generate() {
    const int64_t max = static_cast<int64_t>(windows_.size());
    const double period_s = 1.0 / rate_;
    for (int64_t i = 0; i < max && !stop_.load(std::memory_order_relaxed);
         ++i) {
      const Clock::time_point due =
          start_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(period_s *
                                                     static_cast<double>(i)));
      std::this_thread::sleep_until(due);
      Window& w = windows_[static_cast<size_t>(i)];
      w.row = (first_row_ + i) % static_cast<int64_t>(rows_->size());
      w.due_ms = MsSinceOrigin(due);
      const Clock::time_point sent = Clock::now();
      pilote::Result<std::future<int>> f = manager_->SubmitWindow(
          sessions_[static_cast<size_t>(i) % sessions_.size()],
          (*rows_)[static_cast<size_t>(w.row)]);
      const Clock::time_point submitted = Clock::now();
      w.sent_ms = MsSinceOrigin(sent);
      w.submit_us = SecondsBetween(sent, submitted) * 1e6;
      w.queue_depth = QueueDepth();
      if (f.ok()) {
        futures_[static_cast<size_t>(i)] = std::move(f).value();
      } else {
        w.rejected = true;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        sent_ = i + 1;
      }
      cv_.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      generating_ = false;
    }
    cv_.notify_one();
  }

  void Resolve() {
    for (int64_t i = 0;; ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return sent_ > i || !generating_; });
        if (sent_ <= i) return;
      }
      Window& w = windows_[static_cast<size_t>(i)];
      if (!w.rejected) {
        w.label = futures_[static_cast<size_t>(i)].get();
        w.done_ms = MsSinceOrigin(Clock::now());
      }
    }
  }

  SessionManager* manager_;
  const std::vector<SessionId> sessions_;
  const std::vector<Tensor>* rows_;
  const double rate_;
  const int64_t first_row_;
  Clock::time_point start_;
  std::vector<Window> windows_;
  std::vector<std::future<int>> futures_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  int64_t sent_ = 0;         // guarded by mutex_
  bool generating_ = true;   // guarded by mutex_
  std::thread generator_;
  std::thread resolver_;
};

void EmitWindows(const char* phase, int64_t index,
                 const std::vector<OpenLoop::Window>& ws,
                 const std::vector<int>& truth) {
  // Chunked so no single line grows without bound.
  constexpr size_t kChunk = 4096;
  for (size_t begin = 0; begin < ws.size(); begin += kChunk) {
    const size_t end = std::min(ws.size(), begin + kChunk);
    std::vector<double> due, sent, submit, done, depth;
    std::vector<int64_t> correct, rejected;
    for (size_t i = begin; i < end; ++i) {
      const OpenLoop::Window& w = ws[i];
      due.push_back(w.due_ms);
      sent.push_back(w.sent_ms);
      submit.push_back(w.submit_us);
      done.push_back(w.done_ms);
      depth.push_back(w.queue_depth);
      correct.push_back(w.label == truth[static_cast<size_t>(w.row)] ? 1 : 0);
      rejected.push_back(w.rejected ? 1 : 0);
    }
    Record("open_windows")
        .Str("phase", phase)
        .Int("index", index)
        .Array("due_ms", due)
        .Array("sent_ms", sent)
        .Array("submit_us", submit)
        .Array("done_ms", done)
        .Array("queue_depth", depth)
        .IntArray("correct", correct)
        .IntArray("rejected", rejected)
        .Emit();
  }
}

// ---------------------------------------------------------------- set-up

pilote::serve::ServeOptions MakeServeOptions() {
  pilote::serve::ServeOptions options;
  options.max_batch = kMaxBatch;
  options.max_delay_us = kMaxDelayUs;
  options.queue_capacity = kQueueCapacity;
  return options;
}

// One set-up, timed from process start; saves the cloud artifact.
void RunSetupProcess(const Options& o, const PiloteConfig& config) {
  const Clock::time_point t0 = kOrigin;
  Inputs inputs;
  MakeCloudCorpus(&inputs);
  MakeEdgeData(o, &inputs);
  MakeRows(o, &inputs);
  const Clock::time_point t1 = Clock::now();
  pilote::core::CloudPretrainer pretrainer(config);
  pilote::Result<pilote::core::CloudPretrainResult> cloud =
      pretrainer.Run(inputs.d_old);
  PILOTE_CHECK(cloud.ok()) << cloud.status().ToString();
  const Clock::time_point t2 = Clock::now();
  pilote::Result<std::shared_ptr<LearnerHandle>> handle =
      LearnerHandle::Create("pilote", cloud->artifact, config);
  PILOTE_CHECK(handle.ok()) << handle.status().ToString();
  const Clock::time_point t3 = Clock::now();
  // Warm-up: first single-row and batched forwards through the plan.
  for (int i = 0; i < 8; ++i) {
    (*handle)->PredictBatch(inputs.rows[static_cast<size_t>(i)]);
  }
  (*handle)->PredictBatch(inputs.test_old.features());
  const Clock::time_point t4 = Clock::now();
  Record("setup")
      .Int("rep", o.index)
      .Num("data_s", SecondsBetween(t0, t1))
      .Num("pretrain_s", SecondsBetween(t1, t2))
      .Num("learner_s", SecondsBetween(t2, t3))
      .Num("warmup_s", SecondsBetween(t3, t4))
      .Num("total_s", SecondsBetween(t0, t4))
      .Emit();
  const pilote::Status saved =
      pilote::core::SaveArtifact(o.artifact, cloud->artifact);
  PILOTE_CHECK(saved.ok()) << saved.ToString();
}

// ---------------------------------------------------------------- update

struct Served {
  std::shared_ptr<LearnerHandle> handle;
  EdgeLearner* learner = nullptr;  // owned by `handle`
};

// The updated learner as a cloud-format artifact: the trained backbone,
// the unchanged cloud scaler and the enriched support set.
CloudArtifact UpdatedArtifact(const CloudArtifact& cloud,
                              const EdgeLearner& learner) {
  CloudArtifact out;
  out.backbone_config = cloud.backbone_config;
  out.model_payload = pilote::serialize::SerializeModuleToString(
      learner.model());
  out.scaler = cloud.scaler;
  out.support = learner.support();
  out.old_classes = learner.known_classes();
  return out;
}

// Teaches `Run` to a fresh learner built from the cloud artifact while
// live sessions send windows, checks the labels served after the update,
// and saves the result when the update succeeds. In a traced run, update 0
// is the untraced reference and every other update writes a `layers`
// record.
void RunUpdateProcess(const Options& o, const PiloteConfig& config) {
  Inputs in;
  MakeEdgeData(o, &in);
  MakeRows(o, &in);
  pilote::Result<CloudArtifact> cloud = pilote::core::LoadArtifact(o.cloud);
  PILOTE_CHECK(cloud.ok()) << cloud.status().ToString();
  pilote::Result<std::unique_ptr<EdgeLearner>> made =
      pilote::core::MakeEdgeLearner("pilote", *cloud, config);
  PILOTE_CHECK(made.ok()) << made.status().ToString();
  EdgeLearner* learner = made->get();
  auto handle = std::make_shared<LearnerHandle>(std::move(made).value());
  const double old_before = AccuracyOf(
      handle->PredictBatch(in.test_old.features()), in.test_old);

  const bool traced = o.trace && o.index > 0;
  std::map<std::string, pilote::obs::SpanSample> spans0, spans1;
  int64_t pairs0 = 0, nodes0 = 0, calls0 = 0, flops0 = 0, batches0 = 0;
  StageSnapshot stages0, stages1;
  std::optional<pilote::Result<pilote::core::TrainReport>> report;
  Clock::time_point u0, u1;
  std::vector<OpenLoop::Window> live;
  {
    Untraced scope(o.trace && !traced);
    SessionManager manager(MakeServeOptions());
    pilote::core::StreamingOptions streaming = config.streaming;
    streaming.vote_window = 1;
    std::vector<SessionId> sessions;
    for (int s = 0; s < kLiveSessions; ++s) {
      pilote::Result<SessionId> id = manager.CreateSession(handle, streaming);
      PILOTE_CHECK(id.ok()) << id.status().ToString();
      sessions.push_back(*id);
    }
    // Each live session sends one window per second; the sessions are
    // staggered evenly across the second.
    stages0 = Stages();
    batches0 = CounterValue("serve/batches");
    OpenLoop traffic(&manager, sessions, &in.rows,
                     static_cast<double>(kLiveSessions),
                     static_cast<int64_t>(kLiveSessions) * 120,
                     /*first_row=*/static_cast<int64_t>(o.index) * 97);
    traffic.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    spans0 = Spans();
    pairs0 = CounterValue("losses/pairs_sampled");
    nodes0 = CounterValue("autograd/backward_nodes");
    calls0 = CounterValue("autograd/backward_calls");
    flops0 = CounterValue("tensor/gemm_flops");
    u0 = Clock::now();
    report = manager.LearnNewClasses(sessions.front(), in.d_new);
    u1 = Clock::now();
    spans1 = Spans();
    // Live traffic spans at least kLiveMinSeconds, so the trace has enough
    // windows however fast the update gets.
    std::this_thread::sleep_until(std::max(
        u1 + std::chrono::milliseconds(250),
        traffic.start() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  kLiveMinSeconds))));
    traffic.Stop();
    live = traffic.Windows();
    stages1 = Stages();
  }
  const double update_s = SecondsBetween(u0, u1);
  if (!report->ok()) {
    // A rejected update leaves the learner as it was; run.py counts it as
    // a failed operation.
    Record("update_failed").Int("index", o.index)
        .Str("status", report->status().ToString()).Emit();
  }
  const pilote::core::TrainReport trained =
      report->ok() ? report->value() : pilote::core::TrainReport{};
  const double accuracy =
      AccuracyOf(handle->PredictBatch(in.test.features()), in.test);
  const double old_after = AccuracyOf(
      handle->PredictBatch(in.test_old.features()), in.test_old);
  Record("update")
      .Int("index", o.index)
      .Bool("ok", report->ok())
      .Bool("traced", traced)
      .Num("update_s", update_s)
      .Int("epochs", trained.epochs_completed)
      .Bool("early_stopped", trained.early_stopped)
      .Num("start_ms", MsSinceOrigin(u0))
      .Num("end_ms", MsSinceOrigin(u1))
      .Num("accuracy", accuracy)
      .Num("old_accuracy_before", old_before)
      .Num("old_accuracy_after", old_after)
      .Int("known_classes", handle->NumKnownClasses())
      .Emit();
  EmitWindows("live", o.index, live, in.row_truth);

  // The serving contract: batched labels equal a batch-1 PredictBatch on
  // the same learner, row for row. A window resolved after the update
  // returned was answered by the updated learner: most of them are the
  // backlog the update held, which the engine drains in batches of up to
  // kMaxBatch. Traffic has stopped, so the learner is quiescent.
  const double end_ms = MsSinceOrigin(u1);
  int64_t checked = 0, mismatched = 0;
  for (const OpenLoop::Window& w : live) {
    if (w.rejected || w.done_ms <= end_ms) continue;
    ++checked;
    mismatched +=
        learner->PredictBatch(in.rows[static_cast<size_t>(w.row)]).front() !=
                w.label
            ? 1
            : 0;
  }
  Record("check").Str("name", "batched_equals_batch1").Int("index", o.index)
      .Int("rows", checked).Int("mismatched", mismatched).Emit();

  if (traced) {
    const StageSnapshot stages = StagesDelta(stages0, stages1);
    const SpanDelta epoch = DeltaOf(spans0, spans1, "trainer/epoch");
    Record("layers")
        .Str("process", "update")
        .Num("update_s", update_s)
        .Int("epochs", trained.epochs_completed)
        .Num("train_ms", DeltaOf(spans0, spans1, "trainer/train").total_ms)
        .Num("epoch_ms", epoch.total_ms)
        .Num("epoch_self_ms", epoch.self_ms)
        .Num("contrastive_ms",
             DeltaOf(spans0, spans1, "losses/contrastive_forward").total_ms)
        .Num("distillation_ms",
             DeltaOf(spans0, spans1, "losses/distillation_forward").total_ms)
        .Num("backward_ms",
             DeltaOf(spans0, spans1, "autograd/backward").total_ms)
        .Int("pairs", CounterValue("losses/pairs_sampled") - pairs0)
        .Int("backward_nodes", CounterValue("autograd/backward_nodes") - nodes0)
        .Int("backward_calls", CounterValue("autograd/backward_calls") - calls0)
        .Int("train_flops", CounterValue("tensor/gemm_flops") - flops0)
        .Num("serve.queue_wait_ms_p50", stages.queue_wait.Percentile(0.5))
        .Num("serve.queue_wait_ms_p90", stages.queue_wait.Percentile(0.9))
        .Num("serve.predict_ms_p50", stages.predict.Percentile(0.5))
        .Int("predicted", stages.predict.count)
        .Int("batches", CounterValue("serve/batches") - batches0)
        .Emit();
  }
  if (report->ok()) {
    const pilote::Status saved = pilote::core::SaveArtifact(
        o.artifact, UpdatedArtifact(*cloud, *learner));
    PILOTE_CHECK(saved.ok()) << saved.ToString();
  }
}

// ---------------------------------------------------------------- serve

// Counter and span deltas of a traced serve phase.
struct ServeTrace {
  int64_t windows = 0, gemm_flops = 0, allocs = 0;
  int64_t plan_windows = 0, fallback_windows = 0;
  double gemm_seconds = 0.0;  // time in the calls enclosing the GEMMs
};

// One device, closed loop: raw samples through StreamingClassifier,
// starting `first_window` windows into the stream.
void DeviceLoop(const Inputs& in, EdgeLearner* learner,
                const PiloteConfig& config, double seconds,
                size_t first_window, const char* pass, int64_t* windows_out,
                int64_t* allocs_out) {
  pilote::core::StreamingClassifier stream(learner, config.streaming);
  const size_t per_window = static_cast<size_t>(config.streaming.window_length);
  const size_t total_windows = in.stream_truth.size();
  // Warm-up: a few windows, untimed, so the vote ring is full.
  size_t w = first_window;
  for (int i = 0; i < 4; ++i, ++w) {
    const size_t base = (w % total_windows) * per_window;
    for (size_t s = 0; s < per_window; ++s) {
      stream.PushSample(in.stream_samples[base + s]);
    }
  }
  Record("phase").Str("name", "device").Str("pass", pass)
      .Num("seconds", seconds).Emit();
  std::vector<double> chunk_latency;
  std::vector<int64_t> chunk_correct;
  int64_t windows = 0;
  // Allocation accounting is instrumentation: armed for traced passes only.
  std::optional<pilote::alloc::ScopedTracking> track;
  if (allocs_out != nullptr) track.emplace();
  pilote::alloc::AllocationScope allocs;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_emit = start;
  Clock::time_point now = start;
  while (SecondsBetween(start, now) < seconds) {
    const size_t window = w % total_windows;
    const size_t base = window * per_window;
    for (size_t s = 0; s + 1 < per_window; ++s) {
      PILOTE_CHECK(!stream.PushSample(in.stream_samples[base + s]).has_value());
    }
    const Clock::time_point t0 = Clock::now();
    std::optional<int> label =
        stream.PushSample(in.stream_samples[base + per_window - 1]);
    now = Clock::now();
    PILOTE_CHECK(label.has_value());
    chunk_latency.push_back(
        std::chrono::duration<double, std::milli>(now - t0).count());
    chunk_correct.push_back(*label == in.stream_truth[window] ? 1 : 0);
    ++windows;
    ++w;
    if (SecondsBetween(last_emit, now) >= 0.5) {
      Record("device_windows").Str("pass", pass)
          .Num("elapsed_s", SecondsBetween(start, now))
          .Array("latency_ms", chunk_latency)
          .IntArray("correct", chunk_correct).Emit();
      chunk_latency.clear();
      chunk_correct.clear();
      last_emit = now;
    }
  }
  const double elapsed = SecondsBetween(start, now);
  const int64_t alloc_count = allocs.count();
  if (!chunk_latency.empty()) {
    Record("device_windows").Str("pass", pass).Num("elapsed_s", elapsed)
        .Array("latency_ms", chunk_latency)
        .IntArray("correct", chunk_correct).Emit();
  }
  Record("phase_end").Str("name", "device").Str("pass", pass)
      .Int("windows", windows).Num("elapsed_s", elapsed).Emit();
  if (windows_out != nullptr) *windows_out = windows;
  if (allocs_out != nullptr) *allocs_out = alloc_count;
}

void RunDeviceServe(const Options& o, const PiloteConfig& config,
                    const Inputs& in, const Served& served,
                    ServeTrace* trace) {
  const size_t first_window = static_cast<size_t>(o.index) *
                              in.stream_truth.size() /
                              static_cast<size_t>(o.forks);
  if (trace == nullptr) {
    DeviceLoop(in, served.learner, config, o.serve_seconds, first_window,
               "main", nullptr, nullptr);
    return;
  }
  {
    Untraced scope(true);
    DeviceLoop(in, served.learner, config, o.serve_seconds / 2, first_window,
               "untraced", nullptr, nullptr);
  }
  const int64_t flops0 = CounterValue("tensor/gemm_flops");
  const int64_t plan0 = CounterValue("exec/plan_windows");
  const int64_t fallback0 = CounterValue("exec/fallback_windows");
  const auto spans0 = Spans();
  DeviceLoop(in, served.learner, config, o.serve_seconds / 2, first_window,
             "traced", &trace->windows, &trace->allocs);
  // Time inside the calls that run the GEMMs (EdgeLearner::Predict).
  trace->gemm_seconds = DeltaOf(spans0, Spans(), "core/predict").total_ms / 1e3;
  trace->gemm_flops = CounterValue("tensor/gemm_flops") - flops0;
  trace->plan_windows = CounterValue("exec/plan_windows") - plan0;
  trace->fallback_windows = CounterValue("exec/fallback_windows") - fallback0;
}

// Per-layer timings of single public calls on the served learner, then the
// serve phase's own layer numbers.
void EmitServeLayers(const PiloteConfig& config,
                     const Inputs& in, const Served& served,
                     const ServeTrace& serve) {
  const int window = config.streaming.window_length;
  const int probes = std::min<int>(200, static_cast<int>(in.stream_truth.size()));

  // har: WindowAssembler::Append over one window of samples.
  std::vector<double> ingest_ms;
  {
    pilote::har::WindowAssembler assembler(window,
                                           config.streaming.denoise_half_width);
    Tensor features;
    for (int w = 0; w < probes; ++w) {
      const Clock::time_point t0 = Clock::now();
      bool done = false;
      for (int s = 0; s < window; ++s) {
        done = assembler.Append(
            in.stream_samples[static_cast<size_t>(w * window + s)], &features);
      }
      ingest_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
      PILOTE_CHECK(done);
    }
  }
  // exec: one-row EdgeLearner::PredictBatch (the device's batch-1 plan).
  std::vector<double> predict_ms;
  for (int i = 0; i < probes; ++i) {
    const Clock::time_point t0 = Clock::now();
    served.learner->PredictBatch(in.rows[static_cast<size_t>(i)]);
    predict_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  // exec: LearnerHandle::PredictBatch on max_batch rows.
  const std::vector<Tensor> batch_rows(in.rows.begin(),
                                       in.rows.begin() + kMaxBatch);
  const Tensor batch = pilote::ConcatRows(batch_rows);
  std::vector<double> predict_batch_ms;
  for (int i = 0; i < 100; ++i) {
    const Clock::time_point t0 = Clock::now();
    served.handle->PredictBatch(batch);
    predict_batch_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  // core: prototype rebuild; exec: plan capture (false -> true). Both
  // mutate the learner; every session is gone by now.
  std::vector<double> rebuild_ms, capture_ms;
  for (int i = 0; i < 3; ++i) {
    Clock::time_point t0 = Clock::now();
    served.learner->RebuildPrototypes();
    rebuild_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    served.learner->SetCompiledInferenceEnabled(false);
    t0 = Clock::now();
    served.learner->SetCompiledInferenceEnabled(true);
    capture_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }

  // Bytes the backbone GEMMs touch per window, computed from the layer
  // shapes (A, B and C once each) at the device's batch size of one.
  const pilote::nn::BackboneConfig& b = config.backbone;
  std::vector<int64_t> dims = {b.input_dim};
  dims.insert(dims.end(), b.hidden_dims.begin(), b.hidden_dims.end());
  dims.push_back(b.embedding_dim);
  double bytes_per_window = 0.0;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    const double k = static_cast<double>(dims[l]);
    const double n = static_cast<double>(dims[l + 1]);
    bytes_per_window += 4.0 * (k + k * n + n);
  }

  Record("layers")
      .Str("process", "serve")
      .Array("har.ingest_ms", ingest_ms)
      .Array("exec.predict_ms", predict_ms)
      .Array("exec.predict_batch_ms", predict_batch_ms)
      .Array("core.prototype_rebuild_ms", rebuild_ms)
      .Array("exec.plan_capture_ms", capture_ms)
      .Int("exec.plan_windows", serve.plan_windows)
      .Int("exec.fallback_windows", serve.fallback_windows)
      .Int("serve_windows", serve.windows)
      .Int("tensor.gemm_flops", serve.gemm_flops)
      .Num("tensor.gemm_seconds", serve.gemm_seconds)
      .Num("tensor.gemm_bytes_per_window", bytes_per_window)
      .Int("core.allocs", serve.allocs)
      .Emit();
}

// ---------------------------------------------------------------- phases

void RunServeProcess(const Options& o, const PiloteConfig& config) {
  Inputs in;
  MakeStream(o, config, &in);
  MakeRows(o, &in);
  const Clock::time_point t0 = Clock::now();
  pilote::Result<CloudArtifact> artifact =
      pilote::core::LoadArtifact(o.artifact);
  PILOTE_CHECK(artifact.ok()) << artifact.status().ToString();
  pilote::Result<std::unique_ptr<EdgeLearner>> made =
      pilote::core::MakeEdgeLearner("pilote", *artifact, config);
  PILOTE_CHECK(made.ok()) << made.status().ToString();
  Served served;
  served.learner = made->get();
  served.handle = std::make_shared<LearnerHandle>(std::move(made).value());
  for (int i = 0; i < 8; ++i) {
    served.handle->PredictBatch(in.rows[static_cast<size_t>(i)]);
  }
  Record("serve_setup").Int("fork", o.index)
      .Num("load_s", SecondsBetween(t0, Clock::now()))
      .Int("known_classes", served.handle->NumKnownClasses()).Emit();

  ServeTrace trace;
  RunDeviceServe(o, config, in, served, o.trace ? &trace : nullptr);
  if (o.trace) EmitServeLayers(config, in, served, trace);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = ParseOptions(argc, argv);
  const PiloteConfig config = MakeConfig();
  if (o.trace) pilote::obs::SetEnabled(true);

  Record("config")
      .Str("phase", o.phase)
      .Int("index", o.index)
      .Int("forks", o.forks)
      .Str("workload", o.workload)
      .Int("seed", static_cast<int64_t>(o.seed))
      .Num("seconds", o.seconds)
      .Bool("trace", o.trace)
      .Str("backbone", BackboneString(config.backbone))
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Num("serve_seconds", o.serve_seconds)
      .Int("cloud_per_class", kCloudPerClass)
      .Int("cloud_epochs", kCloudEpochs)
      .Int("cloud_batches", kCloudBatches)
      .Int("test_per_class", kTestPerClass)
      .Int("new_samples", kNewSamples)
      .Int("learn_epochs", kLearnEpochs)
      .Int("live_sessions", kLiveSessions)
      .Num("live_min_seconds", kLiveMinSeconds)
      .Int("stream_windows", kStreamWindows)
      .Int("rows_per_class", kRowsPerClass)
      .Int("max_batch", kMaxBatch)
      .Int("max_delay_us", kMaxDelayUs)
      .Int("queue_capacity", kQueueCapacity)
      .Emit();

  if (o.phase == "setup") {
    RunSetupProcess(o, config);
  } else if (o.phase == "update") {
    RunUpdateProcess(o, config);
  } else {
    RunServeProcess(o, config);
  }
  Record("done").Emit();
  return 0;
}
