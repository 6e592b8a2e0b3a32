#include "obs/exporter.h"

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/exemplar.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace pilote {
namespace obs {
namespace {

using SeriesKey = std::pair<std::string, std::string>;

// Each (name, labels) series of `samples`, for lookup by the next tick.
template <typename Sample>
std::map<SeriesKey, const Sample*> IndexSeries(
    const std::vector<Sample>& samples) {
  std::map<SeriesKey, const Sample*> index;
  for (const Sample& s : samples) {
    index.emplace(SeriesKey{s.name, s.labels}, &s);
  }
  return index;
}

// One JSONL record: counter deltas and rates and histogram deltas between
// `previous` and `now`, instantaneous gauges, cumulative failpoint stats,
// and the current slow-window exemplar ring.
std::string BuildRecord(int64_t tick, double uptime_s, double window_s,
                        const MetricsSnapshot& previous,
                        const MetricsSnapshot& now,
                        const std::vector<SlowWindowExemplar>& exemplars) {
  std::ostringstream os;
  os << "{\"tick\":" << tick << ",\"uptime_s\":" << JsonNumber(uptime_s)
     << ",\"window_s\":" << JsonNumber(window_s);
  os << ",\"counters\":{";
  const auto previous_counters = IndexSeries(previous.counters);
  for (size_t i = 0; i < now.counters.size(); ++i) {
    const CounterSample& c = now.counters[i];
    const auto before = previous_counters.find({c.name, c.labels});
    const int64_t delta =
        c.value -
        (before == previous_counters.end() ? 0 : before->second->value);
    const double rate =
        window_s > 0.0 ? static_cast<double>(delta) / window_s : 0.0;
    os << (i == 0 ? "" : ",");
    AppendJsonString(os, SeriesName(c.name, c.labels));
    os << ":{\"delta\":" << delta << ",\"rate_per_s\":" << JsonNumber(rate)
       << "}";
  }
  os << "},\"gauges\":{";
  for (size_t i = 0; i < now.gauges.size(); ++i) {
    const GaugeSample& g = now.gauges[i];
    os << (i == 0 ? "" : ",");
    AppendJsonString(os, SeriesName(g.name, g.labels));
    os << ":" << JsonNumber(g.value);
  }
  os << "},\"histograms\":{";
  const auto previous_histograms = IndexSeries(previous.histograms);
  for (size_t i = 0; i < now.histograms.size(); ++i) {
    const HistogramSample& h = now.histograms[i];
    const auto before = previous_histograms.find({h.name, h.labels});
    os << (i == 0 ? "" : ",");
    AppendJsonString(os, SeriesName(h.name, h.labels));
    os << ":";
    AppendHistogramJson(os, before == previous_histograms.end()
                                ? h.snapshot
                                : Delta(before->second->snapshot, h.snapshot));
  }
  os << "},\"failpoints\":{";
  for (size_t i = 0; i < now.failpoints.size(); ++i) {
    const FailpointSample& f = now.failpoints[i];
    os << (i == 0 ? "" : ",");
    AppendJsonString(os, f.name);
    os << ":{\"armed\":" << (f.armed ? "true" : "false")
       << ",\"hits\":" << f.hits << ",\"fires\":" << f.fires << "}";
  }
  os << "},\"exemplars\":[";
  for (size_t i = 0; i < exemplars.size(); ++i) {
    const SlowWindowExemplar& e = exemplars[i];
    os << (i == 0 ? "" : ",") << "{\"sequence\":" << e.sequence
       << ",\"session_id\":" << e.session_id
       << ",\"model_version\":" << e.model_version
       << ",\"queue_wait_ms\":" << JsonNumber(e.queue_wait_ms)
       << ",\"batch_wait_ms\":" << JsonNumber(e.batch_wait_ms)
       << ",\"predict_ms\":" << JsonNumber(e.predict_ms)
       << ",\"total_ms\":" << JsonNumber(e.total_ms) << "}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace

TelemetryExporter::TelemetryExporter(TelemetryOptions options)
    : options_(std::move(options)),
      start_time_(std::chrono::steady_clock::now()) {}

TelemetryExporter::~TelemetryExporter() { Stop(); }

Status TelemetryExporter::Start() {
  if (options_.output_prefix.empty()) {
    return Status::InvalidArgument("telemetry output prefix is empty");
  }
  if (options_.interval_ms <= 0) {
    return Status::InvalidArgument("telemetry interval must be positive");
  }
  MutexLock lock(mutex_);
  if (running_) {
    return Status::FailedPrecondition("telemetry exporter already running");
  }
  stop_requested_ = false;
  // lifetime-ok: Loop's `this` is the exporter itself; Stop() (called by
  // the destructor) joins the thread before the object is destroyed
  thread_ = std::thread(&TelemetryExporter::Loop, this);
  running_ = true;
  return Status::Ok();
}

void TelemetryExporter::Stop() {
  {
    MutexLock lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  stop_cv_.NotifyAll();
  thread_.join();
  {
    MutexLock lock(mutex_);
    running_ = false;
    stop_requested_ = false;
  }
  // Final flush: even a run shorter than one interval leaves a record, and
  // the last partial window reaches the JSONL stream.
  Status status = TickNow();
  if (!status.ok()) {
    PILOTE_LOG(Warning) << "telemetry final tick failed: "
                        << status.ToString();
  }
}

void TelemetryExporter::Loop() {
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  auto next = std::chrono::steady_clock::now() + interval;
  while (true) {
    {
      MutexLock lock(mutex_);
      while (!stop_requested_ &&
             std::chrono::steady_clock::now() < next) {
        stop_cv_.WaitUntil(mutex_, next);
      }
      if (stop_requested_) return;
    }
    // Outside the lock: file I/O must never delay Stop().
    Status status = TickNow();
    if (!status.ok()) {
      PILOTE_LOG(Warning) << "telemetry tick failed: " << status.ToString();
    }
    next += interval;
  }
}

Status TelemetryExporter::TickNow() {
  MutexLock lock(tick_mutex_);
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  MetricsSnapshot now = CaptureSnapshot();
  const int64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  const double window_s = tick == 1 ? 0.0 : uptime_s - previous_uptime_s_;
  const std::string record = BuildRecord(tick, uptime_s, window_s, previous_,
                                         now, SlowWindows().Snapshot());
  previous_ = std::move(now);
  previous_uptime_s_ = uptime_s;
  return WriteStringToFile(options_.output_prefix + ".jsonl", record,
                           /*append=*/true);
}

// ------------------------------------------------------- global instance

namespace {

Mutex& GlobalTelemetryMutex() {
  static Mutex* mutex = new Mutex();
  return *mutex;
}

TelemetryExporter*& GlobalTelemetrySlot() {
  static TelemetryExporter* exporter = nullptr;
  return exporter;
}

}  // namespace

Status StartGlobalTelemetry(const TelemetryOptions& options) {
  MutexLock lock(GlobalTelemetryMutex());
  TelemetryExporter*& slot = GlobalTelemetrySlot();
  if (slot != nullptr) {
    return Status::FailedPrecondition("global telemetry already started");
  }
  SetEnabled(true);
  auto* exporter = new TelemetryExporter(options);
  Status status = exporter->Start();
  if (!status.ok()) {
    delete exporter;
    return status;
  }
  slot = exporter;
  static const bool registered = [] {
    std::atexit(+[] { StopGlobalTelemetry(); });
    return true;
  }();
  (void)registered;
  return Status::Ok();
}

void StopGlobalTelemetry() {
  TelemetryExporter* exporter = nullptr;
  {
    MutexLock lock(GlobalTelemetryMutex());
    exporter = GlobalTelemetrySlot();
    GlobalTelemetrySlot() = nullptr;
  }
  // Stop outside the lock (it joins the thread and does file I/O). Nothing
  // else holds the exporter: the at-exit metrics JSON reads the registries.
  if (exporter != nullptr) {
    exporter->Stop();
    delete exporter;
  }
}

TelemetryExporter* GlobalTelemetry() {
  MutexLock lock(GlobalTelemetryMutex());
  return GlobalTelemetrySlot();
}

void MaybeStartTelemetryFromEnv() {
  const char* prefix = std::getenv("PILOTE_TELEMETRY_OUT");
  if (prefix == nullptr || prefix[0] == '\0') return;
  TelemetryOptions options;
  options.output_prefix = prefix;
  if (const char* interval = std::getenv("PILOTE_TELEMETRY_INTERVAL_MS")) {
    const long parsed = std::strtol(interval, nullptr, 10);
    if (parsed > 0) options.interval_ms = parsed;
  }
  Status status = StartGlobalTelemetry(options);
  if (!status.ok() && status.code() != StatusCode::kFailedPrecondition) {
    PILOTE_LOG(Warning) << "PILOTE_TELEMETRY_OUT: " << status.ToString();
  }
}

}  // namespace obs
}  // namespace pilote
