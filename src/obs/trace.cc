#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace pilote {
namespace obs {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Small dense thread ids for the trace output (std::thread::id renders as
// an opaque hash).
uint64_t CurrentThreadId() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// name -> aggregate. Entries are leaked SpanStats so SpanSite can hold raw
// pointers for the process lifetime.
class SpanRegistry {
 public:
  // hotpath-ok: process-lifetime singleton, allocates on first call only
  static SpanRegistry& Global() {
    static SpanRegistry* registry = new SpanRegistry();
    return *registry;
  }

  internal::SpanStats* Resolve(const char* name) PILOTE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    auto& slot = stats_[name];
    if (slot == nullptr) slot = new internal::SpanStats();
    return slot;
  }

  std::vector<SpanSample> Profile() const PILOTE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    std::vector<SpanSample> rows;
    rows.reserve(stats_.size());
    for (const auto& [name, stats] : stats_) {
      SpanSample row;
      row.name = name;
      row.count = stats->count.load(std::memory_order_relaxed);
      // A site that was reached while recording was disabled registers its
      // name but never executes; keep such rows out of the profile.
      if (row.count == 0) continue;
      const int64_t total = stats->total_ns.load(std::memory_order_relaxed);
      const int64_t child = stats->child_ns.load(std::memory_order_relaxed);
      row.total_seconds = static_cast<double>(total) * 1e-9;
      row.self_seconds = static_cast<double>(total - child) * 1e-9;
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const SpanSample& a, const SpanSample& b) {
                return a.total_seconds > b.total_seconds;
              });
    return rows;
  }

  void ResetForTesting() PILOTE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (auto& [name, stats] : stats_) {
      stats->count.store(0, std::memory_order_relaxed);
      stats->total_ns.store(0, std::memory_order_relaxed);
      stats->child_ns.store(0, std::memory_order_relaxed);
    }
  }

 private:
  mutable Mutex mutex_;
  std::map<std::string, internal::SpanStats*> stats_ PILOTE_GUARDED_BY(mutex_);
};

// Chrome trace_event capture. Event appends take a mutex: capture is an
// opt-in debugging mode, and a mutex keeps the buffer TSan-clean without
// per-thread buffer stitching.
struct CaptureState {
  CaptureState() : base_ns(NowNanos()) {}

  // hotpath-ok: process-lifetime singleton, allocates on first call only
  static CaptureState& Global() {
    static CaptureState* state = new CaptureState();
    return *state;
  }

  std::atomic<bool> active{false};
  const int64_t base_ns;
  Mutex mutex;
  std::vector<TraceEvent> events PILOTE_GUARDED_BY(mutex);
};

thread_local internal::ScopedSpan* tls_current_span = nullptr;

}  // namespace

namespace internal {

SpanSite::SpanSite(const char* name)
    : name_(name), stats_(SpanRegistry::Global().Resolve(name)) {}

ScopedSpan::ScopedSpan(const SpanSite& site) {
  if (!Enabled()) return;
  site_ = &site;
  parent_ = tls_current_span;
  tls_current_span = this;
  start_ns_ = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (site_ == nullptr) return;
  const int64_t duration_ns = NowNanos() - start_ns_;
  SpanStats* stats = site_->stats();
  stats->count.fetch_add(1, std::memory_order_relaxed);
  stats->total_ns.fetch_add(duration_ns, std::memory_order_relaxed);
  if (parent_ != nullptr && parent_->site_ != nullptr) {
    parent_->site_->stats()->child_ns.fetch_add(duration_ns,
                                                std::memory_order_relaxed);
  }
  tls_current_span = parent_;

  CaptureState& capture = CaptureState::Global();
  if (capture.active.load(std::memory_order_relaxed)) {
    TraceEvent event;
    event.name = site_->name();
    event.ts_us = (start_ns_ - capture.base_ns) / 1000;
    event.dur_us = duration_ns / 1000;
    event.tid = CurrentThreadId();
    MutexLock lock(capture.mutex);
    capture.events.push_back(event);
  }
}

}  // namespace internal

std::vector<SpanSample> SpanProfile() {
  return SpanRegistry::Global().Profile();
}

void ResetSpansForTesting() {
  SpanRegistry::Global().ResetForTesting();
  CaptureState& capture = CaptureState::Global();
  MutexLock lock(capture.mutex);
  capture.events.clear();
}

void StartTraceCapture() {
  CaptureState::Global().active.store(true, std::memory_order_relaxed);
}

bool TraceCaptureActive() {
  return CaptureState::Global().active.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> CapturedTraceEvents() {
  CaptureState& capture = CaptureState::Global();
  MutexLock lock(capture.mutex);
  return capture.events;
}

Status WriteChromeTrace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open trace output " + path);
  }
  const std::vector<TraceEvent> events = CapturedTraceEvents();
  std::fputs("{\"traceEvents\":[", file);
  bool first = true;
  for (const TraceEvent& event : events) {
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"pilote\",\"ph\":\"X\","
                 "\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":%llu}",
                 first ? "" : ",", event.name,
                 static_cast<long long>(event.ts_us),
                 static_cast<long long>(event.dur_us),
                 static_cast<unsigned long long>(event.tid));
    first = false;
  }
  std::fputs("\n]}\n", file);
  if (std::fclose(file) != 0) {
    return Status::IoError("cannot write trace output " + path);
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace pilote
