#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pilote {
namespace {

// Seconds since the first log statement in the process; monotonic so the
// prefix is unaffected by wall-clock adjustments on the device.
double MonotonicSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Dense per-thread id (0, 1, 2, ...) — stable within a run and far more
// readable in interleaved output than the native thread handle.
int CurrentThreadId() {
  static std::atomic<int> next_id{0};
  thread_local const int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool EqualsIgnoreCase(const char* a, const char* b) {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    if (std::tolower(static_cast<unsigned char>(*a)) !=
        std::tolower(static_cast<unsigned char>(*b))) {
      return false;
    }
  }
  return *a == '\0' && *b == '\0';
}

LogLevel InitialLevel() {
  if (const char* spec = std::getenv("PILOTE_LOG_LEVEL")) {
    if (EqualsIgnoreCase(spec, "debug") || std::strcmp(spec, "0") == 0) {
      return LogLevel::kDebug;
    }
    if (EqualsIgnoreCase(spec, "info") || std::strcmp(spec, "1") == 0) {
      return LogLevel::kInfo;
    }
    if (EqualsIgnoreCase(spec, "warning") || EqualsIgnoreCase(spec, "warn") ||
        std::strcmp(spec, "2") == 0) {
      return LogLevel::kWarning;
    }
    if (EqualsIgnoreCase(spec, "error") || std::strcmp(spec, "3") == 0) {
      return LogLevel::kError;
    }
    std::fprintf(stderr, "[W logging] unknown PILOTE_LOG_LEVEL '%s', using info\n",
                 spec);
  }
  return LogLevel::kInfo;
}

LogLevel MinLevel() {
  static const LogLevel level = InitialLevel();
  return level;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= MinLevel()) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    char prefix[96];
    std::snprintf(prefix, sizeof(prefix), "[%s %.3f T%d %s:%d] ",
                  LevelName(level), MonotonicSeconds(), CurrentThreadId(),
                  base, line);
    stream_ << prefix;
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

}  // namespace internal
}  // namespace pilote
