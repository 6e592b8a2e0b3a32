#ifndef PILOTE_COMMON_LOGGING_H_
#define PILOTE_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace pilote {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Process-wide minimum level, read once from the environment; messages
// below it are dropped:
//   PILOTE_LOG_LEVEL=debug|info|warning|error (or 0-3), default info.
// Every line goes to stderr with a monotonic seconds-since-start timestamp
// and a dense thread id.

namespace internal {

// One log statement; emits to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace pilote

#define PILOTE_LOG(level)                                            \
  ::pilote::internal::LogMessage(::pilote::LogLevel::k##level,       \
                                 __FILE__, __LINE__)

#endif  // PILOTE_COMMON_LOGGING_H_
