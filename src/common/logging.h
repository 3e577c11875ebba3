// Minimal leveled logging and CHECK macros.
//
// FASTFT_CHECK* enforce internal invariants; violation aborts with a message.
// Logging defaults to kWarning so benchmarks stay quiet; harnesses can raise
// verbosity with SetLogLevel.
//
// Line format (see LoggingTest.LineFormat):
//   [WARN +12.345ms T0 file.cc:42] message
// where +ms is monotonic time since process start (first logging call) and
// TN is the small stable thread id assigned by the obs tracing layer — the
// same id that attributes trace spans, so log lines and trace events from
// one pool worker correlate.

#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace fastft {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global minimum level that is actually emitted.
void SetLogLevel(LogLevel level);

namespace internal {

/// Redirects emitted log lines into `sink` instead of stderr (test hook;
/// pass nullptr to restore stderr). Not for concurrent use with logging
/// threads other than the test's own.
void SetLogSinkForTest(std::vector<std::string>* sink);

/// Stream-style log line; emits on destruction. `fatal` aborts the process.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool fatal_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace fastft

#define FASTFT_LOG(level)                                               \
  ::fastft::internal::LogMessage(::fastft::LogLevel::k##level, __FILE__, \
                                 __LINE__)

#define FASTFT_CHECK(cond)                                                  \
  if (!(cond))                                                              \
  ::fastft::internal::LogMessage(::fastft::LogLevel::kError, __FILE__,      \
                                 __LINE__, /*fatal=*/true)                  \
      << "Check failed: " #cond " "

#define FASTFT_CHECK_EQ(a, b) FASTFT_CHECK((a) == (b))
#define FASTFT_CHECK_NE(a, b) FASTFT_CHECK((a) != (b))
#define FASTFT_CHECK_LT(a, b) FASTFT_CHECK((a) < (b))
#define FASTFT_CHECK_LE(a, b) FASTFT_CHECK((a) <= (b))
#define FASTFT_CHECK_GT(a, b) FASTFT_CHECK((a) > (b))
#define FASTFT_CHECK_GE(a, b) FASTFT_CHECK((a) >= (b))

