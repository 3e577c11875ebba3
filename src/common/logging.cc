#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/ring.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace fastft {
namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarning)};

common::Mutex g_sink_mu;
// test hook; nullptr = stderr
std::vector<std::string>* g_sink FASTFT_GUARDED_BY(g_sink_mu) = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// Milliseconds since the first logging call (≈ process start: the origin
/// is a function-local static, captured once, thread-safe). Log timestamps
/// never feed computation.
double MonotonicMs() {
  static const uint64_t origin_ns = obs::internal::NowNs();
  return static_cast<double>(obs::internal::NowNs() - origin_ns) / 1e6;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace internal {

void SetLogSinkForTest(std::vector<std::string>* sink) {
  common::MutexLock lock(&g_sink_mu);
  g_sink = sink;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal) {
  enabled_ = fatal_ || static_cast<int>(level) >=
                           g_log_level.load(std::memory_order_relaxed);
  if (enabled_) {
    const char* slash = nullptr;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') slash = p;
    }
    char timestamp[32];
    std::snprintf(timestamp, sizeof(timestamp), "+%.3fms", MonotonicMs());
    stream_ << "[" << LevelName(level_) << " " << timestamp << " T"
            << obs::CurrentThreadId() << " " << (slash ? slash + 1 : file)
            << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    {
      common::MutexLock lock(&g_sink_mu);
      if (g_sink != nullptr) {
        g_sink->push_back(stream_.str());
        if (!fatal_) return;
        // Fatal lines reach stderr too: the abort below must be explicable
        // even when a test sink is installed.
      }
    }
    stream_ << "\n";
    std::fputs(stream_.str().c_str(), stderr);
    std::fflush(stderr);
  }
  if (fatal_) std::abort();
}

}  // namespace internal
}  // namespace fastft
