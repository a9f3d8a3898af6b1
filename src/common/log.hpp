// Minimal leveled logger.
//
// The engine and middleware narrate job lifecycle events (submission,
// failure detection, recompute planning) through this logger; examples
// turn it up to show the recovery story, tests and benches keep it quiet.
// Lines go to stderr. A single global level is deliberate: each
// Simulation is single-threaded and benches run simulations sequentially.
#pragma once

#include <sstream>
#include <string>

namespace rcmp {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Log {
 public:
  static LogLevel level() { return instance().level_; }
  static void set_level(LogLevel lvl) { instance().level_ = lvl; }

  static bool enabled(LogLevel lvl) { return lvl >= instance().level_; }
  static void write(LogLevel lvl, const std::string& msg);

  static const char* level_name(LogLevel lvl);

 private:
  static Log& instance();
  LogLevel level_ = LogLevel::kWarn;
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel lvl) : lvl_(lvl) {}
  ~LogLine() { Log::write(lvl_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel lvl_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace rcmp

#define RCMP_LOG(lvl)                         \
  if (!::rcmp::Log::enabled(lvl)) {           \
  } else                                      \
    ::rcmp::detail::LogLine(lvl)

#define RCMP_TRACE() RCMP_LOG(::rcmp::LogLevel::kTrace)
#define RCMP_DEBUG() RCMP_LOG(::rcmp::LogLevel::kDebug)
#define RCMP_INFO() RCMP_LOG(::rcmp::LogLevel::kInfo)
#define RCMP_WARN() RCMP_LOG(::rcmp::LogLevel::kWarn)
#define RCMP_ERROR() RCMP_LOG(::rcmp::LogLevel::kError)
