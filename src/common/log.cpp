#include "common/log.hpp"

#include <cstdio>

namespace rcmp {

Log& Log::instance() {
  static Log log;
  return log;
}

const char* Log::level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

void Log::write(LogLevel lvl, const std::string& msg) {
  if (lvl < instance().level_) return;
  std::fprintf(stderr, "[%s] %s\n", level_name(lvl), msg.c_str());
}

}  // namespace rcmp
