#include "cbps/common/logging.hpp"

#include <cstdio>
#include <iostream>
#include <string>

namespace cbps {

namespace logctx {

State& state() {
  thread_local State s;
  return s;
}

}  // namespace logctx

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      break;
  }
  return "?????";
}

}  // namespace

void Logger::write(LogLevel level, std::string_view msg) {
  std::string line;
  line.reserve(msg.size() + 32);
  line += '[';
  line += level_name(level);
  line += ']';
  const logctx::State& ctx = logctx::state();
  if (ctx.clock_now_us != nullptr) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[t=%.6fs]",
                  static_cast<double>(ctx.clock_now_us(ctx.clock_ctx)) / 1e6);
    line += buf;
  }
  if (ctx.has_node) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[n=%llu]",
                  static_cast<unsigned long long>(ctx.node));
    line += buf;
  }
  line += ' ';
  line += msg;

  std::ostream& os = (level >= LogLevel::kWarn) ? std::cerr : std::clog;
  // detlint: concurrency-ok(whole-line console mutex; log text never feeds run state)
  const std::lock_guard<std::mutex> lock(write_mu_);
  os << line << '\n';
}

}  // namespace cbps
