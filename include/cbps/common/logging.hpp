// Minimal leveled logger with simulation context.
//
// Simulation runs are chatty at debug level and silent by default; the
// logger is a global singleton so examples can flip verbosity with one
// call. It is the one piece of state shared between concurrently-running
// simulations (the sweep runner executes one per worker thread), so the
// level is atomic and lines are written whole under a mutex. A line
// below the level is never formatted.
//
// Context: log lines are prefixed with the current simulated time and
// node id when available. Both live in thread-local state set by RAII
// scope guards — the simulator's dispatch loop installs a clock
// (logctx::ScopedClock), and message receive paths install the handling
// node's id (logctx::ScopedNode) — so concurrent sweep workers each see
// their own simulation's context.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string_view>

namespace cbps {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Thread-local log context. Plain function-pointer clock so the common
/// layer needs no dependency on the simulator: the simulator installs
/// `{this, &now_fn}` for the duration of its dispatch loop.
namespace logctx {

struct State {
  const void* clock_ctx = nullptr;
  std::uint64_t (*clock_now_us)(const void*) = nullptr;
  std::uint64_t node = 0;
  bool has_node = false;
};

State& state();

/// Installs a sim-time source for this thread; restores on destruction.
class ScopedClock {
 public:
  ScopedClock(const void* ctx, std::uint64_t (*now_us)(const void*)) {
    State& s = state();
    saved_ctx_ = s.clock_ctx;
    saved_fn_ = s.clock_now_us;
    s.clock_ctx = ctx;
    s.clock_now_us = now_us;
  }
  ~ScopedClock() {
    State& s = state();
    s.clock_ctx = saved_ctx_;
    s.clock_now_us = saved_fn_;
  }
  ScopedClock(const ScopedClock&) = delete;
  ScopedClock& operator=(const ScopedClock&) = delete;

 private:
  const void* saved_ctx_;
  std::uint64_t (*saved_fn_)(const void*);
};

/// Tags log lines with the node currently handling a message.
class ScopedNode {
 public:
  explicit ScopedNode(std::uint64_t node) {
    State& s = state();
    saved_node_ = s.node;
    saved_has_ = s.has_node;
    s.node = node;
    s.has_node = true;
  }
  ~ScopedNode() {
    State& s = state();
    s.node = saved_node_;
    s.has_node = saved_has_;
  }
  ScopedNode(const ScopedNode&) = delete;
  ScopedNode& operator=(const ScopedNode&) = delete;

 private:
  std::uint64_t saved_node_;
  bool saved_has_;
};

}  // namespace logctx

class Logger {
 public:
  static Logger& instance() {
    static Logger logger;
    return logger;
  }

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  bool enabled(LogLevel level) const { return level >= this->level(); }

  void write(LogLevel level, std::string_view msg);

 private:
  Logger() = default;
  // detlint: concurrency-ok(global log level read by concurrent sweep workers)
  std::atomic<LogLevel> level_ = LogLevel::kWarn;
  // detlint: concurrency-ok(whole-line console mutex; log text never feeds run state)
  std::mutex write_mu_;
};

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::instance().write(level_, stream_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace cbps

#define CBPS_LOG(level)                                      \
  if (!::cbps::Logger::instance().enabled(level)) {          \
  } else                                                     \
    ::cbps::detail::LogLine(level)

#define CBPS_LOG_DEBUG CBPS_LOG(::cbps::LogLevel::kDebug)
#define CBPS_LOG_INFO CBPS_LOG(::cbps::LogLevel::kInfo)
#define CBPS_LOG_WARN CBPS_LOG(::cbps::LogLevel::kWarn)
#define CBPS_LOG_ERROR CBPS_LOG(::cbps::LogLevel::kError)
