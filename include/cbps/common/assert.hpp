// Lightweight always-on assertion macro.
//
// Simulation code is full of protocol invariants whose violation means the
// run is meaningless; we keep these checks enabled in release builds
// (their cost is negligible next to event dispatch).
#pragma once

#include <cstdio>
#include <cstdlib>

namespace cbps::detail {

[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "CBPS_ASSERT failed: %s at %s:%d%s%s\n", expr, file,
               line, msg ? " — " : "", msg ? msg : "");
  std::abort();
}

}  // namespace cbps::detail

#define CBPS_ASSERT(expr)                                              \
  ((expr) ? static_cast<void>(0)                                       \
          : ::cbps::detail::assert_fail(#expr, __FILE__, __LINE__, nullptr))

#define CBPS_ASSERT_MSG(expr, msg)                                     \
  ((expr) ? static_cast<void>(0)                                       \
          : ::cbps::detail::assert_fail(#expr, __FILE__, __LINE__, (msg)))
