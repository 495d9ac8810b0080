// Named counters and histograms for experiment instrumentation.
//
// Benches create one Registry per run, pass it down through the harness,
// and read it back to print a figure row. Nothing here is global: two
// concurrently-constructed simulations never share state.
//
// Each Registry belongs to one run on one thread, so counters and
// histograms are plain values.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cbps/metrics/histogram.hpp"

namespace cbps::metrics {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Registry {
 public:
  /// Find or create a counter.
  Counter& counter(const std::string& name) { return counters_[name]; }

  /// Find or create a histogram.
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  // Cached-handle API: resolve the name once, hold the pointer, and
  // record through it on hot paths (a std::map string lookup per
  // message is measurable). Pointers are stable for the Registry's
  // lifetime — std::map nodes never move and no entry is ever erased.
  Counter* counter_handle(const std::string& name) { return &counters_[name]; }
  Histogram* histogram_handle(const std::string& name) {
    return &histograms_[name];
  }

  /// Counter value, 0 if never touched (does not create).
  std::uint64_t counter_value(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace cbps::metrics
