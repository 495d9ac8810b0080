// Named counters and histograms for experiment instrumentation.
//
// Benches create one Registry per run, pass it down through the harness,
// and read it back to print a figure row. Nothing here is global: two
// concurrently-constructed simulations never share state.
//
// Concurrency under the parallel simulation engine:
//   * Histograms on message hot paths are written through a
//     StripedHistogram handle: one part per execution stripe, folded in
//     stripe order when the registry is read (the TrafficStats rule).
//   * Counters stay relaxed atomics: only fault and reliability paths
//     increment them (drops, retransmits, refused sends), rarely enough
//     that striping them would buy nothing.
// Integer sums are order-independent either way, so totals stay
// bit-identical across engines and shard counts; the engine's epoch
// barriers provide the happens-before for anyone reading them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "cbps/common/exec_context.hpp"
#include "cbps/metrics/histogram.hpp"

namespace cbps::metrics {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter& o) : value_(o.value()) {}
  Counter& operator=(const Counter& o) {
    value_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// The hot-path writer of one registry histogram. add() records into the
/// part of the calling execution stripe (common::ExecContext::stripe):
/// stripe 0 — the serial engine and every global-context callback —
/// writes the registry's histogram in place, and each shard stripe writes
/// a part of its own, allocated on the stripe's first sample. Every part
/// has one writer between engine barriers, so add() is a plain Histogram
/// add. Registry reads fold the shard parts into the registry's
/// histogram in stripe order; with integer samples the result does not
/// depend on the shard count.
class StripedHistogram {
 public:
  explicit StripedHistogram(Histogram& total) : total_(&total) {}

  void add(double v, std::uint64_t weight = 1) { part().add(v, weight); }

  /// Merge every shard part into the registry's histogram, stripe by
  /// stripe, and zero the parts. The histogram's value — the sum of its
  /// parts — does not change, hence const. Global context only.
  void fold() const;

 private:
  Histogram& part() {
    const std::uint32_t stripe = common::exec_context().stripe;
    if (stripe == 0) return *total_;
    std::unique_ptr<Histogram>& p = parts_[stripe];
    if (!p) p = std::make_unique<Histogram>();
    return *p;
  }

  Histogram* total_;  // the registry's entry; stripe 0's part
  std::array<std::unique_ptr<Histogram>, common::kMaxStripes> parts_{};
};

class Registry {
 public:
  /// Find or create a counter.
  Counter& counter(const std::string& name) { return counters_[name]; }

  /// Find or create a histogram, with its stripe parts folded in. Write
  /// through it from the global context only; shard code writes through
  /// histogram_handle().
  Histogram& histogram(const std::string& name);

  // Cached-handle API: resolve the name once, hold the pointer, and
  // record through it on hot paths (a std::map string lookup per
  // message is measurable). Pointers are stable for the Registry's
  // lifetime — std::map nodes never move and reset_all() resets entries
  // in place instead of erasing them.
  Counter* counter_handle(const std::string& name) { return &counters_[name]; }
  StripedHistogram* histogram_handle(const std::string& name);

  /// Counter value, 0 if never touched (does not create).
  std::uint64_t counter_value(const std::string& name) const;

  void reset_all();

  /// Human-readable dump: one table, deterministically sorted by name
  /// across counters and histograms (so bench output diffs are
  /// stable run to run).
  void print(std::ostream& os) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  /// Every histogram, with its stripe parts folded in.
  const std::map<std::string, Histogram>& histograms() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  // Writers of the histograms that have a handle; each points into
  // histograms_.
  std::map<std::string, StripedHistogram> striped_;
};

}  // namespace cbps::metrics
