// Fixed-bucket log-linear histogram (HdrHistogram-style): one octave per
// power of two, each split into kSubBuckets linear sub-buckets, so the
// relative quantization error is bounded by 1/kSubBuckets while add() is
// a few integer ops on the IEEE754 exponent and top fraction bits —
// cheap enough for per-message hot paths.
//
// Deterministic by construction: bucket indices come from exact floating-
// point decomposition (no libm), so two runs that record the same values
// in any order produce bit-identical bucket arrays and percentiles.
//
// A Histogram is a plain single-writer value (copyable, no atomics).
// merge() is order-independent wherever the samples are integers —
// bucket counts and count are exact sums, a double sum of integers
// below 2^53 is exact in IEEE754, and min/max do not depend on order.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace cbps::metrics {

class Histogram {
 public:
  /// Linear sub-buckets per octave; relative error <= 1/kSubBuckets.
  static constexpr int kSubBuckets = 8;
  /// Octave exponents covered: values in [2^(kMinExp-1), 2^kMaxExp).
  /// 2^-21 ~ 5e-7 (sub-microsecond) up to 2^40 ~ 1e12; out-of-range
  /// values clamp into the edge buckets.
  static constexpr int kMinExp = -20;
  static constexpr int kMaxExp = 40;
  /// Bucket 0 holds zero and negative values.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSubBuckets + 1;

  void add(double v, std::uint64_t weight = 1);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Value at percentile p in [0, 100]: the representative (midpoint) of
  /// the bucket holding the rank-ceil(p/100*count) observation, clamped
  /// to the observed [min, max].
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p90() const { return percentile(90.0); }
  double p99() const { return percentile(99.0); }

  /// Bucket-wise accumulate (for aggregating per-node histograms).
  void merge(const Histogram& other);
  void reset() { *this = Histogram{}; }

  const std::array<std::uint64_t, kBucketCount>& buckets() const {
    return buckets_;
  }

  static std::size_t bucket_index(double v);
  /// Midpoint of the value range bucket `i` covers (0 for bucket 0).
  static double bucket_mid(std::size_t i);

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  // +/- infinity sentinels instead of a count==0 special case in add().
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace cbps::metrics
