#include "cbps/metrics/histogram.hpp"

#include <bit>
#include <cmath>

namespace cbps::metrics {

std::size_t Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // zero, negative, NaN
  // Read the frexp decomposition v = m * 2^exp, m in [0.5, 1), straight
  // from the IEEE754 fields: exp is the biased exponent minus 1022, and
  // the linear sub-bucket floor((m - 0.5) * 2 * kSubBuckets) is the top
  // log2(kSubBuckets) fraction bits. Subnormals clamp into the bottom
  // bucket and infinity into the top one.
  constexpr int kSubBits = std::countr_zero(unsigned{kSubBuckets});
  static_assert(kSubBuckets == 1 << kSubBits);
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int exp = static_cast<int>(bits >> 52) - 1022;
  if (exp < kMinExp) return 1;
  if (exp > kMaxExp) return kBucketCount - 1;
  const auto sub = static_cast<std::size_t>(bits >> (52 - kSubBits)) &
                   (kSubBuckets - 1);
  return static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub + 1;
}

double Histogram::bucket_mid(std::size_t i) {
  if (i == 0) return 0.0;
  const std::size_t k = i - 1;
  const int exp = kMinExp + static_cast<int>(k / kSubBuckets);
  const auto sub = static_cast<int>(k % kSubBuckets);
  const double base = std::ldexp(1.0, exp - 1);  // 2^(exp-1)
  const double width = base / kSubBuckets;
  return base + width * (static_cast<double>(sub) + 0.5);
}

void Histogram::add(double v, std::uint64_t weight) {
  if (weight == 0) return;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
  buckets_[bucket_index(v)] += weight;
  count_ += weight;
  sum_ += v * static_cast<double>(weight);
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  // Rank of the requested observation, 1-based.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      double v = bucket_mid(i);
      if (v < min()) v = min();
      if (v > max()) v = max();
      return v;
    }
  }
  return max();
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

}  // namespace cbps::metrics
