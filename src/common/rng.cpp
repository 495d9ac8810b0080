#include "cbps/common/rng.hpp"

#include <cmath>

#include "cbps/common/types.hpp"

namespace cbps {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  const std::uint64_t x = state;
  state += 0x9E3779B97F4A7C15ull;
  return mix64(x);
}

constexpr std::uint64_t rotl64(std::uint64_t v, unsigned n) {
  return (v << n) | (v >> (64 - n));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl64(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CBPS_ASSERT(lo <= hi);
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  // Lemire's unbiased bounded generation.
  std::uint64_t x = next();
  Uint128 m = static_cast<Uint128>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t t = (0 - range) % range;
    while (l < t) {
      x = next();
      m = static_cast<Uint128>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(m >> 64));
}

double Rng::uniform01() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double mean) {
  CBPS_ASSERT(mean > 0.0);
  double u = uniform01();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Rng Rng::split() {
  return Rng(next() ^ 0xD1B54A32D192ED03ull);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  CBPS_ASSERT(n >= 1);
  CBPS_ASSERT(s > 0.0);
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - h_inv(h(2.5) - std::pow(2.0, -s));
}

// H(x) = integral of 1/t^s: (x^(1-s) - 1) / (1 - s), with the s == 1
// limit log(x). Shifted to be exact for the rejection-inversion scheme.
double ZipfSampler::h(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::h_inv(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::uint64_t ZipfSampler::operator()(Rng& rng) const {
  if (n_ == 1) return 1;
  // Hörmann rejection-inversion (as used by e.g. Apache Commons).
  for (;;) {
    const double u = h_n_ + rng.uniform01() * (h_x1_ - h_n_);
    const double x = h_inv(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= threshold_ ||
        u >= h(kd + 0.5) - std::pow(kd, -s_)) {
      return k;
    }
  }
}

}  // namespace cbps
