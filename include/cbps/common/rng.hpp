// Deterministic pseudo-random number generation and the samplers the
// paper's workload model needs (uniform, exponential / Poisson process,
// Zipf).
//
// All simulation randomness flows through one seeded Rng so that every
// experiment is exactly reproducible.
#pragma once

#include <cstdint>

#include "cbps/common/assert.hpp"

namespace cbps {

/// SplitMix64 finalizer of `x` (the output of one SplitMix64 step from
/// state `x`): decorrelates per-node stream seeds derived from (run seed,
/// node id), so adjacent ids never produce adjacent states.
std::uint64_t mix64(std::uint64_t x);

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform integer in [lo, hi] (inclusive). Uses Lemire-style rejection
  /// so the distribution is exactly uniform.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// true with probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  /// Exponentially distributed value with the given mean (> 0). This is
  /// the inter-arrival time of a Poisson process with rate 1/mean, which
  /// is how the paper generates publications (§5.1).
  double exponential(double mean);

  /// Split off an independent stream (for per-component generators that
  /// must not perturb each other's sequences).
  Rng split();

 private:
  std::uint64_t s_[4];
};

/// Zipf-distributed ranks over {1, ..., n} with exponent `s` (> 0),
/// P(k) ∝ 1/k^s. Uses Hörmann's rejection-inversion method so it is O(1)
/// per sample with no O(n) tables — the paper draws selective-attribute
/// centers from a Zipf distribution over up to 10^6 values (§5.1).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t n() const { return n_; }
  double exponent() const { return s_; }

  /// Sample a rank in [1, n].
  std::uint64_t operator()(Rng& rng) const;

 private:
  double h(double x) const;
  double h_inv(double x) const;

  std::uint64_t n_;
  double s_;
  double h_x1_;       // h(1.5) - 1
  double h_n_;        // h(n + 0.5)
  double threshold_;  // 2 - h_inv(h(2.5) - 1/2^s)
};

}  // namespace cbps
