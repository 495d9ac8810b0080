// Unit and property tests for the common substrate: SHA-1, consistent
// hashing, ring arithmetic, intervals, RNG and samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/hash.hpp"
#include "cbps/common/interval.hpp"
#include "cbps/common/key_range.hpp"
#include "cbps/common/logging.hpp"
#include "cbps/common/ring.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/common/sha1.hpp"
#include "cbps/common/sorted_view.hpp"

namespace cbps {
namespace {

// ---------------------------------------------------------------------------
// SHA-1 (FIPS 180-1 test vectors)
// ---------------------------------------------------------------------------

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(Sha1::to_hex(Sha1::hash("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(Sha1::to_hex(Sha1::hash("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(Sha1::to_hex(Sha1::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(Sha1::to_hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, QuickBrownFox) {
  EXPECT_EQ(Sha1::to_hex(Sha1::hash(
                "The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const std::string msg = "incremental hashing must be split-invariant";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha1 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(Sha1::to_hex(h.finish()), Sha1::to_hex(Sha1::hash(msg)))
        << "split at " << split;
  }
}

TEST(Sha1Test, ResetReusesObject) {
  Sha1 h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(Sha1::to_hex(h.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// ---------------------------------------------------------------------------
// Consistent hashing
// ---------------------------------------------------------------------------

TEST(ConsistentHashTest, WithinKeySpace) {
  const RingParams ring{13};
  for (int i = 0; i < 1000; ++i) {
    const Key k = consistent_hash("node-" + std::to_string(i), ring);
    EXPECT_LE(k, ring.max_key());
  }
}

TEST(ConsistentHashTest, Deterministic) {
  const RingParams ring{13};
  EXPECT_EQ(consistent_hash("alpha", ring), consistent_hash("alpha", ring));
  EXPECT_EQ(consistent_hash(std::uint64_t{42}, ring),
            consistent_hash(std::uint64_t{42}, ring));
}

TEST(ConsistentHashTest, SpreadsAcrossRing) {
  // 2000 names into 8 coarse buckets of a 2^13 ring: every bucket should
  // be populated and no bucket should dominate.
  const RingParams ring{13};
  std::map<Key, int> buckets;
  for (int i = 0; i < 2000; ++i) {
    const Key k = consistent_hash("name:" + std::to_string(i), ring);
    buckets[k / 1024]++;
  }
  EXPECT_EQ(buckets.size(), 8u);
  for (const auto& [bucket, count] : buckets) {
    EXPECT_GT(count, 150) << "bucket " << bucket;
    EXPECT_LT(count, 350) << "bucket " << bucket;
  }
}

// ---------------------------------------------------------------------------
// Ring arithmetic: exhaustive checks on a small ring vs a walking oracle
// ---------------------------------------------------------------------------

class SmallRingTest : public ::testing::Test {
 protected:
  static constexpr unsigned kBits = 4;
  RingParams ring_{kBits};

  // Oracle: walk clockwise from `a` (exclusive) for `steps` keys, check
  // whether we hit k.
  bool oracle_open_closed(Key a, Key b, Key k) const {
    if (a == b) return true;  // full ring by convention
    Key cur = a;
    do {
      cur = ring_.add(cur, 1);
      if (cur == k) return true;
    } while (cur != b);
    return false;
  }
};

TEST_F(SmallRingTest, BasicArithmetic) {
  EXPECT_EQ(ring_.size(), 16u);
  EXPECT_EQ(ring_.max_key(), 15u);
  EXPECT_EQ(ring_.add(15, 1), 0u);
  EXPECT_EQ(ring_.sub(0, 1), 15u);
  EXPECT_EQ(ring_.distance(14, 2), 4u);
  EXPECT_EQ(ring_.distance(2, 14), 12u);
  EXPECT_EQ(ring_.distance(5, 5), 0u);
}

TEST_F(SmallRingTest, OpenClosedMatchesOracle) {
  for (Key a = 0; a < 16; ++a) {
    for (Key b = 0; b < 16; ++b) {
      for (Key k = 0; k < 16; ++k) {
        EXPECT_EQ(ring_.in_open_closed(a, b, k), oracle_open_closed(a, b, k))
            << "(" << a << ", " << b << "] ∋ " << k;
      }
    }
  }
}

TEST_F(SmallRingTest, IntervalVariantsConsistent) {
  for (Key a = 0; a < 16; ++a) {
    for (Key b = 0; b < 16; ++b) {
      for (Key k = 0; k < 16; ++k) {
        // (a, b) == (a, b] minus b  (for a != b).
        if (a != b) {
          EXPECT_EQ(ring_.in_open_open(a, b, k),
                    ring_.in_open_closed(a, b, k) && k != b);
          // [a, b) == (a-1, b-1].
          EXPECT_EQ(ring_.in_closed_open(a, b, k),
                    ring_.in_open_closed(ring_.sub(a, 1), ring_.sub(b, 1),
                                         k));
        }
        // [a, b] == (a-1, b].
        EXPECT_EQ(ring_.in_closed_closed(a, b, k),
                  ring_.in_open_closed(ring_.sub(a, 1), b, k));
      }
    }
  }
}

TEST_F(SmallRingTest, DegenerateIntervals) {
  EXPECT_TRUE(ring_.in_open_closed(3, 3, 3));    // full ring
  EXPECT_TRUE(ring_.in_open_closed(3, 3, 10));   // full ring
  EXPECT_TRUE(ring_.in_closed_closed(7, 7, 7));  // singleton
  EXPECT_FALSE(ring_.in_closed_closed(7, 7, 8));
  EXPECT_FALSE(ring_.in_open_open(5, 5, 5));  // all but a
  EXPECT_TRUE(ring_.in_open_open(5, 5, 6));
}

TEST_F(SmallRingTest, MidpointHalvesDistance) {
  for (Key a = 0; a < 16; ++a) {
    for (Key b = 0; b < 16; ++b) {
      const Key m = ring_.midpoint(a, b);
      EXPECT_TRUE(ring_.in_closed_closed(a, b, m));
      EXPECT_EQ(ring_.distance(a, m), ring_.distance(a, b) / 2);
    }
  }
}

TEST(RingParamsTest, LargeRingWrap) {
  const RingParams ring{63};
  EXPECT_EQ(ring.add(ring.max_key(), 1), 0u);
  EXPECT_EQ(ring.distance(ring.max_key(), 0), 1u);
  EXPECT_TRUE(ring.in_open_closed(ring.max_key(), 1, 0));
}

TEST(RingParamsTest, ClosedIntervalSize) {
  const RingParams ring{13};
  EXPECT_EQ(ring.closed_interval_size(10, 10), 1u);
  EXPECT_EQ(ring.closed_interval_size(10, 19), 10u);
  EXPECT_EQ(ring.closed_interval_size(8190, 1), 4u);  // 8190,8191,0,1
}

// ---------------------------------------------------------------------------
// ClosedInterval
// ---------------------------------------------------------------------------

TEST(ClosedIntervalTest, ContainsAndWidth) {
  const ClosedInterval i{-5, 5};
  EXPECT_TRUE(i.contains(-5));
  EXPECT_TRUE(i.contains(0));
  EXPECT_TRUE(i.contains(5));
  EXPECT_FALSE(i.contains(6));
  EXPECT_FALSE(i.contains(-6));
  EXPECT_EQ(i.width(), 11u);
  EXPECT_EQ(ClosedInterval::point(7).width(), 1u);
}

TEST(ClosedIntervalTest, IntersectAndOverlap) {
  const ClosedInterval a{0, 10};
  const ClosedInterval b{5, 15};
  const ClosedInterval c{11, 20};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c));
  ASSERT_TRUE(a.intersect(b).has_value());
  EXPECT_EQ(*a.intersect(b), (ClosedInterval{5, 10}));
  EXPECT_FALSE(a.intersect(c).has_value());
  // Touching endpoints intersect in a single point.
  ASSERT_TRUE(a.intersect(ClosedInterval{10, 12}).has_value());
  EXPECT_EQ(*a.intersect(ClosedInterval{10, 12}), ClosedInterval::point(10));
}

// ---------------------------------------------------------------------------
// Rng & samplers
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 11);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 11);
  }
  // Degenerate interval.
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    counts[static_cast<std::size_t>(rng.uniform_int(0, 9))]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10, kSamples / 100);
  }
}

TEST(RngTest, Uniform01Range) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.exponential(5.0));
  EXPECT_NEAR(stat.mean(), 5.0, 0.1);
  EXPECT_GE(stat.min(), 0.0);
}

TEST(RngTest, SplitStreamsAreIndependentlySeeded) {
  Rng base(42);
  Rng s1 = base.split();
  Rng s2 = base.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1.next() == s2.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(ZipfTest, RanksWithinDomain) {
  Rng rng(3);
  ZipfSampler zipf(1000, 1.0);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t r = zipf(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 1000u);
  }
}

TEST(ZipfTest, FrequenciesFollowPowerLaw) {
  Rng rng(17);
  ZipfSampler zipf(10000, 1.0);
  std::map<std::uint64_t, int> counts;
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) counts[zipf(rng)]++;
  // P(1)/P(2) should be ~2, P(1)/P(4) ~4 (s = 1).
  ASSERT_GT(counts[1], 0);
  ASSERT_GT(counts[2], 0);
  ASSERT_GT(counts[4], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.0, 0.3);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[4], 4.0, 0.6);
}

TEST(ZipfTest, HugeDomainStaysCheapAndSkewed) {
  // The paper's selective centers are Zipf over up to 10^6 values; the
  // sampler must be O(1) per draw and strongly skewed toward low ranks.
  Rng rng(23);
  ZipfSampler zipf(1'000'000, 1.0);
  int low = 0;
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf(rng) <= 1000) ++low;
  }
  // With s=1, P(rank <= 1000) = H(1000)/H(1e6) ≈ 0.52.
  EXPECT_GT(low, kSamples / 3);
}

TEST(ZipfTest, SingleElementDomain) {
  Rng rng(1);
  ZipfSampler zipf(1, 1.2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf(rng), 1u);
}

TEST(RunningStatTest, Moments) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-9);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// Every CBPS_ASSERT failure — in benches and tools as much as under the
// audit_* checks — must dump the logger's recent-lines ring: the lines
// leading up to the violation are usually the story.
TEST(AssertDeathTest, FailureDumpsRecentLogRing) {
  EXPECT_DEATH(
      {
        Logger::instance().set_ring_level(LogLevel::kInfo);
        CBPS_LOG_INFO << "breadcrumb before the assertion";
        CBPS_ASSERT_MSG(false, "intentional");
      },
      "CBPS_ASSERT failed(.|\n)*recent log lines(.|\n)*breadcrumb before "
      "the assertion");
}

TEST(SortedViewTest, MapSortedByKeySetByValue) {
  std::unordered_map<int, std::string> m{{3, "c"}, {1, "a"}, {2, "b"}};
  std::vector<int> keys;
  for (const auto* e : sorted_view(m)) keys.push_back(e->first);
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3}));

  std::unordered_set<int> s{5, 9, 2};
  std::vector<int> vals;
  for (const int* v : sorted_view(s)) vals.push_back(*v);
  EXPECT_EQ(vals, (std::vector<int>{2, 5, 9}));
}

TEST(SortedViewTest, MutableMapViewAllowsMovingValuesOut) {
  std::unordered_map<int, std::vector<int>> m{{2, {4, 5}}, {1, {6}}};
  std::vector<int> drained;
  for (auto* e : sorted_view(m)) {
    for (int v : e->second) drained.push_back(v);
    e->second.clear();
  }
  EXPECT_EQ(drained, (std::vector<int>{6, 4, 5}));
  EXPECT_TRUE(m.at(1).empty());
  EXPECT_TRUE(m.at(2).empty());
}

// ---------------------------------------------------------------------------
// Key runs
// ---------------------------------------------------------------------------

// Random key lists and run lists (wrapping, overlapping, repeated) on
// small rings, checked against std::set: compress_keys and
// normalize_runs agree and expand back to the sorted key set, and
// order_from yields disjoint, merged runs in ring order from the origin
// that cover exactly the same keys.
TEST(KeyRangeTest, RunHelpersAgreeWithKeySets) {
  Rng rng(5);
  for (unsigned bits = 3; bits <= 9; ++bits) {
    const RingParams ring{bits};
    const auto key = [&] {
      return static_cast<Key>(rng.uniform_int(
          0, static_cast<std::int64_t>(ring.max_key())));
    };
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<KeyRange> runs;
      std::set<Key> want;
      const int n = static_cast<int>(rng.uniform_int(0, 6));
      for (int i = 0; i < n; ++i) {
        const Key lo = key();
        const auto len = static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ring.max_key())));
        runs.push_back({lo, ring.add(lo, len)});
        for (std::uint64_t j = 0; j <= len; ++j) want.insert(ring.add(lo, j));
      }
      const std::vector<Key> sorted(want.begin(), want.end());
      std::vector<Key> shuffled = sorted;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      if (!shuffled.empty()) shuffled.push_back(shuffled.front());

      const std::vector<KeyRange> compressed = compress_keys(ring, shuffled);
      EXPECT_EQ(compressed, normalize_runs(ring, runs));
      EXPECT_EQ(expand_ascending(ring, compressed), sorted);
      EXPECT_EQ(key_count(ring, compressed), sorted.size());

      const Key origin = key();
      const std::vector<KeyRange> ordered = order_from(ring, origin, runs);
      std::vector<Key> keys;
      expand_in_order(ring, ordered, keys);
      EXPECT_EQ(std::set<Key>(keys.begin(), keys.end()), want);
      EXPECT_EQ(keys.size(), want.size());
      for (std::size_t i = 1; i < keys.size(); ++i) {
        EXPECT_LT(ring.distance(origin, keys[i - 1]),
                  ring.distance(origin, keys[i]));
      }
      for (std::size_t i = 1; i < ordered.size(); ++i) {
        EXPECT_NE(ring.add(ordered[i - 1].hi, 1), ordered[i].lo);
      }
      // Already ordered input is a fixed point.
      EXPECT_EQ(order_from(ring, origin, ordered), ordered);
    }
  }
}

}  // namespace
}  // namespace cbps
