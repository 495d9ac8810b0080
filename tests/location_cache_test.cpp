// Differential test of the ordered LocationCache against the std::map +
// LRU-list cache it replaced, which is kept below as the reference. Both
// are driven through the same seeded random insert / evict / find_owner /
// closest-preceding sequences; every answer, the size and the MRU-first
// node order must agree. A second test pins the refresh fast path against
// a cache rebuilt from scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cbps/chord/location_cache.hpp"

namespace cbps::chord {
namespace {

/// The previous LocationCache (map scan for the lowest covering id, list
/// for LRU order) plus ChordNode's previous closest-preceding walk over
/// every cached node.
class ReferenceCache {
 public:
  ReferenceCache(RingParams ring, std::size_t capacity)
      : ring_(ring), capacity_(capacity) {}

  std::size_t size() const { return map_.size(); }

  void insert(Key node, Key range_lo) {
    if (capacity_ == 0) return;
    auto it = map_.find(node);
    if (it != map_.end()) {
      it->second.first = range_lo;
      touch(it);
      return;
    }
    if (map_.size() >= capacity_) {
      const Key victim = lru_.back();
      lru_.pop_back();
      map_.erase(victim);
    }
    lru_.push_front(node);
    map_.emplace(node, std::make_pair(range_lo, lru_.begin()));
  }

  void evict(Key node) {
    auto it = map_.find(node);
    if (it == map_.end()) return;
    lru_.erase(it->second.second);
    map_.erase(it);
  }

  std::optional<Key> find_owner(Key key) {
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      const Key node = it->first;
      const Key range_lo = it->second.first;
      if (node != range_lo && ring_.in_open_closed(range_lo, node, key)) {
        touch(it);
        return node;
      }
    }
    return std::nullopt;
  }

  std::optional<Key> closest_preceding(Key self, Key key) const {
    std::optional<Key> best;
    std::uint64_t best_dist = 0;
    for (const Key c : lru_) {
      if (c == self || !ring_.in_open_closed(self, key, c)) continue;
      const std::uint64_t d = ring_.distance(self, c);
      if (!best || d > best_dist) {
        best = c;
        best_dist = d;
      }
    }
    return best;
  }

  std::vector<Key> nodes() const { return {lru_.begin(), lru_.end()}; }

 private:
  using Map = std::map<Key, std::pair<Key, std::list<Key>::iterator>>;

  void touch(Map::iterator it) {
    lru_.splice(lru_.begin(), lru_, it->second.second);
    it->second.second = lru_.begin();
  }

  RingParams ring_;
  std::size_t capacity_;
  std::list<Key> lru_;
  Map map_;
};

class LocationCacheDifferentialTest
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(LocationCacheDifferentialTest, MatchesReference) {
  const auto [bits, capacity] = GetParam();
  const RingParams ring{bits};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed * 10'000 + bits * 1'000 + capacity);
    const auto any_key = [&] { return ring.wrap(rng()); };
    // Node ids come from a pool somewhat larger than the cache, so
    // refreshes, evictions of cached and uncached ids, and LRU overflow
    // all happen. `self` is drawn from the pool and so is often cached.
    std::vector<Key> pool(
        std::min<std::uint64_t>(ring.size(), 2 * capacity + 8));
    for (Key& k : pool) k = any_key();
    const auto pick = [&] { return pool[rng() % pool.size()]; };
    // Keys on, just above and just below cached ids hit the interval
    // boundaries.
    const auto near = [&](Key k) {
      switch (rng() % 3) {
        case 0: return k;
        case 1: return ring.add(k, 1);
        default: return ring.sub(k, 1);
      }
    };
    const Key self = pick();

    LocationCache cache(ring, capacity);
    ReferenceCache ref(ring, capacity);
    for (int step = 0; step < 3000; ++step) {
      const Key node = pick();
      const Key key = rng() % 2 ? any_key() : near(pick());
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {
          // A range just below the node (what a consistent ring sends),
          // an empty one (node == range_lo), or an arbitrary one, which
          // wraps past 0 about half the time.
          Key lo = any_key();
          if (const auto shape = rng() % 3; shape == 0) {
            lo = ring.sub(node, 1 + rng() % 4);
          } else if (shape == 1) {
            lo = node;
          }
          cache.insert(node, lo);
          ref.insert(node, lo);
          break;
        }
        case 3:
          cache.evict(node);
          ref.evict(node);
          break;
        case 4:
        case 5:
          ASSERT_EQ(cache.find_owner(key), ref.find_owner(key))
              << "seed " << seed << " step " << step << " key " << key;
          break;
        default: {
          const Key from = rng() % 2 ? self : pick();
          ASSERT_EQ(cache.closest_preceding(from, key),
                    ref.closest_preceding(from, key))
              << "seed " << seed << " step " << step << " self " << from
              << " key " << key;
        }
      }
      ASSERT_EQ(cache.size(), ref.size());
      if (step % 64 == 0) {
        ASSERT_EQ(cache.nodes(), ref.nodes())
            << "seed " << seed << " step " << step;
      }
    }
    ASSERT_EQ(cache.nodes(), ref.nodes()) << "seed " << seed;
  }
}

TEST(LocationCacheRefreshTest, RefreshedCacheMatchesRebuiltCache) {
  // Refreshing an entry with its unchanged range only moves its stamp.
  // After a run of refreshes (and some range changes), the cache must
  // hold the expected LRU order, and answer and evict exactly like one
  // rebuilt from scratch by inserting the same entries in
  // least-recently-used-first order.
  const RingParams ring{10};
  constexpr std::size_t kCapacity = 16;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<Key> pool(2 * kCapacity);
    for (Key& k : pool) k = ring.wrap(rng());
    LocationCache cache(ring, kCapacity);
    std::map<Key, Key> range_lo;  // current range of every cached node
    std::vector<Key> mru_first;   // expected use order, newest first
    for (int step = 0; step < 400; ++step) {
      const Key node = pool[rng() % pool.size()];
      const auto known = range_lo.find(node);
      // Mostly refreshes with the unchanged range; sometimes a new range,
      // about half of them wrapping past 0.
      Key lo = ring.wrap(rng());
      if (known != range_lo.end() && rng() % 4 != 0) lo = known->second;
      cache.insert(node, lo);
      range_lo[node] = lo;
      std::erase(mru_first, node);
      mru_first.insert(mru_first.begin(), node);
      if (mru_first.size() > kCapacity) {  // the LRU entry was evicted
        range_lo.erase(mru_first.back());
        mru_first.pop_back();
      }
    }
    ASSERT_EQ(cache.nodes(), mru_first) << "seed " << seed;

    LocationCache rebuilt(ring, kCapacity);
    for (auto it = mru_first.rbegin(); it != mru_first.rend(); ++it) {
      rebuilt.insert(*it, range_lo.at(*it));
    }
    for (Key key = 0; key < ring.size(); key += 7) {
      ASSERT_EQ(cache.find_owner(key), rebuilt.find_owner(key))
          << "seed " << seed << " key " << key;
      const Key self = mru_first[key % mru_first.size()];
      ASSERT_EQ(cache.closest_preceding(self, key),
                rebuilt.closest_preceding(self, key))
          << "seed " << seed << " key " << key;
    }
    // Same eviction order: fresh nodes push the same victims out.
    for (std::size_t fresh = 0; fresh < kCapacity; ++fresh) {
      const Key node = ring.wrap(rng());
      if (range_lo.contains(node)) continue;
      cache.insert(node, ring.sub(node, 1));
      rebuilt.insert(node, ring.sub(node, 1));
      ASSERT_EQ(cache.nodes(), rebuilt.nodes())
          << "seed " << seed << " fresh " << fresh;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RingBitsByCapacity, LocationCacheDifferentialTest,
    ::testing::Combine(::testing::Range(4u, 14u),
                       ::testing::Values<std::size_t>(0, 1, 8, 128)),
    [](const auto& info) {
      return std::string("bits")
          .append(std::to_string(std::get<0>(info.param)))
          .append("_cap")
          .append(std::to_string(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace cbps::chord
