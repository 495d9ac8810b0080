// Per-node location cache ("finger caching").
//
// Nodes learn (node, covered-range) pairs passively from every envelope
// they receive and from owner feedback on completed routes. A cached
// entry that covers a lookup key lets the route finish in one hop, which
// is how the paper's simulator averages ~2.5 hops at n=500 (§5.1).
// Entries are evicted LRU and whenever a peer is observed dead.
//
// The cache is consulted on every routing step, so it is one flat vector
// sorted by node id and both routing queries are ordered lookups rather
// than walks over every entry (a 128-entry walk per hop was half of a
// unicast publish run's time). LRU order is a per-entry use stamp drawn
// from a strictly increasing clock: the minimum stamp is exactly the tail
// of a move-to-front list, so eviction order is unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cbps/common/ring.hpp"
#include "cbps/common/types.hpp"

namespace cbps::chord {

class LocationCache {
 public:
  LocationCache(RingParams ring, std::size_t capacity)
      : ring_(ring), capacity_(capacity) {}

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Record that `node` covers (range_lo, node]. Refreshes LRU position.
  void insert(Key node, Key range_lo);

  /// Remove a node observed to be dead.
  void evict(Key node);

  /// The lowest cached node id believed to cover `key`, if any (a pure
  /// function of the cache contents, detlint D1). Refreshes the LRU
  /// position of the hit. A hit is O(log C) when the cached ranges are
  /// accurate; a miss reads every entry above `key`, O(C).
  std::optional<Key> find_owner(Key key);

  /// The cached node other than `self` farthest from `self` within
  /// (self, key]: the first one met walking counter-clockwise from `key`.
  /// O(log C). Does not touch LRU state.
  std::optional<Key> closest_preceding(Key self, Key key) const;

  /// All cached node ids, most recently used first.
  std::vector<Key> nodes() const;

 private:
  struct Entry {
    Key node;
    Key range_lo;
    std::uint64_t stamp;  // last use; larger is more recent
  };

  std::vector<Entry>::iterator lower_bound(Key node);
  /// Keep `wrapping_` in step with whether `node`'s range wraps past 0.
  void mark_wrapping(Key node, bool wraps);
  Key touch(Entry& e) {
    e.stamp = ++clock_;
    return e.node;
  }

  RingParams ring_;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::vector<Entry> entries_;  // sorted by node id
  // Sorted ids of entries whose range wraps (range_lo > node): the only
  // entries that can cover a key above their own id. One per consistent
  // view of the ring, so find_owner checks them all.
  std::vector<Key> wrapping_;
};

}  // namespace cbps::chord
