#include "cbps/chord/location_cache.hpp"

#include <algorithm>
#include <iterator>

namespace cbps::chord {

std::vector<LocationCache::Entry>::iterator LocationCache::lower_bound(
    Key node) {
  // Branch-free binary search (same answer as std::lower_bound): the
  // probe sequence depends only on the size, so the compiler emits a
  // conditional move per level instead of a branch that mispredicts on
  // about half of them. Every envelope and every routing step runs this.
  std::size_t n = entries_.size();
  if (n == 0) return entries_.end();
  const Entry* base = entries_.data();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half].node < node ? base + half : base;
    n -= half;
  }
  return entries_.begin() + ((base - entries_.data()) + (base->node < node));
}

void LocationCache::mark_wrapping(Key node, bool wraps) {
  const auto it = std::lower_bound(wrapping_.begin(), wrapping_.end(), node);
  const bool listed = it != wrapping_.end() && *it == node;
  if (wraps && !listed) wrapping_.insert(it, node);
  if (!wraps && listed) wrapping_.erase(it);
}

void LocationCache::insert(Key node, Key range_lo) {
  if (capacity_ == 0) return;
  auto it = lower_bound(node);
  // Refresh, the common case (every envelope from a known peer): the
  // range and so its wrapping mark are unchanged; only the stamp moves.
  if (it != entries_.end() && it->node == node && it->range_lo == range_lo) {
    touch(*it);
    return;
  }
  if (it == entries_.end() || it->node != node) {
    if (entries_.size() >= capacity_) {
      const auto victim = std::min_element(
          entries_.begin(), entries_.end(),
          [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
      mark_wrapping(victim->node, false);
      entries_.erase(victim);
      it = lower_bound(node);
    }
    it = entries_.insert(it, Entry{node, range_lo, 0});
  }
  it->range_lo = range_lo;
  mark_wrapping(node, range_lo > node);
  touch(*it);
}

void LocationCache::evict(Key node) {
  const auto it = lower_bound(node);
  if (it == entries_.end() || it->node != node) return;
  mark_wrapping(node, false);
  entries_.erase(it);
}

std::optional<Key> LocationCache::find_owner(Key key) {
  // Several entries can cover `key`; the winner is the lowest covering
  // node id, so the route it shapes is a pure function of the cache
  // contents. An entry covers (range_lo, node]; node == range_lo covers
  // nothing. Below `key` only a wrapping range, (range_lo, 2^m) ∪
  // [0, node], can reach it, so those few entries come first.
  for (const Key w : wrapping_) {
    if (w >= key) break;
    Entry& e = *lower_bound(w);
    if (key > e.range_lo) return touch(e);
  }
  // From `key` upward a wrapping entry always covers it and any other
  // entry does iff range_lo < key. With accurate ranges the first entry
  // at or above `key` is its owner, so a hit stops at once. A miss does
  // not: when no entry covers `key`, the walk reads every entry above it
  // before it gives up, O(C). Misses are the common case. On cbpsbench's
  // publish_m3_unicast (seed 1) 77% of calls miss and each miss reads
  // ~36 entries, while a hit reads one. A version that finds the first
  // coverer in O(log C) measured within noise there (~1.05x), so the
  // walk stays.
  for (auto it = lower_bound(key); it != entries_.end(); ++it) {
    if (it->range_lo > it->node || it->range_lo < key) return touch(*it);
  }
  return std::nullopt;
}

std::optional<Key> LocationCache::closest_preceding(Key self, Key key) const {
  // Within (self, key] the distance from `self` grows clockwise, so the
  // farthest candidate is the first node met walking counter-clockwise
  // from `key` (inclusive). If that node is outside (self, key], every
  // other node is farther round and outside too.
  if (entries_.empty()) return std::nullopt;
  const auto ccw = [&](std::vector<Entry>::const_iterator it) {
    return std::prev(it == entries_.begin() ? entries_.end() : it);
  };
  auto it = ccw(std::upper_bound(
      entries_.begin(), entries_.end(), key,
      [](Key k, const Entry& e) { return k < e.node; }));
  if (it->node == self) {
    if (entries_.size() == 1) return std::nullopt;
    it = ccw(it);
  }
  if (!ring_.in_open_closed(self, key, it->node)) return std::nullopt;
  return it->node;
}

std::vector<Key> LocationCache::nodes() const {
  std::vector<Entry> by_use = entries_;
  std::sort(by_use.begin(), by_use.end(),
            [](const Entry& a, const Entry& b) { return a.stamp > b.stamp; });
  std::vector<Key> out;
  out.reserve(by_use.size());
  for (const Entry& e : by_use) out.push_back(e.node);
  return out;
}

}  // namespace cbps::chord
