// Deterministic space-saving heavy-hitter sketch (Metwally et al.,
// "Efficient Computation of Frequent and Top-k Elements in Data
// Streams"), specialized for per-rendezvous-key load attribution.
//
// The sketch tracks at most `capacity` keys. An offer() for a tracked
// key adds its weight exactly; an offer for an untracked key at
// capacity evicts the minimum-count entry and inherits its count as the
// new entry's error term. Standard guarantees with total offered
// weight N and capacity K:
//   * count - error <= true count <= count  for every tracked key,
//   * error <= N / K, and
//   * every key with true count > N / K is tracked.
//
// Determinism contract (the load observatory's fold depends on it):
//   * storage is a vector sorted by key, so iteration and the min-count
//     eviction scan are layout-independent (detlint D1 by construction);
//   * eviction tie-breaks are total: minimum count first, then the
//     LARGEST key id among the minima is evicted (small key ids are the
//     stickier residents);
//   * merge() and sum() are a union-sum with NO eviction — associative
//     and commutative, so folding per-node sketches is invariant under
//     the fold order (only top() truncates). A fold accumulator therefore
//     grows to at most (#shards x capacity) entries, which is the price
//     of permutation invariance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cbps::metrics {

class TopK {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  // overestimate: true count <= count
    std::uint64_t error = 0;  // count - error <= true count

    bool operator==(const Entry&) const = default;
  };

  explicit TopK(std::size_t capacity = kDefaultCapacity);

  /// Account `weight` units of load against `key`.
  void offer(std::uint64_t key, std::uint64_t weight = 1);

  /// One unit of load per key, in order: the final state equals one
  /// offer(k) per key. Each ascending stretch of `keys` is merge-walked
  /// against the key-sorted cells instead of searched key by key (a
  /// rendezvous's covered keys wrap past 0 at most once).
  void offer_each(std::span<const std::uint64_t> keys);

  /// Union-sum fold of another sketch into this one (counts, errors and
  /// totals add; nothing is evicted). Permutation-invariant: any merge
  /// order of the same sketch set yields identical state.
  void merge(const TopK& other);

  /// Union-sum of `parts` in one pass: the state an empty TopK(capacity)
  /// reaches by merging every part, in any order. It gathers all cells
  /// once and sorts them, O(M log M) for M cells in all, where a fold of
  /// merges copies its growing accumulator once per part.
  static TopK sum(std::size_t capacity, std::span<const TopK* const> parts);

  /// The k heaviest tracked entries, ordered by count descending then
  /// key ascending (the stable tie-break the report tables rely on).
  std::vector<Entry> top(std::size_t k) const;

  /// Count/error for one key (count 0 when untracked).
  Entry find(std::uint64_t key) const;

  std::uint64_t total() const { return total_; }
  std::size_t size() const { return cells_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return cells_.empty(); }
  void reset();

  static constexpr std::size_t kDefaultCapacity = 32;

 private:
  /// Track the untracked `key` with `weight` units, placing it at `at`,
  /// its slot in key order, and evicting at capacity. Returns the index
  /// the new cell ends up at.
  std::size_t admit(std::size_t at, std::uint64_t key, std::uint64_t weight);

  std::size_t capacity_;
  std::uint64_t total_ = 0;
  // Sorted by key id, so every walk (eviction scan, top(), JSON emission)
  // is independent of insertion history and hash layout.
  std::vector<Entry> cells_;
};

}  // namespace cbps::metrics
