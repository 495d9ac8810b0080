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
//   * storage is a vector sorted by key, so iteration and victim choice
//     are layout-independent (detlint D1 by construction);
//   * eviction tie-breaks are total: minimum count first, then the
//     LARGEST key id among the minima is evicted (small key ids are the
//     stickier residents);
//   * merge() and sum() are a union-sum with NO eviction — associative
//     and commutative, so folding per-node sketches is invariant under
//     the fold order (only top() truncates). A fold accumulator therefore
//     grows to at most (#sketches x capacity) entries, which is the price
//     of permutation invariance.
//
// Cost: finding the victim takes no per-eviction scan. The sketch keeps
// the minimum count (the floor) and a cursor below which every cell still
// at the floor lies; the victim is the first floor cell found walking
// down from the cursor, which then stays at the victim. Counts only grow,
// so the cells are rescanned only once the walk runs out, when every
// floor cell has been evicted or has grown. An offer costs a binary
// search plus, on eviction, the shift of the cells between the victim and
// the new key's slot. The floor state costs no space: total() is the sum
// of the counts (each offer adds its weight to exactly one cell; an
// admitted key inherits its victim's count), and the capacity and cursor
// are 32-bit (2^32 cells would take 96 GiB), so a node's four sketches
// are no larger than a capacity, a stored total and the cells.
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

  /// At most 2^32 - 1 keys are tracked, whatever `capacity` asks for.
  explicit TopK(std::size_t capacity = kDefaultCapacity);

  /// Account `weight` units of load against `key`.
  void offer(std::uint64_t key, std::uint64_t weight = 1);

  /// One unit of load per key, in order: the final state equals one
  /// offer(k) per key. Each ascending stretch of `keys` is binary-searched
  /// once and then merge-walked against the key-sorted cells instead of
  /// searched key by key (a rendezvous's covered keys wrap past 0 at most
  /// once).
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

  /// Total offered weight: the sum of the counts, O(size()).
  std::uint64_t total() const;
  std::size_t size() const { return cells_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return cells_.empty(); }

  static constexpr std::size_t kDefaultCapacity = 32;

 private:
  /// Track the untracked `key` with `weight` units, placing it at `at`,
  /// its slot in key order, and evicting at capacity. Returns the index
  /// the new cell ends up at.
  std::size_t admit(std::size_t at, std::uint64_t key, std::uint64_t weight);

  /// Index of the eviction victim (the highest cell at the floor); the
  /// cursor is left on it. Rescans the cells when no floor cell is left
  /// below the cursor.
  std::size_t pop_victim();

  std::uint32_t capacity_;
  // Floor cursor: no cell at or above cursor_ holds floor_, and floor_ is
  // at most the minimum count. cursor_ == 0 sends the next eviction to a
  // rescan; merge() and reset() set it so. Only evictions move it, and
  // the cells never shrink but by reset(), so it is still 0 after any
  // insertion below capacity.
  std::uint32_t cursor_ = 0;
  std::uint64_t floor_ = 0;
  // Sorted by key id, so every walk (victim choice, top(), JSON emission)
  // is independent of insertion history and hash layout.
  std::vector<Entry> cells_;
};

}  // namespace cbps::metrics
