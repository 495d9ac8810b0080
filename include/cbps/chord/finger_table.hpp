// The Chord finger table (paper §3.1.1).
//
// Entry i (1-based in the paper, 0-based here) holds the node covering
// key (n + 2^i) mod 2^m. The table stores node identifiers only; the
// simulation network resolves identifiers to nodes.
#pragma once

#include <optional>
#include <vector>

#include "cbps/common/ring.hpp"
#include "cbps/common/types.hpp"

namespace cbps::chord {

class FingerTable {
 public:
  FingerTable(RingParams ring, Key owner)
      : ring_(ring), owner_(owner), entries_(ring.bits()) {}

  RingParams ring() const { return ring_; }
  std::size_t size() const { return entries_.size(); }

  /// The key whose successor finger i tracks: (owner + 2^i) mod 2^m.
  Key start(std::size_t i) const {
    return ring_.add(owner_, std::uint64_t{1} << i);
  }

  void set(std::size_t i, Key node) {
    if (entries_[i] != node) ++version_;
    entries_[i] = node;
  }
  void clear(std::size_t i) {
    if (entries_[i]) ++version_;
    entries_[i] = std::nullopt;
  }
  void clear_all() {
    for (auto& e : entries_) e = std::nullopt;
    ++version_;
  }

  std::optional<Key> get(std::size_t i) const { return entries_[i]; }

  /// Remove every entry pointing at `node` (used when a peer is found
  /// dead).
  void evict(Key node);

  /// Distinct populated finger nodes, sorted by increasing ring distance
  /// from the owner. This is the delegation order m-cast uses.
  std::vector<Key> distinct_nodes() const;

  /// Bumped by every set/clear/clear_all/evict that changes an entry, so
  /// callers can cache values derived from the table.
  std::uint64_t version() const { return version_; }

 private:
  RingParams ring_;
  Key owner_;
  std::vector<std::optional<Key>> entries_;
  std::uint64_t version_ = 0;
};

}  // namespace cbps::chord
