// Closed runs of ring keys: the unit of the subscribe path.
//
// The SK of a range constraint is a contiguous key interval, and the
// paper's m-cast (§4.3.1, Figure 4) partitions a key *range* by finger
// intervals. A subscription therefore travels as a short list of sorted,
// disjoint KeyRange runs from the mapping through the m-cast tree; key
// lists are only materialised where a consumer needs single keys
// (unicast/chain transports, local delivery).
#pragma once

#include <cstdint>
#include <vector>

#include "cbps/common/ring.hpp"
#include "cbps/common/types.hpp"

namespace cbps {

/// Closed range of ring keys [lo, hi]; it wraps modulo 2^m when hi < lo.
/// [k + 1, k] is the whole ring. A run is never empty.
struct KeyRange {
  Key lo = 0;
  Key hi = 0;

  bool contains(RingParams ring, Key k) const {
    return ring.in_closed_closed(lo, hi, k);
  }
  std::uint64_t size(RingParams ring) const {
    return ring.closed_interval_size(lo, hi);
  }
  friend bool operator==(const KeyRange&, const KeyRange&) = default;
};

/// Number of keys in `runs` (runs assumed disjoint).
std::uint64_t key_count(RingParams ring, const std::vector<KeyRange>& runs);

/// Maximal runs of consecutive keys in `keys`, which may be unsorted and
/// contain duplicates. Sorted ascending inputs are compressed in one
/// linear pass; anything else is sorted first. A run ending at 2^m - 1
/// merges with one starting at 0 into a wrapping run placed first (the
/// whole ring stays the single run [0, 2^m - 1]).
std::vector<KeyRange> compress_keys(RingParams ring, std::vector<Key> keys);

/// `runs` (any order; they may overlap, touch or wrap) in compress_keys'
/// form: the result equals compress_keys of their keys.
std::vector<KeyRange> normalize_runs(RingParams ring,
                                     const std::vector<KeyRange>& runs);

/// The keys of `runs` (any order, disjoint or not) in ascending order,
/// without duplicates.
std::vector<Key> expand_ascending(RingParams ring,
                                  const std::vector<KeyRange>& runs);

/// Append the keys of `runs` in list order, each run from lo to hi.
/// For runs in ring order from some origin (see order_from) this is
/// increasing ring distance from that origin.
void expand_in_order(RingParams ring, const std::vector<KeyRange>& runs,
                     std::vector<Key>& out);

/// `runs` rewritten in ring order from `origin`: sorted by clockwise
/// distance of their first key from `origin`, disjoint, none crossing
/// `origin` (a run containing `origin` past its lo is split, its
/// [origin, hi] part first), adjacent runs merged. Runs that are already
/// in ring order from any origin — every list this module and the m-cast
/// partition emit — are only rotated, in O(runs); overlapping or unsorted
/// input falls back to a sort.
std::vector<KeyRange> order_from(RingParams ring, Key origin,
                                 const std::vector<KeyRange>& runs);

}  // namespace cbps
