// Target-set partitioning for the m-cast primitive (paper §4.3.1,
// Figure 4), shared by every overlay implementation.
//
// Given the local node, the arc it covers and its routing candidates
// (finger/routing-table/leaf-set nodes) sorted by ring distance, the
// partition assigns:
//   - covered targets to local delivery,
//   - targets in (self, candidates[0]] to the first candidate (the ring
//     successor, which covers them),
//   - every other target to the farthest candidate *strictly* preceding
//     it, so a whole segment (c_i, c_{i+1}] travels in one message and
//     every node receives the multicast at most once.
//
// Targets are key runs: the partition cuts them at the covered-arc and
// candidate boundaries in one ordered pass, O(runs + candidates).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "cbps/common/key_range.hpp"
#include "cbps/common/ring.hpp"
#include "cbps/common/types.hpp"

namespace cbps::overlay {

/// The arc (pred, self] a node covers, as a closed run; the whole ring
/// when the predecessor is unknown (or is the node itself).
inline KeyRange covered_arc(RingParams ring, Key self,
                            std::optional<Key> pred) {
  return {ring.add(pred.value_or(self), 1), self};
}

struct McastRunPartition {
  struct Branch {
    std::size_t candidate = 0;    // index into the candidate vector
    std::vector<KeyRange> runs;   // in ring order from self
  };
  /// Targets this node covers, in ring order from self.
  std::vector<KeyRange> local;
  /// One branch per candidate that received targets, by candidate index.
  std::vector<Branch> branches;
  /// Targets with no viable candidate (only when `candidates` is empty).
  std::vector<KeyRange> undeliverable;
};

/// `runs` may be in any order and overlap (order_from normalises them;
/// ring-ordered input costs O(runs)). `covered` is a run ending at
/// `self` (see covered_arc) delivered locally; std::nullopt delivers
/// nothing locally. `candidates` must be sorted by increasing ring
/// distance from `self`.
McastRunPartition partition_mcast_runs(RingParams ring, Key self,
                                       std::optional<KeyRange> covered,
                                       const std::vector<KeyRange>& runs,
                                       const std::vector<Key>& candidates);

struct McastPartition {
  /// Targets this node covers (deliver locally), sorted by ring distance.
  std::vector<Key> local;
  /// Per-candidate delegated target batches; parallel to the candidate
  /// vector passed in (empty batches for unused candidates), each sorted
  /// by ring distance.
  std::vector<std::vector<Key>> delegated;
  /// Targets with no viable candidate (only when `candidates` is empty).
  std::vector<Key> undeliverable;
};

/// Key-list form of partition_mcast_runs: `covers` decides local
/// delivery, the remaining keys are partitioned as runs. `targets` may be
/// unsorted and contain duplicates; `candidates` must be sorted by
/// increasing ring distance from `self` and must not contain `self`.
McastPartition partition_mcast_targets(
    RingParams ring, Key self, const std::function<bool(Key)>& covers,
    std::vector<Key> targets, const std::vector<Key>& candidates);

}  // namespace cbps::overlay
