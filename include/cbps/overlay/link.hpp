// Per-peer state of the hop-by-hop reliability layer: the receive window
// that suppresses duplicate arrivals and the round-trip estimate that
// times the first retransmission. chord::ChordNode keeps one of each per
// peer, in its link record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cbps/sim/time.hpp"

namespace cbps::overlay {

/// Which sequence ids have arrived over one link. A sender numbers its
/// reliable sends to one peer 1, 2, 3, …, so the ids seen so far are all
/// ids up to the highest one received except the holes: ids skipped by a
/// loss or a reordering that have not arrived (yet). Its memory is
/// O(ids still missing), never O(ids received), and it allocates only
/// when more ids are missing at once than ever before.
class SeqWindow {
 public:
  /// Record the arrival of `seq` (>= 1). False when it arrived before.
  bool accept(std::uint64_t seq) {
    if (seq > highest_) {
      for (std::uint64_t s = highest_ + 1; s < seq; ++s) holes_.push_back(s);
      highest_ = seq;
      return true;
    }
    const auto it = std::lower_bound(holes_.begin(), holes_.end(), seq);
    if (it == holes_.end() || *it != seq) return false;
    holes_.erase(it);
    return true;
  }

  /// Ids below the highest one that have not arrived.
  std::size_t holes() const { return holes_.size(); }

 private:
  std::uint64_t highest_ = 0;
  std::vector<std::uint64_t> holes_;  // ascending, all below highest_
};

/// Jacobson's smoothed round trip toward one peer (RFC 6298). Samples
/// come only from acks of never-retransmitted sends (Karn's rule); the
/// first retransmission is timed from it (ChordNode::current_rto).
struct RttEstimate {
  double srtt_us = 0.0;
  double rttvar_us = 0.0;
  bool valid = false;

  void add_sample(sim::SimTime rtt) {
    const double r = static_cast<double>(rtt);
    if (!valid) {
      // RFC 6298 initialization: SRTT = R, RTTVAR = R/2.
      srtt_us = r;
      rttvar_us = r / 2.0;
      valid = true;
      return;
    }
    // Jacobson's EWMA (alpha = 1/8, beta = 1/4), variance first.
    const double err = r - srtt_us;
    rttvar_us += ((err < 0 ? -err : err) - rttvar_us) / 4.0;
    srtt_us += err / 8.0;
  }
};

}  // namespace cbps::overlay
