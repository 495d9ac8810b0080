// Tunables of the Chord substrate.
#pragma once

#include <cstddef>

#include "cbps/common/ring.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::chord {

struct ChordConfig {
  /// Identifier circle: keys are `ring.bits()`-bit values. The paper's
  /// simulations use a key space of size 2^13 (§5.1).
  RingParams ring{13};

  /// Length of the successor list kept for failure resilience.
  std::size_t successor_list_size = 4;

  /// Capacity of the per-node location cache ("finger caching", §5.1:
  /// the cache is why the average route takes ~2.5 hops at n=500 instead
  /// of log n). 0 disables caching.
  std::size_t location_cache_size = 128;

  /// Whether the owner of a routed key reports itself back to the route
  /// origin (feeds the origin's location cache; sent as control traffic).
  bool owner_feedback = true;

  /// Period of the stabilize / fix-fingers / check-predecessor loop.
  /// 0 disables periodic maintenance (static topologies built by the
  /// network harness don't need it).
  sim::SimTime stabilize_period = sim::sec(30);

  /// Routing messages are dropped after this many hops (protection
  /// against transient routing loops while the ring converges).
  std::uint32_t max_route_hops = 512;

  /// Fault injection: probability that any one transmission is lost in
  /// flight (uniform per message, sampled from a dedicated RNG stream).
  /// A non-zero rate also arms the hop-by-hop ack/retry reliability
  /// layer for application traffic; 0 disables both entirely, leaving
  /// the wire and all metrics bit-identical to a loss-free build.
  double loss_rate = 0.0;

  /// Retransmissions attempted per reliable message before the sender
  /// declares the send failed (counted, never silent).
  std::uint32_t max_retries = 5;

  /// Ack timeout for the first retransmission before any RTT sample
  /// exists for the peer; doubles after every retry (exponential
  /// backoff). Must comfortably exceed one message round-trip. Once the
  /// peer's link has a clean sample, the first retry timeout is the
  /// Jacobson/Karn SRTT + 4*RTTVAR instead (see ChordNode::current_rto),
  /// so retries track the latency model: slow (gray-failing) peers get
  /// patience, fast links get snappy recovery.
  sim::SimTime retry_base = sim::ms(250);

  /// Arm the ack/retry reliability layer even at loss_rate == 0. The
  /// fault-scenario engine needs this: partitions and runtime-installed
  /// loss models drop messages on a wire whose configured rate is 0.
  bool force_reliable = false;

  /// Whether the ack/retry reliability layer is active.
  bool reliable_transport() const {
    return loss_rate > 0.0 || force_reliable;
  }
};

}  // namespace cbps::chord
