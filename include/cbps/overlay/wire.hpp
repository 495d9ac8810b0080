// The application wire of the overlay: the messages a node's data plane
// exchanges (unicast routes, m-cast segments, chain walks, neighbor
// sends and their hop-level acks), their wire-size rule, and the
// per-network Wire that draws every transmission's loss and latency
// from the sender's own streams and accounts its hops and bytes.
//
// Chord's wire variant (chord/wire.hpp) lists these five structs first
// and adds its membership messages after them.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "cbps/common/key_range.hpp"
#include "cbps/common/ring.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/common/types.hpp"
#include "cbps/metrics/registry.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::overlay {

/// Application unicast being routed to the node covering `target`
/// (paper's send(m, k)).
struct RouteMsg {
  Key target = 0;
  PayloadPtr payload;
  std::uint32_t hops = 0;  // transmissions so far
  Key origin = 0;          // node that issued the send()
  std::uint64_t seq = 0;   // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the previous hop
};

/// Native multicast (paper §4.3.1, Figure 4). `targets` is the part of
/// the original key runs delegated to the recipient, in ring order from
/// the delegating sender (one run inline, so a one-run branch and its
/// retransmission copies never allocate).
struct McastMsg {
  RunList targets;
  PayloadPtr payload;
  std::uint32_t hops = 0;  // delegation depth guard
  std::uint64_t seq = 0;   // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the delegating split
};

/// Conservative unicast-based one-to-many baseline: the remaining keys
/// are visited in ring order, hopping successor-by-successor.
struct ChainMsg {
  std::vector<Key> targets;  // sorted in ring order from targets.front()
  PayloadPtr payload;
  std::uint32_t hops = 0;
  std::uint64_t seq = 0;     // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the previous hop
};

/// Direct one-hop application message to a ring neighbor (§4.3.2
/// collecting uses these).
struct NeighborMsg {
  PayloadPtr payload;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Hop-level acknowledgment of a reliable message. The field is
/// deliberately not named `seq` so acks never look like ack-requesting
/// traffic themselves.
struct AckMsg {
  std::uint64_t acked_seq = 0;
};

/// Whether `T` is one of the five application messages above.
template <class T>
inline constexpr bool is_data_message_v =
    std::is_same_v<T, RouteMsg> || std::is_same_v<T, McastMsg> ||
    std::is_same_v<T, ChainMsg> || std::is_same_v<T, NeighborMsg> ||
    std::is_same_v<T, AckMsg>;

/// Approximate wire size of an application message: the payload plus
/// 8 bytes per carried key (an m-cast message is charged for every key
/// its runs cover). An ack is a small fixed-size control message.
template <class M>
  requires is_data_message_v<M>
std::size_t wire_size_bytes(RingParams ring, const M& m) {
  if constexpr (std::is_same_v<M, RouteMsg>) {
    return m.payload->size_bytes() + 8;
  } else if constexpr (std::is_same_v<M, McastMsg>) {
    return m.payload->size_bytes() + 8 * key_count(ring, m.targets);
  } else if constexpr (std::is_same_v<M, ChainMsg>) {
    return m.payload->size_bytes() + 8 * m.targets.size();
  } else if constexpr (std::is_same_v<M, NeighborMsg>) {
    return m.payload->size_bytes();
  } else {
    return 16;
  }
}

/// One network's wire: the simulator, the traffic and metric sinks, the
/// data-plane limits every node of the network obeys, and the
/// per-sender transmission state.
///
/// Every node draws its latency and loss decisions from its own RNG
/// streams (seeded from the run seed and the node id) and owns a clone
/// of the loss-model prototype. This makes every wire draw a pure
/// function of the sender's own transmission history: another node's
/// traffic never moves it.
class Wire {
 public:
  /// Data-plane limits, fixed from the overlay's configuration.
  struct Limits {
    RingParams ring;
    std::uint32_t max_route_hops = 0;  // routes and chains drop beyond
    bool reliable = false;             // ack/retry layer armed
    std::uint32_t max_retries = 0;     // retransmissions per reliable send
    sim::SimTime retry_base = 0;       // default first retry timeout
  };

  /// Registry handles resolved once at construction so per-message code
  /// never does a std::map string lookup. Names are `chord.<stat>`.
  struct Stats {
    explicit Stats(metrics::Registry& reg);

    metrics::Counter* send_to_dead;
    metrics::Counter* retransmits;
    metrics::Counter* send_failed;
    metrics::Counter* dup_suppressed;
    metrics::Counter* route_dropped;
    metrics::Counter* route_no_candidate;
    metrics::Counter* mcast_dropped_keys;
    metrics::Counter* chain_dropped;
    metrics::Counter* chain_no_candidate;
    metrics::Counter* net_lost;
    std::array<metrics::Counter*, kMessageClassCount> net_lost_by_class;
    // Hops of completed app routes, branches per m-cast split and
    // retransmits per reliable send.
    metrics::Histogram* route_hops;
    metrics::Histogram* mcast_fanout;
    metrics::Histogram* retries_per_send;
  };

  /// A `loss_rate` > 0 installs a uniform loss prototype; `latency`
  /// defaults to sim::default_latency().
  Wire(sim::Simulator& sim, Limits limits, std::uint64_t seed,
       double loss_rate, std::unique_ptr<sim::LatencyModel> latency);

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// One node's transmission state: its scheduling domain and the
  /// latency and loss streams every one of its sends draws from. A node
  /// holds its own Sender (chord::Peer::sender), so a send looks nothing
  /// up by id.
  struct Sender {
    common::Domain domain = common::kGlobalDomain;
    Rng latency_rng;
    Rng loss_rng;
    std::unique_ptr<sim::LossModel> loss;  // null = lossless channel
  };

  /// Register sender `id`: a scheduling domain of its own plus latency
  /// and loss streams that depend only on (run seed, id), never on
  /// registration order or engine choice. The reference stays valid for
  /// the wire's lifetime.
  Sender& add_sender(Key id);

  /// Put one transmission from `from` on the wire: account a hop and
  /// `bytes` of class `cls`, then draw the sender's loss channel and
  /// latency. Returns the delivery delay, or nullopt when the message is
  /// lost in flight (it hit the wire but never arrives).
  std::optional<sim::SimTime> send(Sender& from, MessageClass cls,
                                   std::size_t bytes);

  /// Swap the in-flight loss model (nullptr = lossless). The model is a
  /// prototype: every sender gets a fresh clone as its own channel.
  void set_loss_model(std::unique_ptr<sim::LossModel> model);
  sim::LossModel* loss_model() { return loss_.get(); }

  /// Schedule a zero-latency local action (self-deliveries are
  /// asynchronous but free).
  void self_deliver(sim::Simulator::Callback action) {
    sim_.schedule_after(0, std::move(action));
  }

  sim::Simulator& sim() { return sim_; }
  const Limits& limits() const { return limits_; }
  RingParams ring() const { return limits_.ring; }
  TrafficStats& traffic() { return traffic_; }
  const TrafficStats& traffic() const { return traffic_; }
  metrics::Registry& registry() { return registry_; }
  Stats& stats() { return stats_; }

  /// Per-run trace sink (nullptr = tracing off, the default). Not owned;
  /// must outlive the wire.
  void set_trace_sink(metrics::TraceSink* sink) { trace_sink_ = sink; }
  metrics::TraceSink* trace_sink() const { return trace_sink_; }

 private:
  sim::Simulator& sim_;
  Limits limits_;
  std::uint64_t seed_;
  std::unique_ptr<sim::LatencyModel> latency_;
  std::unique_ptr<sim::LossModel> loss_;  // prototype; null = lossless
  std::deque<Sender> senders_;  // registration order; stable addresses
  TrafficStats traffic_;
  metrics::Registry registry_;
  Stats stats_;
  metrics::TraceSink* trace_sink_ = nullptr;
};

}  // namespace cbps::overlay
