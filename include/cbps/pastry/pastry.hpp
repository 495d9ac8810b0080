// A Pastry-style prefix-routing overlay (Rowstron & Druschel,
// Middleware '01) implementing the same overlay::OverlayNode interface
// as the Chord substrate.
//
// The paper claims its architecture "can use any overlay routing scheme"
// (§3.1 footnote 1); this module demonstrates that portability: the
// whole CB-pub/sub layer runs unchanged on top of prefix routing.
//
// Design notes:
//  - Node identifiers live on the same 2^m ring; a node covers
//    (predecessor, id], the successor convention the pub/sub layer
//    assumes, with the predecessor taken from the leaf set.
//  - The routing table has one row per identifier bit: row i points to a
//    node that shares the top i bits with this node and differs at bit
//    i (binary Plaxton routing, O(log N) hops).
//  - The leaf set holds the nearest ring neighbors on both sides and
//    finishes every route.
//  - m-cast reuses the shared Figure-4 segment partitioning, with
//    routing-table + leaf nodes as delegation candidates — every node
//    still receives the multicast at most once.
//  - The network supports statically built topologies (the membership
//    dynamics of the paper's evaluation run on Chord).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "cbps/common/ring.hpp"
#include "cbps/metrics/registry.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/node.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::pastry {

struct PastryConfig {
  RingParams ring{13};
  /// Leaf-set entries per side.
  std::size_t leaf_set_size = 4;
  std::uint32_t max_route_hops = 512;

  /// Fault injection + ack/retry reliability, mirroring ChordConfig:
  /// a non-zero loss rate drops transmissions uniformly at random and
  /// arms hop-by-hop acks for application traffic; 0 disables both.
  double loss_rate = 0.0;
  std::uint32_t max_retries = 5;
  sim::SimTime retry_base = sim::ms(250);
  bool reliable_transport() const { return loss_rate > 0.0; }
};

// Wire messages (static topology: application traffic only).
struct RouteMsg {
  Key target = 0;
  overlay::PayloadPtr payload;
  std::uint32_t hops = 0;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the previous hop
};
struct McastMsg {
  std::vector<KeyRange> targets;  // in ring order from the sender
  overlay::PayloadPtr payload;
  std::uint32_t hops = 0;
  std::uint64_t seq = 0;
  std::uint64_t parent_span = 0;  // trace: span of the delegating split
};
struct ChainMsg {
  std::vector<Key> targets;
  overlay::PayloadPtr payload;
  std::uint32_t hops = 0;
  std::uint64_t seq = 0;
  std::uint64_t parent_span = 0;  // trace: span of the previous hop
};
struct NeighborMsg {
  overlay::PayloadPtr payload;
  std::uint64_t seq = 0;
};
/// Hop-level acknowledgment; field deliberately not named `seq` so acks
/// are never themselves ack-eligible.
struct AckMsg {
  std::uint64_t acked_seq = 0;
};
using WireMessage =
    std::variant<RouteMsg, McastMsg, ChainMsg, NeighborMsg, AckMsg>;

/// Pointer to the reliability sequence field of ack-eligible messages,
/// nullptr for AckMsg.
inline std::uint64_t* seq_field(WireMessage& msg) {
  return std::visit(
      [](auto& m) -> std::uint64_t* {
        if constexpr (requires { m.seq; }) {
          return &m.seq;
        } else {
          return nullptr;
        }
      },
      msg);
}

inline const std::uint64_t* seq_field(const WireMessage& msg) {
  return seq_field(const_cast<WireMessage&>(msg));
}

class PastryNetwork;

class PastryNode final : public overlay::OverlayNode {
 public:
  /// `domain` is this node's scheduling domain, registered with the
  /// engine by PastryNetwork (see ChordNode for the contract).
  PastryNode(PastryNetwork& net, Key id, std::string name,
             common::Domain domain);

  PastryNode(const PastryNode&) = delete;
  PastryNode& operator=(const PastryNode&) = delete;

  // --- overlay::OverlayNode --------------------------------------------
  Key id() const override { return id_; }
  RingParams ring() const override;
  void send(Key key, overlay::PayloadPtr payload) override;
  void m_cast_runs(std::vector<KeyRange> runs,
                   overlay::PayloadPtr payload) override;
  void chain_cast(std::vector<Key> keys,
                  overlay::PayloadPtr payload) override;
  void send_to_successor(overlay::PayloadPtr payload) override;
  void send_to_predecessor(overlay::PayloadPtr payload) override;
  Key successor_id() const override;
  Key predecessor_id() const override;
  void set_app(overlay::OverlayApp* app) override { app_ = app; }

  // --- introspection ------------------------------------------------------
  const std::string& name() const { return name_; }
  common::Domain domain() const override { return domain_; }
  bool covers(Key k) const;
  const std::vector<std::optional<Key>>& routing_table() const {
    return table_;
  }
  const std::vector<Key>& leaf_predecessors() const { return leaf_pred_; }
  const std::vector<Key>& leaf_successors() const { return leaf_succ_; }

  /// Install exact state (static topology construction). Leaves are
  /// nearest-first; table entry i shares i top bits and differs at bit i.
  void install_state(std::vector<Key> leaf_pred, std::vector<Key> leaf_succ,
                     std::vector<std::optional<Key>> table);

  void receive(Key from, WireMessage msg);

  /// Drop the pending-send (ack/retry) table and cancel its timers.
  void cancel_pending_sends();
  std::size_t pending_send_count() const { return pending_sends_.size(); }

 private:
  const PastryConfig& config() const;
  bool transmit(Key to, WireMessage msg, overlay::MessageClass cls);
  bool transmit_reliable(Key to, WireMessage msg,
                         overlay::MessageClass cls);
  void retransmit(std::uint64_t seq);
  void handle_ack(std::uint64_t acked_seq);

  /// Next hop toward `key`: leaf set if in range, else prefix routing,
  /// else the closest preceding known node (guaranteed progress).
  std::optional<Key> next_hop(Key key) const;
  /// Number of leading bits `key` shares with this node's id.
  unsigned shared_prefix_bits(Key key) const;
  std::vector<Key> known_nodes_by_distance() const;

  void handle_route(RouteMsg msg);
  void deliver_route(const RouteMsg& msg);
  void run_mcast(const std::vector<KeyRange>& runs,
                 const overlay::PayloadPtr& payload, std::uint32_t hops,
                 bool initiator, std::uint64_t parent_span = 0);
  void run_chain(std::vector<Key> keys, const overlay::PayloadPtr& payload,
                 std::uint32_t hops, bool initiator,
                 std::uint64_t parent_span = 0);
  void forward_chain(ChainMsg msg);

  PastryNetwork& net_;
  Key id_;
  std::string name_;
  common::Domain domain_ = common::kGlobalDomain;
  overlay::OverlayApp* app_ = nullptr;

  std::vector<Key> leaf_pred_;  // nearest first (counter-clockwise)
  std::vector<Key> leaf_succ_;  // nearest first (clockwise)
  std::vector<std::optional<Key>> table_;  // one row per identifier bit

  // Ack/retry reliability layer, mirroring ChordNode.
  struct PendingSend {
    Key to = 0;
    WireMessage msg;
    overlay::MessageClass cls = overlay::MessageClass::kControl;
    std::uint32_t retries = 0;
    sim::SimTime timeout = 0;
    sim::Simulator::EventId timer = sim::Simulator::kInvalidEvent;
  };
  std::unordered_map<std::uint64_t, PendingSend> pending_sends_;
  std::uint64_t next_send_seq_ = 1;
  std::unordered_map<Key, std::unordered_set<std::uint64_t>> seen_seqs_;
};

/// Simulation container: owns the nodes, the wire and a routing oracle.
class PastryNetwork {
 public:
  PastryNetwork(sim::SimulatorBase& sim, PastryConfig cfg,
                std::uint64_t seed,
                std::unique_ptr<sim::LatencyModel> latency = nullptr);
  ~PastryNetwork();

  PastryNetwork(const PastryNetwork&) = delete;
  PastryNetwork& operator=(const PastryNetwork&) = delete;

  PastryNode& add_node(const std::string& name);
  PastryNode& add_node_with_id(Key id, std::string name);

  /// Build exact leaf sets and routing tables for all nodes.
  void build_static_ring();

  PastryNode* node(Key id);
  std::size_t node_count() const { return nodes_.size(); }
  std::vector<Key> ids() const { return ids_; }
  /// Node by dense index, in id order. O(1): ids are a sorted vector.
  PastryNode& node_at(std::size_t i);
  Key oracle_successor(Key key) const;

  bool transmit(Key from, Key to, WireMessage msg,
                overlay::MessageClass cls);
  void self_deliver(std::function<void()> action);

  sim::SimulatorBase& sim() { return sim_; }
  overlay::TrafficStats& traffic() { return traffic_; }
  metrics::Registry& registry() { return registry_; }
  const PastryConfig& config() const { return cfg_; }
  RingParams ring() const { return cfg_.ring; }

  /// Install a per-run trace sink (nullptr = tracing off, the default).
  void set_trace_sink(metrics::TraceSink* sink) { trace_sink_ = sink; }
  metrics::TraceSink* trace_sink() const { return trace_sink_; }

  /// Pre-resolved registry handles for per-message hot paths (mirrors
  /// ChordNetwork::HotStats).
  struct HotStats {
    explicit HotStats(metrics::Registry& reg);

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
    std::array<metrics::Counter*, overlay::kMessageClassCount>
        net_lost_by_class;
    metrics::Histogram* route_hops;
    metrics::Histogram* mcast_fanout;
    metrics::Histogram* retries_per_send;
  };
  HotStats& hot() { return hot_; }

 private:
  // Per-sender wire state (domain + dedicated latency/loss streams +
  // loss-channel clone); see ChordNetwork::WireState for the rationale.
  struct WireState {
    common::Domain domain = common::kGlobalDomain;
    Rng latency_rng;
    Rng loss_rng;
    std::unique_ptr<sim::LossModel> loss;  // null = lossless channel
  };

  sim::SimulatorBase& sim_;
  PastryConfig cfg_;
  std::uint64_t seed_;
  Rng rng_;
  std::unique_ptr<sim::LatencyModel> latency_;
  std::unique_ptr<sim::LossModel> loss_;  // prototype; null = lossless
  std::unordered_map<Key, WireState> wire_;
  overlay::TrafficStats traffic_;
  metrics::Registry registry_;
  HotStats hot_{registry_};
  metrics::TraceSink* trace_sink_ = nullptr;
  std::map<Key, std::unique_ptr<PastryNode>> nodes_;
  std::vector<Key> ids_;  // sorted
};

}  // namespace cbps::pastry
