// A Pastry-style prefix-routing overlay (Rowstron & Druschel,
// Middleware '01) implementing the same overlay::OverlayNode interface
// as the Chord substrate.
//
// The paper claims its architecture "can use any overlay routing scheme"
// (§3.1 footnote 1); this module demonstrates that portability: the
// whole CB-pub/sub layer runs unchanged on top of prefix routing.
//
// Only the routing state is Pastry's own. The application data plane —
// routing, the Figure 4 m-cast, chain-cast, neighbor sends and the
// ack/retry layer — is the shared overlay::DataPlane, and the wire is the
// shared overlay::Wire, exactly as under Chord.
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
//  - m-cast delegates to routing-table + leaf nodes — every node still
//    receives the multicast at most once.
//  - The network supports statically built topologies only (the
//    membership dynamics of the paper's evaluation run on Chord), so
//    every peer is always alive and a transmit never fails.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbps/common/ring.hpp"
#include "cbps/overlay/data_plane.hpp"
#include "cbps/overlay/wire.hpp"
#include "cbps/sim/latency.hpp"
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

class PastryNetwork;

class PastryNode final : public overlay::DataPlane<overlay::DataMessage> {
 public:
  /// `sender` is this node's registration with the wire, made by
  /// PastryNetwork; it carries the node's scheduling domain (see
  /// ChordNode for the contract).
  PastryNode(PastryNetwork& net, overlay::Wire::Sender& sender, Key id,
             std::string name);

  // --- overlay::OverlayNode --------------------------------------------
  Key successor_id() const override;
  Key predecessor_id() const override;

  // --- introspection ------------------------------------------------------
  const std::vector<std::optional<Key>>& routing_table() const {
    return table_;
  }
  const std::vector<Key>& leaf_successors() const { return leaf_succ_; }

  /// Install exact state (static topology construction). Leaves are
  /// nearest-first; table entry i shares i top bits and differs at bit i.
  void install_state(std::vector<Key> leaf_pred, std::vector<Key> leaf_succ,
                     std::vector<std::optional<Key>> table);

  void receive(Key from, overlay::DataMessage&& msg);

 private:
  // --- overlay::DataPlane hooks ------------------------------------------
  /// Next hop toward `key`: leaf set if in range, else prefix routing,
  /// else the closest preceding known node (guaranteed progress).
  std::optional<Key> next_hop(Key key) override;
  /// Leaf-set and routing-table nodes by ring distance, built once by
  /// install_state (the topology is static).
  const std::vector<Key>& mcast_candidates() override { return known_; }
  bool wire_transmit(Key to, overlay::DataMessage&& msg,
                     overlay::MessageClass cls) override;
  void on_peer_dead(Key peer) override;

  /// Number of leading bits `key` shares with this node's id.
  unsigned shared_prefix_bits(Key key) const;

  PastryNetwork& net_;
  std::vector<Key> leaf_pred_;  // nearest first (counter-clockwise)
  std::vector<Key> leaf_succ_;  // nearest first (clockwise)
  std::vector<std::optional<Key>> table_;  // one row per identifier bit
  std::vector<Key> known_;  // every known node, by ring distance
};

/// Simulation container: owns the nodes, the wire and a routing oracle.
class PastryNetwork {
 public:
  PastryNetwork(sim::Simulator& sim, PastryConfig cfg,
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

  /// Deliver `msg` from `from` to `to` after one latency sample; false
  /// when `to` is not a node of this network. One id lookup per hop (the
  /// destination); the message rides inside the delivery event.
  bool transmit(PastryNode& from, Key to, overlay::DataMessage&& msg,
                overlay::MessageClass cls);

  overlay::Wire& wire() { return wire_; }
  sim::Simulator& sim() { return wire_.sim(); }
  overlay::TrafficStats& traffic() { return wire_.traffic(); }
  metrics::Registry& registry() { return wire_.registry(); }
  const PastryConfig& config() const { return cfg_; }
  RingParams ring() const { return cfg_.ring; }

  /// Install a per-run trace sink (nullptr = tracing off, the default).
  void set_trace_sink(metrics::TraceSink* sink) { wire_.set_trace_sink(sink); }
  metrics::TraceSink* trace_sink() const { return wire_.trace_sink(); }

 private:
  PastryConfig cfg_;
  overlay::Wire wire_;
  std::unordered_map<Key, std::unique_ptr<PastryNode>> nodes_;
  std::vector<Key> ids_;  // sorted
};

}  // namespace cbps::pastry

namespace cbps::overlay {
extern template class DataPlane<DataMessage>;
}  // namespace cbps::overlay
