// A Chord node: finger/successor routing state, the location cache, and
// the membership and maintenance protocols.
//
// The application data plane (routing, m-cast, chain-cast, neighbor
// sends, ack/retry) is the shared overlay::DataPlane; this class supplies
// its routing hooks. All inter-node communication goes through
// ChordNetwork::transmit, which applies liveness, partitions and the
// shared wire's latency, loss and hop accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cbps/chord/config.hpp"
#include "cbps/chord/finger_table.hpp"
#include "cbps/chord/location_cache.hpp"
#include "cbps/chord/wire.hpp"
#include "cbps/overlay/data_plane.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::chord {

class ChordNetwork;
struct Peer;

class ChordNode final : public overlay::DataPlane<WireMessage> {
 public:
  /// `peer` is this node's record in `net`, created with it by
  /// ChordNetwork; its wire sender carries the node's scheduling domain.
  /// Every self-owned event the node schedules (retransmit timers,
  /// maintenance) is keyed by that domain.
  ChordNode(ChordNetwork& net, Peer& peer, Key id, std::string name);

  // --- overlay::OverlayNode -------------------------------------------
  Key successor_id() const override {
    return succs_.empty() ? id_ : succs_.front();
  }
  Key predecessor_id() const override { return has_pred_ ? pred_ : id_; }

  // --- introspection ---------------------------------------------------
  std::optional<Key> predecessor() const {
    return has_pred_ ? std::optional<Key>(pred_) : std::nullopt;
  }
  const std::vector<Key>& successor_list() const { return succs_; }
  const FingerTable& finger_table() const { return fingers_; }

  /// m-cast delegation candidates: the distinct finger nodes plus the
  /// successor, by ring distance from this node. Cached; rebuilt when
  /// the finger table or the successor changed since the last call.
  const std::vector<Key>& mcast_candidates() override;
  const LocationCache& location_cache() const { return cache_; }

  // --- ring membership (driven by ChordNetwork) ------------------------
  /// Install exact routing state (static topology construction).
  void install_state(std::optional<Key> pred, std::vector<Key> succs,
                     std::vector<Key> finger_nodes);

  /// Start the dynamic join protocol via a bootstrap node.
  void begin_join(Key bootstrap);

  /// Hand state to the successor, tell neighbors, and go offline.
  void leave_gracefully();

  /// Abrupt crash: stop maintenance, drop pending sends, and refuse to
  /// run any still-scheduled callback (self-deliveries, join retries) —
  /// a dead process executes nothing.
  void go_offline();

  /// Enable/disable the periodic stabilize/fix-fingers/check-pred loop.
  void start_maintenance();
  void stop_maintenance();

  /// Clamp for the adaptive retransmission timeout.
  static constexpr sim::SimTime kRtoMin = sim::ms(100);
  static constexpr sim::SimTime kRtoMax = sim::sec(30);

  /// Current retransmission timeout toward `peer`: the Jacobson
  /// SRTT + 4*RTTVAR estimate, clamped to [kRtoMin, kRtoMax], once a
  /// clean RTT sample exists; the configured retry_base before that
  /// (introspection for tests).
  sim::SimTime current_rto(Key peer) const {
    const overlay::RttEstimate* rtt = rtt_estimate(peer);
    return retry_timeout(rtt != nullptr ? *rtt : overlay::RttEstimate{});
  }

  /// Peers evicted as unreachable, kept for post-partition re-merge
  /// probing (introspection for tests).
  std::vector<Key> remembered_contacts() const {
    return {remembered_.begin(), remembered_.end()};
  }

  /// Entry point for messages arriving from the network.
  void receive(Envelope&& env);

 private:
  const ChordConfig& config() const;

  // --- overlay::DataPlane hooks ------------------------------------------
  bool wire_transmit(Key to, WireMessage&& msg,
                     overlay::MessageClass cls) override;
  /// Evict `peer` from fingers, successors, predecessor and the location
  /// cache, and remember it for post-partition re-merge probing.
  void on_peer_dead(Key peer) override;
  /// A graceful-leave handover whose successor died goes to the next
  /// live successor.
  void reroute(WireMessage msg) override;
  /// Jacobson/Karn: SRTT + 4*RTTVAR toward the peer once a clean RTT
  /// sample exists, instead of the fixed retry_base.
  sim::SimTime retry_timeout(const overlay::RttEstimate& rtt) const override;
  /// Owner feedback: tell the route's origin who covers its key.
  void on_route_delivered(const overlay::RouteMsg& msg) override;

  /// Best next hop toward `key` among successors, fingers, predecessor
  /// and the location cache; nullopt when this node covers `key` or has
  /// no live candidate. Not const: a location-cache hit refreshes the
  /// entry's LRU position.
  std::optional<Key> next_hop(Key key) override;
  std::optional<Key> closest_preceding(Key key) const;

  // Membership message handlers.
  void handle_find_successor(FindSuccessorReq msg);
  void handle_find_successor_reply(const FindSuccessorReply& msg);
  void handle_get_neighbors(const GetNeighborsReq& msg);
  void handle_get_neighbors_reply(const GetNeighborsReply& msg, Key from);
  void handle_notify_pred(Key candidate);
  void handle_pull_state(const PullStateReq& msg);
  void handle_pred_leave(const PredLeaveMsg& msg, Key from);
  void handle_succ_leave(const SuccLeaveMsg& msg, Key from);

  // Maintenance.
  void maintenance_tick();
  void stabilize();
  void fix_fingers();
  void check_predecessor();
  void adopt_predecessor(Key candidate);
  void set_successor_front(Key s);

  // The network's transmit reads the sender's record through peer_.
  friend class ChordNetwork;

  ChordNetwork& net_;
  Peer& peer_;

  bool has_pred_ = false;
  Key pred_ = 0;
  std::vector<Key> succs_;  // nearest first; never contains id_
  FingerTable fingers_;
  LocationCache cache_;

  // mcast_candidates() cache and the state it was built from.
  std::vector<Key> candidates_;
  bool candidates_valid_ = false;
  std::uint64_t candidates_finger_version_ = 0;
  std::optional<Key> candidates_succ_;

  bool joining_ = false;
  Key join_bootstrap_ = 0;
  sim::Simulator::TimerId maintenance_timer_ = 0;

  // fix_fingers bookkeeping: req_id -> finger index.
  std::uint64_t next_req_id_ = 1;
  std::unordered_map<std::uint64_t, std::size_t> pending_finger_fixes_;
  static constexpr std::uint64_t kJoinReqId = ~std::uint64_t{0};

  // Peers this node evicted as unreachable. During a partition the far
  // side of the cut accumulates here; after heal, maintenance probes
  // each remembered contact (GetNeighborsReq) so the split rings find
  // each other again and stabilization re-merges them. Bounded; an
  // entry leaves when any envelope arrives from that peer.
  static constexpr std::size_t kMaxRemembered = 16;
  void remember_contact(Key peer);
  void probe_remembered();
  std::unordered_set<Key> remembered_;
};

}  // namespace cbps::chord

namespace cbps::overlay {
extern template class DataPlane<chord::WireMessage>;
}  // namespace cbps::overlay
