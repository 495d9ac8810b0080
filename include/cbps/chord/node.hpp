// A Chord node: the overlay::OverlayNode the pub/sub layer runs on.
//
// It holds the finger/successor routing state and the location cache,
// runs the membership and maintenance protocols, and carries the
// application data plane: unicast routing (send → forward/deliver), the
// Figure 4 m-cast driver, chain_cast, neighbor sends, and the hop-by-hop
// ack/retry/dedup layer, with their trace spans and counters. The
// membership protocol lives in node.cpp, the data plane in
// data_plane.cpp. All inter-node communication goes through
// ChordNetwork::transmit, which applies liveness, partitions and the
// wire's latency, loss and hop accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cbps/chord/config.hpp"
#include "cbps/chord/finger_table.hpp"
#include "cbps/chord/location_cache.hpp"
#include "cbps/chord/wire.hpp"
#include "cbps/common/flat_id_map.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/link.hpp"
#include "cbps/overlay/mcast_partition.hpp"
#include "cbps/overlay/node.hpp"
#include "cbps/overlay/wire.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::chord {

class ChordNetwork;
struct Peer;

class ChordNode final : public overlay::OverlayNode {
 public:
  /// `peer` is this node's record in `net`, created with it by
  /// ChordNetwork; its wire sender carries the node's scheduling domain.
  /// Every self-owned event the node schedules (retransmit timers,
  /// maintenance) is keyed by that domain.
  ChordNode(ChordNetwork& net, Peer& peer, Key id, std::string name);

  ChordNode(const ChordNode&) = delete;
  ChordNode& operator=(const ChordNode&) = delete;

  // --- overlay::OverlayNode -------------------------------------------
  Key id() const override { return id_; }
  RingParams ring() const override { return wire_.ring(); }
  common::Domain domain() const override { return sender_.domain; }
  void set_app(overlay::OverlayApp* app) override { app_ = app; }
  void send(Key key, overlay::PayloadPtr payload) override;
  void m_cast_runs(std::vector<KeyRange> runs,
                   overlay::PayloadPtr payload) override;
  void chain_cast(std::vector<Key> keys, overlay::PayloadPtr payload) override;
  void send_to_successor(overlay::PayloadPtr payload) override;
  void send_to_predecessor(overlay::PayloadPtr payload) override;
  Key successor_id() const override {
    return succs_.empty() ? id_ : succs_.front();
  }
  Key predecessor_id() const override { return has_pred_ ? pred_ : id_; }

  // --- introspection ---------------------------------------------------
  const std::string& name() const { return name_; }

  /// Whether this node covers key `k`, i.e. k in (predecessor, id]. A
  /// node with no known predecessor accepts everything routed to it
  /// (routing is then authoritative).
  bool covers(Key k) const {
    return ring().in_open_closed(predecessor_id(), id_, k);
  }

  /// A crashed node runs nothing: no deliveries, no forwarding.
  bool offline() const { return offline_; }

  std::optional<Key> predecessor() const {
    return has_pred_ ? std::optional<Key>(pred_) : std::nullopt;
  }
  const std::vector<Key>& successor_list() const { return succs_; }
  const FingerTable& finger_table() const { return fingers_; }

  /// m-cast delegation candidates: the distinct finger nodes plus the
  /// successor, by ring distance from this node. Cached; rebuilt when
  /// the finger table or the successor changed since the last call.
  const std::vector<Key>& mcast_candidates();
  const LocationCache& location_cache() const { return cache_; }

  /// Reliable sends awaiting acknowledgment (introspection for tests).
  std::size_t pending_send_count() const {
    std::size_t n = 0;
    for (const Link& l : reliability_->links) n += l.pending.size();
    return n;
  }

  /// Sequence ids this node remembers for duplicate suppression: the
  /// holes below each link's highest received id (introspection for
  /// tests).
  std::size_t dedup_state_size() const {
    std::size_t n = 0;
    for (const Link& l : reliability_->links) n += l.seen.holes();
    return n;
  }

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

  /// Drop the pending-send (ack/retry) table and cancel its timers.
  /// Called when this node goes offline; retransmitting from a dead
  /// node would be physically wrong.
  void cancel_pending_sends();

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
    const std::uint32_t i = reliability_->index.find(peer);
    return retry_timeout(i == FlatIdMap::kNone ? overlay::RttEstimate{}
                                               : reliability_->links[i].rtt);
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
  overlay::Wire::Stats& stats() { return wire_.stats(); }

  // --- routing state ------------------------------------------------------
  /// Evict `peer` from fingers, successors, predecessor and the location
  /// cache, and remember it for post-partition re-merge probing.
  void on_peer_dead(Key peer);
  /// First retransmission timeout toward a peer: Jacobson/Karn
  /// SRTT + 4*RTTVAR once `rtt` holds a clean sample, the configured
  /// retry_base before.
  sim::SimTime retry_timeout(const overlay::RttEstimate& rtt) const;

  /// Best next hop toward `key` among successors, fingers, predecessor
  /// and the location cache; nullopt when this node covers `key` or has
  /// no live candidate. Not const: a location-cache hit refreshes the
  /// entry's LRU position.
  std::optional<Key> next_hop(Key key);
  std::optional<Key> closest_preceding(Key key) const;

  // --- data plane (data_plane.cpp) ----------------------------------------
  /// Send `msg` to `to`, through the ack/retry layer when it is armed
  /// and the message is ack-eligible. Returns false (after on_peer_dead)
  /// when the peer is unreachable.
  bool transmit(Key to, WireMessage msg, overlay::MessageClass cls);
  bool transmit_reliable(Key to, WireMessage msg, overlay::MessageClass cls);
  void retransmit(std::uint32_t link, std::uint64_t seq);
  /// Position of `peer`'s link record, created on first use. Positions
  /// are stable; references are not (a new link may move the others).
  std::uint32_t link_of(Key peer);

  /// Receive side of the reliability layer: ack a seq-stamped arrival
  /// and report whether it is new. A retransmit whose earlier copy was
  /// already processed is re-acked (its ack was lost) and dropped.
  bool ack_and_dedup(Key from, const WireMessage& msg);

  /// Handlers for arriving application messages.
  void handle_data(overlay::RouteMsg msg);
  void handle_data(const overlay::McastMsg& msg);
  void handle_data(overlay::ChainMsg msg);
  void handle_data(const overlay::NeighborMsg& msg);
  /// An ack from `from`: it retires the send with that id on our link to
  /// `from`.
  void handle_data(Key from, const overlay::AckMsg& msg);

  /// A route reached its owner here: count its hops, send the origin
  /// owner feedback, and make the application upcall.
  void deliver_route(const overlay::RouteMsg& msg);
  void forward_route(overlay::RouteMsg msg);
  void run_mcast(std::span<const KeyRange> runs,
                 const overlay::PayloadPtr& payload, std::uint32_t hops,
                 bool initiator, std::uint64_t parent_span = 0);
  /// The initiator's asynchronous local m-cast upcall.
  void deliver_mcast_local(const RunList& local,
                           const overlay::PayloadPtr& payload);
  void run_chain(std::vector<Key> keys, const overlay::PayloadPtr& payload,
                 std::uint32_t hops, bool initiator,
                 std::uint64_t parent_span = 0);
  void forward_chain(overlay::ChainMsg msg);
  void deliver_to_self(overlay::PayloadPtr payload);

  /// Record a zero-length span of `kind` at this node now. Returns its
  /// id, 0 when tracing is off or `t` is unsampled.
  std::uint64_t span(const metrics::TraceRef& t, metrics::SpanKind kind,
                     std::uint64_t a = 0, std::uint64_t b = 0);
  void drop_span(const metrics::TraceRef& t, metrics::DropReason why,
                 std::uint64_t b) {
    span(t, metrics::SpanKind::kDrop, static_cast<std::uint64_t>(why), b);
  }

  // --- membership protocol (node.cpp) -------------------------------------
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

  overlay::Wire& wire_;
  const Key id_;
  overlay::OverlayApp* app_ = nullptr;
  bool offline_ = false;
  std::string name_;
  // This node's wire streams and scheduling domain: the network draws
  // every transmission from here, with no lookup by id.
  overlay::Wire::Sender& sender_;

  // The buffers an m-cast hop works in: the partition and the local keys
  // handed to the application. One set per thread, reused by every hop
  // that thread runs, so a steady-state hop allocates nothing. A hop
  // moves the set out while it works and back before its retry; an
  // m-cast that starts meanwhile (issued from the application upcall, or
  // the retry itself) finds the slot empty and grows buffers of its own.
  // Buffer contents never outlive the hop that wrote them.
  struct McastScratch {
    overlay::McastRunPartition part;
    std::vector<Key> covered;
  };
  static McastScratch& mcast_scratch() {
    thread_local McastScratch scratch;
    return scratch;
  }

  // Ack/retry reliability layer (armed only when Limits::reliable): one
  // link record per peer this node has exchanged reliable traffic with.
  // Sequence ids count per (sender, receiver) link, so a receiver sees
  // 1, 2, 3, … from each sender. Each reliable send is parked on its
  // link until the hop-level ack arrives or the retry budget is
  // exhausted.
  struct PendingSend {
    std::uint64_t seq = 0;
    WireMessage msg;             // retransmission copy (payload shared)
    overlay::MessageClass cls = overlay::MessageClass::kControl;
    std::uint32_t retries = 0;   // retransmissions performed so far
    sim::SimTime timeout = 0;    // current backoff; doubles per retry
    sim::SimTime sent_at = 0;    // original transmission time (RTT)
    sim::Simulator::EventId timer = sim::Simulator::kInvalidEvent;
  };
  struct Link {
    Key peer = 0;
    // Outbound: the id of the next send to `peer`, the sends it has not
    // acked (ascending by id: ids only grow), and its round trip.
    std::uint64_t next_seq = 1;
    std::vector<PendingSend> pending;
    overlay::RttEstimate rtt;
    // Inbound: the ids that arrived from `peer`.
    overlay::SeqWindow seen;

    /// The pending send with id `seq`, or pending.end().
    std::vector<PendingSend>::iterator find_pending(std::uint64_t seq);
  };
  struct Reliability {
    FlatIdMap index;          // peer -> position in `links`
    std::vector<Link> links;  // in creation order; never removed
  };
  // Held out of line: lossless runs never touch it, and keeping it off
  // the node's first cache lines keeps the routing state each hop reads
  // compact.
  std::unique_ptr<Reliability> reliability_ = std::make_unique<Reliability>();

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
