// One overlay node's application data plane, written once for every
// overlay: unicast routing (send → forward/deliver), the Figure 4 m-cast
// driver, chain_cast, neighbor sends, and the hop-by-hop ack/retry/dedup
// reliability layer, with their trace spans and counters.
//
// An overlay derives its node from DataPlane<Msg>, where Msg is its wire
// variant (the five overlay::wire.hpp messages plus any membership
// messages of its own — the reliability layer stamps and retransmits
// those too). The overlay keeps only its routing state and reaches the
// shared code through a few hooks: next_hop, the m-cast candidate list,
// the ring neighbors (OverlayNode::successor_id/predecessor_id), the
// network transmit, and the peer-dead/reroute callbacks.
//
// The member definitions live in this header; each overlay instantiates
// its DataPlane once, explicitly, in its node source file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/flat_id_map.hpp"
#include "cbps/common/logging.hpp"
#include "cbps/overlay/link.hpp"
#include "cbps/overlay/mcast_partition.hpp"
#include "cbps/overlay/node.hpp"
#include "cbps/overlay/wire.hpp"

namespace cbps::overlay {

namespace detail {

/// Trace context for the next span at this hop: the payload's sampled
/// trace, re-parented on the previous hop's span when one is carried on
/// the wire message.
inline metrics::TraceRef hop_ref(const PayloadPtr& payload,
                                 std::uint64_t parent_span) {
  metrics::TraceRef t = payload ? payload->trace : metrics::TraceRef{};
  if (parent_span != 0) t.parent_span = parent_span;
  return t;
}

/// Trace context of any wire message (unsampled for payload-free ones).
template <class Msg>
metrics::TraceRef wire_ref(const Msg& msg) {
  return std::visit(
      [](const auto& m) -> metrics::TraceRef {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RouteMsg> ||
                      std::is_same_v<T, McastMsg> ||
                      std::is_same_v<T, ChainMsg>) {
          return hop_ref(m.payload, m.parent_span);
        } else if constexpr (std::is_same_v<T, NeighborMsg>) {
          return m.payload ? m.payload->trace : metrics::TraceRef{};
        } else {
          return {};
        }
      },
      msg);
}

}  // namespace detail

template <class Msg>
class DataPlane : public OverlayNode {
 public:
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  // --- OverlayNode -----------------------------------------------------
  Key id() const final { return id_; }
  RingParams ring() const final { return wire_.ring(); }
  common::Domain domain() const final { return sender_.domain; }
  void set_app(OverlayApp* app) final { app_ = app; }
  void send(Key key, PayloadPtr payload) final;
  void m_cast_runs(std::vector<KeyRange> runs, PayloadPtr payload) final;
  void chain_cast(std::vector<Key> keys, PayloadPtr payload) final;
  void send_to_successor(PayloadPtr payload) final;
  void send_to_predecessor(PayloadPtr payload) final;

  const std::string& name() const { return name_; }

  /// Whether this node covers key `k`, i.e. k in (predecessor, id]. A
  /// node with no known predecessor accepts everything routed to it
  /// (routing is then authoritative).
  bool covers(Key k) const {
    return ring().in_open_closed(predecessor_id(), id_, k);
  }

  /// A crashed node runs nothing: no deliveries, no forwarding.
  bool offline() const { return offline_; }

  /// This node's wire streams and scheduling domain: its network draws
  /// every transmission from here, with no lookup by id.
  Wire::Sender& sender() { return sender_; }

  /// Drop the pending-send (ack/retry) table and cancel its timers.
  /// Called when this node goes offline; retransmitting from a dead
  /// node would be physically wrong.
  void cancel_pending_sends();

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

 protected:
  /// `sender` is this node's registration with the wire
  /// (Wire::add_sender): its latency and loss streams and its scheduling
  /// domain. Every self-owned event the node schedules is keyed by that
  /// domain.
  DataPlane(Wire& wire, Wire::Sender& sender, Key id, std::string name)
      : wire_(wire), id_(id), name_(std::move(name)), sender_(sender) {}

  // --- routing hooks -----------------------------------------------------
  /// Best next hop toward `key`; nullopt when this node covers `key` or
  /// has no live candidate.
  virtual std::optional<Key> next_hop(Key key) = 0;
  /// m-cast delegation candidates, sorted by ring distance from this
  /// node (see partition_mcast_runs).
  virtual const std::vector<Key>& mcast_candidates() = 0;
  /// Hand `msg` to the network; false when `to` is unreachable.
  virtual bool wire_transmit(Key to, Msg&& msg, MessageClass cls) = 0;
  /// `peer` refused a transmission: drop it from the routing state.
  virtual void on_peer_dead(Key peer) = 0;
  /// A reliable send other than a route, m-cast or chain hop lost its
  /// peer (already evicted); the default counts the send as failed.
  virtual void reroute(Msg msg);
  /// First retransmission timeout toward a peer whose round trip is
  /// estimated by `rtt`; the default is the fixed Limits::retry_base.
  virtual sim::SimTime retry_timeout(const RttEstimate& rtt) const;
  /// A route reached its owner here, before the application upcall.
  virtual void on_route_delivered(const RouteMsg& /*msg*/) {}

  /// Send `msg` to `to`, through the ack/retry layer when it is armed
  /// and the message is ack-eligible. Returns false (after on_peer_dead)
  /// when the peer is unreachable.
  bool transmit(Key to, Msg msg, MessageClass cls);

  /// Receive side of the reliability layer: ack a seq-stamped arrival
  /// and report whether it is new. A retransmit whose earlier copy was
  /// already processed is re-acked (its ack was lost) and dropped.
  bool ack_and_dedup(Key from, const Msg& msg);

  /// Round-trip estimate toward `peer`; nullptr before any reliable
  /// traffic with it.
  const RttEstimate* rtt_estimate(Key peer) const {
    const std::uint32_t i = reliability_->index.find(peer);
    return i == FlatIdMap::kNone ? nullptr : &reliability_->links[i].rtt;
  }

  /// Handlers for arriving application messages.
  void handle_data(RouteMsg msg);
  void handle_data(const McastMsg& msg);
  void handle_data(ChainMsg msg);
  void handle_data(const NeighborMsg& msg);
  /// An ack from `from`: it retires the send with that id on our link to
  /// `from`.
  void handle_data(Key from, const AckMsg& msg);

  Wire& wire_;
  const Key id_;
  OverlayApp* app_ = nullptr;
  bool offline_ = false;

 private:
  Wire::Stats& stats() { return wire_.stats(); }
  const Wire::Limits& limits() const { return wire_.limits(); }

  bool transmit_reliable(Key to, Msg msg, MessageClass cls);
  void retransmit(std::uint32_t link, std::uint64_t seq);
  /// Position of `peer`'s link record, created on first use. Positions
  /// are stable; references are not (a new link may move the others).
  std::uint32_t link_of(Key peer);

  void deliver_route(const RouteMsg& msg);
  void forward_route(RouteMsg msg);
  void run_mcast(std::span<const KeyRange> runs, const PayloadPtr& payload,
                 std::uint32_t hops, bool initiator,
                 std::uint64_t parent_span = 0);
  /// The initiator's asynchronous local m-cast upcall.
  void deliver_mcast_local(const RunList& local, const PayloadPtr& payload);
  void run_chain(std::vector<Key> keys, const PayloadPtr& payload,
                 std::uint32_t hops, bool initiator,
                 std::uint64_t parent_span = 0);
  void forward_chain(ChainMsg msg);
  void deliver_to_self(PayloadPtr payload);

  /// Record a zero-length span of `kind` at this node now. Returns its
  /// id, 0 when tracing is off or `t` is unsampled.
  std::uint64_t span(const metrics::TraceRef& t, metrics::SpanKind kind,
                     std::uint64_t a = 0, std::uint64_t b = 0);
  void drop_span(const metrics::TraceRef& t, metrics::DropReason why,
                 std::uint64_t b) {
    span(t, metrics::SpanKind::kDrop, static_cast<std::uint64_t>(why), b);
  }

  // The buffers an m-cast hop works in: the partition and the local keys
  // handed to the application. One set per thread, reused by every hop
  // that thread runs, so a steady-state hop allocates nothing. A hop
  // moves the set out while it works and back before its retry; an
  // m-cast that starts meanwhile (issued from the application upcall, or
  // the retry itself) finds the slot empty and grows buffers of its own.
  // Buffer contents never outlive the hop that wrote them.
  struct McastScratch {
    McastRunPartition part;
    std::vector<Key> covered;
  };
  static McastScratch& mcast_scratch() {
    thread_local McastScratch scratch;
    return scratch;
  }

  std::string name_;
  Wire::Sender& sender_;

  // Ack/retry reliability layer (armed only when Limits::reliable): one
  // link record per peer this node has exchanged reliable traffic with.
  // Sequence ids count per (sender, receiver) link, so a receiver sees
  // 1, 2, 3, … from each sender. Each reliable send is parked on its
  // link until the hop-level ack arrives or the retry budget is
  // exhausted.
  struct PendingSend {
    std::uint64_t seq = 0;
    Msg msg;                     // retransmission copy (payload shared)
    MessageClass cls = MessageClass::kControl;
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
    RttEstimate rtt;
    // Inbound: the ids that arrived from `peer`.
    SeqWindow seen;
  };
  struct Reliability {
    FlatIdMap index;          // peer -> position in `links`
    std::vector<Link> links;  // in creation order; never removed
  };
  // Held out of line: lossless runs never touch it, and keeping it off
  // the node's first cache lines keeps the routing state each hop reads
  // (here and in the derived node) compact.
  std::unique_ptr<Reliability> reliability_ = std::make_unique<Reliability>();
};

// ---------------------------------------------------------------------------
// Transmission and ack/retry reliability
// ---------------------------------------------------------------------------

template <class Msg>
bool DataPlane<Msg>::transmit(Key to, Msg msg, MessageClass cls) {
  CBPS_ASSERT_MSG(to != id_, "self-transmit must be a local delivery");
  if (limits().reliable && seq_field(msg) != nullptr) {
    return transmit_reliable(to, std::move(msg), cls);
  }
  if (!wire_transmit(to, std::move(msg), cls)) {
    stats().send_to_dead->inc();
    on_peer_dead(to);
    return false;
  }
  return true;
}

template <class Msg>
std::uint32_t DataPlane<Msg>::link_of(Key peer) {
  auto& links = reliability_->links;
  const auto [i, added] = reliability_->index.emplace(
      peer, static_cast<std::uint32_t>(links.size()));
  if (added) links.emplace_back().peer = peer;
  return i;
}

template <class Msg>
bool DataPlane<Msg>::transmit_reliable(Key to, Msg msg, MessageClass cls) {
  const std::uint32_t li = link_of(to);
  const std::uint64_t seq = reliability_->links[li].next_seq++;
  *seq_field(msg) = seq;
  if (!wire_transmit(to, Msg(msg), cls)) {
    // Nothing went on the wire, so the peer never sees this id: the next
    // send to it takes the id again rather than leave a hole behind.
    --reliability_->links[li].next_seq;
    stats().send_to_dead->inc();
    on_peer_dead(to);
    return false;
  }
  Link& link = reliability_->links[li];
  PendingSend p;
  p.seq = seq;
  p.cls = cls;
  p.timeout = retry_timeout(link.rtt);
  p.sent_at = wire_.sim().now();
  // Self-owned timer: keyed by this node even when the send was issued
  // from a workload's global-context callback.
  const common::ActorScope as(domain());
  p.timer = wire_.sim().schedule_after(
      p.timeout, [this, li, seq] { retransmit(li, seq); });
  p.msg = std::move(msg);  // retransmission copy; payload ptr is shared
  link.pending.push_back(std::move(p));
  return true;
}

namespace detail {

/// The pending send with id `seq` in an ascending-id list, or its end.
template <class Pending>
auto find_pending(Pending& pending, std::uint64_t seq) {
  const auto it = std::lower_bound(
      pending.begin(), pending.end(), seq,
      [](const auto& p, std::uint64_t s) { return p.seq < s; });
  return it != pending.end() && it->seq == seq ? it : pending.end();
}

}  // namespace detail

template <class Msg>
void DataPlane<Msg>::retransmit(std::uint32_t link, std::uint64_t seq) {
  const Key to = reliability_->links[link].peer;
  auto& pending = reliability_->links[link].pending;
  auto it = detail::find_pending(pending, seq);
  if (it == pending.end()) return;  // acked since the timer fired
  PendingSend& p = *it;
  if (p.retries >= limits().max_retries) {
    stats().send_failed->inc();
    stats().retries_per_send->add(p.retries);
    drop_span(detail::wire_ref(p.msg), metrics::DropReason::kRetryBudget,
              p.retries);
    pending.erase(it);
    return;
  }
  ++p.retries;
  stats().retransmits->inc();
  span(detail::wire_ref(p.msg), metrics::SpanKind::kRetry, p.retries);
  if (wire_transmit(to, Msg(p.msg), p.cls)) {
    p.timeout *= 2;  // exponential backoff
    const common::ActorScope as(domain());
    p.timer = wire_.sim().schedule_after(
        p.timeout, [this, link, seq] { retransmit(link, seq); });
    return;
  }
  // The peer died while we were retrying. Evict it, then re-route the
  // message through a live candidate where the semantics allow it. The
  // seq is reset to 0 so the re-injected copy gets a fresh id (and a
  // fresh pending entry) at its next transmit.
  Msg msg = std::move(p.msg);
  pending.erase(it);
  stats().send_to_dead->inc();
  on_peer_dead(to);
  if (auto* r = std::get_if<RouteMsg>(&msg)) {
    r->seq = 0;
    forward_route(std::move(*r));
  } else if (auto* m = std::get_if<McastMsg>(&msg)) {
    run_mcast(m->targets, m->payload, m->hops, /*initiator=*/false,
              m->parent_span);
  } else if (auto* c = std::get_if<ChainMsg>(&msg)) {
    c->seq = 0;
    forward_chain(std::move(*c));
  } else {
    reroute(std::move(msg));
  }
}

template <class Msg>
void DataPlane<Msg>::reroute(Msg /*msg*/) {
  // The peer the message addressed is gone and no equivalent recipient
  // exists; count the loss.
  stats().send_failed->inc();
}

template <class Msg>
sim::SimTime DataPlane<Msg>::retry_timeout(const RttEstimate& /*rtt*/) const {
  return limits().retry_base;
}

template <class Msg>
void DataPlane<Msg>::handle_data(Key from, const AckMsg& msg) {
  const std::uint32_t li = reliability_->index.find(from);
  if (li == FlatIdMap::kNone) return;
  Link& link = reliability_->links[li];
  const auto it = detail::find_pending(link.pending, msg.acked_seq);
  if (it == link.pending.end()) return;  // late ack of a retransmit
  stats().retries_per_send->add(it->retries);
  // Karn's rule: only never-retransmitted sends yield RTT samples — an
  // ack after a retransmission is ambiguous about which copy it answers.
  if (it->retries == 0) link.rtt.add_sample(wire_.sim().now() - it->sent_at);
  wire_.sim().cancel(it->timer);
  link.pending.erase(it);
}

template <class Msg>
void DataPlane<Msg>::cancel_pending_sends() {
  for (Link& link : reliability_->links) {
    for (PendingSend& p : link.pending) wire_.sim().cancel(p.timer);
    link.pending.clear();
  }
}

template <class Msg>
bool DataPlane<Msg>::ack_and_dedup(Key from, const Msg& msg) {
  const std::uint64_t* seq = seq_field(msg);
  if (seq == nullptr || *seq == 0) return true;
  // The ack goes out unconditionally: a duplicate means our previous ack
  // was lost in flight.
  transmit(from, AckMsg{*seq}, MessageClass::kControl);
  if (reliability_->links[link_of(from)].seen.accept(*seq)) return true;
  stats().dup_suppressed->inc();
  return false;
}

// ---------------------------------------------------------------------------
// Unicast routing
// ---------------------------------------------------------------------------

template <class Msg>
void DataPlane<Msg>::send(Key key, PayloadPtr payload) {
  RouteMsg msg{key, std::move(payload), 0, id_};
  if (covers(key)) {
    wire_.self_deliver([this, msg = std::move(msg)] { deliver_route(msg); });
    return;
  }
  forward_route(std::move(msg));
}

template <class Msg>
void DataPlane<Msg>::handle_data(RouteMsg msg) {
  if (covers(msg.target)) {
    deliver_route(msg);
    return;
  }
  forward_route(std::move(msg));
}

template <class Msg>
void DataPlane<Msg>::deliver_route(const RouteMsg& msg) {
  if (offline_) return;  // self-delivery scheduled before the crash
  stats().route_hops->add(msg.hops);
  on_route_delivered(msg);
  if (app_ != nullptr) app_->on_deliver(msg.target, msg.payload);
}

template <class Msg>
void DataPlane<Msg>::forward_route(RouteMsg msg) {
  if (msg.hops >= limits().max_route_hops) {
    stats().route_dropped->inc();
    drop_span(detail::hop_ref(msg.payload, msg.parent_span),
              metrics::DropReason::kMaxHops, msg.hops);
    CBPS_LOG_WARN << "node " << id_ << ": dropping route to " << msg.target
                  << " after " << msg.hops << " hops";
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  // One span per forwarding step, carrying the hops so far and
  // re-parenting the wire message so the next hop's span chains to it.
  if (const auto s = span(detail::hop_ref(msg.payload, msg.parent_span),
                          metrics::SpanKind::kRouteHop, msg.target, msg.hops);
      s != 0) {
    msg.parent_span = s;
  }
  for (;;) {
    if (covers(msg.target)) {  // candidate eviction can make us the owner
      deliver_route(msg);
      return;
    }
    const auto nh = next_hop(msg.target);
    if (!nh) {
      stats().route_no_candidate->inc();
      drop_span(detail::hop_ref(msg.payload, msg.parent_span),
                metrics::DropReason::kNoCandidate, msg.hops);
      return;
    }
    RouteMsg out = msg;
    out.hops = msg.hops + 1;
    if (transmit(*nh, std::move(out), cls)) return;
    // transmit evicted the dead peer; retry with the next candidate.
  }
}

// ---------------------------------------------------------------------------
// m-cast (paper §4.3.1, Figure 4)
// ---------------------------------------------------------------------------

template <class Msg>
void DataPlane<Msg>::m_cast_runs(std::vector<KeyRange> runs,
                                 PayloadPtr payload) {
  if (runs.empty()) return;
  run_mcast(runs, payload, /*hops=*/0, /*initiator=*/true);
}

template <class Msg>
void DataPlane<Msg>::handle_data(const McastMsg& msg) {
  run_mcast(msg.targets, msg.payload, msg.hops, /*initiator=*/false,
            msg.parent_span);
}

template <class Msg>
void DataPlane<Msg>::run_mcast(std::span<const KeyRange> runs,
                               const PayloadPtr& payload, std::uint32_t hops,
                               bool initiator, std::uint64_t parent_span) {
  if (offline_) return;
  const metrics::TraceRef trace = detail::hop_ref(payload, parent_span);
  if (hops >= limits().max_route_hops) {
    const std::uint64_t keys = key_count(ring(), runs);
    stats().mcast_dropped_keys->inc(keys);
    drop_span(trace, metrics::DropReason::kMaxHops, keys);
    return;
  }

  // Figure 4 segment delegation. A failed transmit below evicts a peer,
  // which only marks the candidate list stale: nothing rebuilds it
  // before the retry after the loop.
  McastScratch scratch = std::move(mcast_scratch());
  McastRunPartition& part = scratch.part;
  const std::vector<Key>& candidates = mcast_candidates();
  partition_mcast_runs(ring(), id_, covered_arc(ring(), id_, predecessor_id()),
                       runs, candidates, part);

  const std::uint64_t local_keys = key_count(ring(), part.local);
  if (local_keys > 0 && app_ != nullptr) {
    if (initiator) {
      // Keep the upcall asynchronous even for the initiator.
      wire_.self_deliver([this, local = RunList(part.local), p = payload] {
        if (!offline_) deliver_mcast_local(local, p);
      });
    } else {
      scratch.covered.clear();
      expand_in_order(ring(), part.local, scratch.covered);
      app_->on_deliver_mcast(scratch.covered, payload);
    }
  }
  if (!part.undeliverable.empty()) {
    const std::uint64_t keys = key_count(ring(), part.undeliverable);
    stats().mcast_dropped_keys->inc(keys);
    drop_span(trace, metrics::DropReason::kMcastDead, keys);
  }

  const std::size_t branches = part.branches.size();
  std::uint64_t split_span = parent_span;
  if (branches > 0) {
    stats().mcast_fanout->add(static_cast<double>(branches));
    if (wire_.trace_sink() != nullptr && trace.sampled()) {
      const std::uint64_t delegated_keys = key_count(ring(), part.runs);
      if (const auto s = span(trace, metrics::SpanKind::kMcastSplit,
                              delegated_keys + local_keys, branches);
          s != 0) {
        split_span = s;
      }
    }
  }

  const MessageClass cls = payload->message_class();
  std::vector<KeyRange> retry;
  for (const auto& branch : part.branches) {
    const std::span<const KeyRange> branch_runs = part.runs_of(branch);
    if (!transmit(candidates[branch.candidate],
                  McastMsg{RunList(branch_runs), payload, hops + 1, 0,
                           split_span},
                  cls)) {
      retry.insert(retry.end(), branch_runs.begin(), branch_runs.end());
    }
  }
  mcast_scratch() = std::move(scratch);
  if (!retry.empty()) {
    // Dead candidates were evicted; re-run the assignment for their keys.
    run_mcast(retry, payload, hops + 1, /*initiator=*/false, split_span);
  }
}

template <class Msg>
void DataPlane<Msg>::deliver_mcast_local(const RunList& local,
                                         const PayloadPtr& payload) {
  McastScratch scratch = std::move(mcast_scratch());
  scratch.covered.clear();
  expand_in_order(ring(), local, scratch.covered);
  app_->on_deliver_mcast(scratch.covered, payload);
  mcast_scratch() = std::move(scratch);
}

// ---------------------------------------------------------------------------
// chain_cast: conservative unicast-based one-to-many (§4.3.1 baseline)
// ---------------------------------------------------------------------------

template <class Msg>
void DataPlane<Msg>::chain_cast(std::vector<Key> keys, PayloadPtr payload) {
  if (keys.empty()) return;
  std::sort(keys.begin(), keys.end(), [this](Key a, Key b) {
    return ring().distance(id_, a) < ring().distance(id_, b);
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  run_chain(std::move(keys), payload, /*hops=*/0, /*initiator=*/true);
}

template <class Msg>
void DataPlane<Msg>::handle_data(ChainMsg msg) {
  if (covers(msg.targets.front())) {
    run_chain(std::move(msg.targets), msg.payload, msg.hops,
              /*initiator=*/false, msg.parent_span);
  } else {
    forward_chain(std::move(msg));
  }
}

template <class Msg>
void DataPlane<Msg>::run_chain(std::vector<Key> keys,
                               const PayloadPtr& payload, std::uint32_t hops,
                               bool initiator, std::uint64_t parent_span) {
  if (offline_) return;
  std::vector<Key> covered;
  std::vector<Key> remaining;
  for (Key k : keys) {
    (covers(k) ? covered : remaining).push_back(k);
  }
  if (!covered.empty() && app_ != nullptr) {
    if (initiator) {
      PayloadPtr p = payload;
      wire_.self_deliver([this, covered, p] {
        if (!offline_) app_->on_deliver_mcast(covered, p);
      });
    } else {
      app_->on_deliver_mcast(covered, payload);
    }
  }
  if (remaining.empty()) return;

  // Keep ring order relative to this node: the nearest remaining key is
  // visited next (the paper's "forward M to k_i + 1" walk).
  std::sort(remaining.begin(), remaining.end(), [this](Key a, Key b) {
    return ring().distance(id_, a) < ring().distance(id_, b);
  });
  forward_chain(ChainMsg{std::move(remaining), payload, hops, 0,
                         parent_span});
}

template <class Msg>
void DataPlane<Msg>::forward_chain(ChainMsg msg) {
  if (msg.hops >= limits().max_route_hops) {
    stats().chain_dropped->inc();
    drop_span(detail::hop_ref(msg.payload, msg.parent_span),
              metrics::DropReason::kMaxHops, msg.targets.size());
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  if (const auto s =
          span(detail::hop_ref(msg.payload, msg.parent_span),
               metrics::SpanKind::kRouteHop, msg.targets.front(), msg.hops);
      s != 0) {
    msg.parent_span = s;
  }
  for (;;) {
    if (covers(msg.targets.front())) {
      run_chain(std::move(msg.targets), msg.payload, msg.hops,
                /*initiator=*/false, msg.parent_span);
      return;
    }
    const auto nh = next_hop(msg.targets.front());
    if (!nh) {
      stats().chain_no_candidate->inc();
      drop_span(detail::hop_ref(msg.payload, msg.parent_span),
                metrics::DropReason::kNoCandidate, msg.targets.size());
      return;
    }
    ChainMsg out = msg;
    out.hops = msg.hops + 1;
    if (transmit(*nh, std::move(out), cls)) return;
  }
}

// ---------------------------------------------------------------------------
// Neighbor sends (collecting, §4.3.2)
// ---------------------------------------------------------------------------

template <class Msg>
void DataPlane<Msg>::send_to_successor(PayloadPtr payload) {
  // A failed transmit evicts the successor, so the next one is tried.
  for (Key s = successor_id(); s != id_; s = successor_id()) {
    if (transmit(s, NeighborMsg{payload}, payload->message_class())) return;
  }
  // Alone in the ring: local delivery.
  deliver_to_self(std::move(payload));
}

template <class Msg>
void DataPlane<Msg>::send_to_predecessor(PayloadPtr payload) {
  if (const Key p = predecessor_id(); p != id_) {
    if (transmit(p, NeighborMsg{payload}, payload->message_class())) return;
  }
  deliver_to_self(std::move(payload));
}

template <class Msg>
void DataPlane<Msg>::deliver_to_self(PayloadPtr payload) {
  if (app_ == nullptr) return;
  wire_.self_deliver([this, p = std::move(payload)] {
    if (!offline_) app_->on_deliver(id_, p);
  });
}

template <class Msg>
void DataPlane<Msg>::handle_data(const NeighborMsg& msg) {
  if (app_ != nullptr) app_->on_deliver(id_, msg.payload);
}

template <class Msg>
std::uint64_t DataPlane<Msg>::span(const metrics::TraceRef& t,
                                   metrics::SpanKind kind, std::uint64_t a,
                                   std::uint64_t b) {
  metrics::TraceSink* ts = wire_.trace_sink();
  if (ts == nullptr || !t.sampled()) return 0;
  const auto now = wire_.sim().now();
  return ts->emit(t, kind, id_, now, now, a, b);
}

}  // namespace cbps::overlay
