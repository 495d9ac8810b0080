// ChordNode's application data plane: unicast routing (send →
// forward/deliver), the Figure 4 m-cast driver, chain_cast, neighbor
// sends, and the hop-by-hop ack/retry/dedup reliability layer, with
// their trace spans and counters. The routing state it reads (next_hop,
// mcast_candidates, the ring neighbors) and the membership protocol are
// in node.cpp.
#include <algorithm>
#include <utility>

#include "cbps/chord/network.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/logging.hpp"

namespace cbps::chord {

using overlay::ChainMsg;
using overlay::McastMsg;
using overlay::MessageClass;
using overlay::NeighborMsg;
using overlay::PayloadPtr;
using overlay::RouteMsg;

namespace {

/// The reliability sequence field of an ack-eligible message (every
/// alternative with a `seq` member), nullptr for everything else.
/// AckMsg is excluded by its field name.
std::uint64_t* seq_field(WireMessage& msg) {
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

const std::uint64_t* seq_field(const WireMessage& msg) {
  return seq_field(const_cast<WireMessage&>(msg));
}

/// Trace context for the next span at this hop: the payload's sampled
/// trace, re-parented on the previous hop's span when one is carried on
/// the wire message.
metrics::TraceRef hop_ref(const PayloadPtr& payload,
                          std::uint64_t parent_span) {
  metrics::TraceRef t = payload ? payload->trace : metrics::TraceRef{};
  if (parent_span != 0) t.parent_span = parent_span;
  return t;
}

/// Trace context of any wire message (unsampled for payload-free ones).
metrics::TraceRef wire_ref(const WireMessage& msg) {
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

}  // namespace

// ---------------------------------------------------------------------------
// Transmission and ack/retry reliability
// ---------------------------------------------------------------------------

bool ChordNode::transmit(Key to, WireMessage msg, MessageClass cls) {
  CBPS_ASSERT_MSG(to != id_, "self-transmit must be a local delivery");
  if (wire_.limits().reliable && seq_field(msg) != nullptr) {
    return transmit_reliable(to, std::move(msg), cls);
  }
  if (!net_.transmit(*this, to, std::move(msg), cls)) {
    stats().send_to_dead->inc();
    on_peer_dead(to);
    return false;
  }
  return true;
}

std::uint32_t ChordNode::link_of(Key peer) {
  auto& links = reliability_->links;
  const auto [i, added] = reliability_->index.emplace(
      peer, static_cast<std::uint32_t>(links.size()));
  if (added) links.emplace_back().peer = peer;
  return i;
}

bool ChordNode::transmit_reliable(Key to, WireMessage msg, MessageClass cls) {
  const std::uint32_t li = link_of(to);
  const std::uint64_t seq = reliability_->links[li].next_seq++;
  *seq_field(msg) = seq;
  if (!net_.transmit(*this, to, WireMessage(msg), cls)) {
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

std::vector<ChordNode::PendingSend>::iterator ChordNode::Link::find_pending(
    std::uint64_t seq) {
  const auto it = std::lower_bound(
      pending.begin(), pending.end(), seq,
      [](const PendingSend& p, std::uint64_t s) { return p.seq < s; });
  return it != pending.end() && it->seq == seq ? it : pending.end();
}

void ChordNode::retransmit(std::uint32_t link, std::uint64_t seq) {
  const Key to = reliability_->links[link].peer;
  auto& pending = reliability_->links[link].pending;
  auto it = reliability_->links[link].find_pending(seq);
  if (it == pending.end()) return;  // acked since the timer fired
  PendingSend& p = *it;
  if (p.retries >= wire_.limits().max_retries) {
    stats().send_failed->inc();
    stats().retries_per_send->add(p.retries);
    drop_span(wire_ref(p.msg), metrics::DropReason::kRetryBudget, p.retries);
    pending.erase(it);
    return;
  }
  ++p.retries;
  stats().retransmits->inc();
  span(wire_ref(p.msg), metrics::SpanKind::kRetry, p.retries);
  if (net_.transmit(*this, to, WireMessage(p.msg), p.cls)) {
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
  WireMessage msg = std::move(p.msg);
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
  } else if (auto* pl = std::get_if<PredLeaveMsg>(&msg);
             pl != nullptr && successor_id() != id_) {
    // The successor we were handing our state to died mid-handover;
    // hand it to the next live successor instead.
    pl->seq = 0;
    transmit(successor_id(), std::move(*pl), MessageClass::kStateTransfer);
  } else {
    // The peer the message addressed is gone and no equivalent
    // recipient exists; count the loss.
    stats().send_failed->inc();
  }
}

void ChordNode::handle_data(Key from, const overlay::AckMsg& msg) {
  const std::uint32_t li = reliability_->index.find(from);
  if (li == FlatIdMap::kNone) return;
  Link& link = reliability_->links[li];
  const auto it = link.find_pending(msg.acked_seq);
  if (it == link.pending.end()) return;  // late ack of a retransmit
  stats().retries_per_send->add(it->retries);
  // Karn's rule: only never-retransmitted sends yield RTT samples — an
  // ack after a retransmission is ambiguous about which copy it answers.
  if (it->retries == 0) link.rtt.add_sample(wire_.sim().now() - it->sent_at);
  wire_.sim().cancel(it->timer);
  link.pending.erase(it);
}

void ChordNode::cancel_pending_sends() {
  for (Link& link : reliability_->links) {
    for (PendingSend& p : link.pending) wire_.sim().cancel(p.timer);
    link.pending.clear();
  }
}

bool ChordNode::ack_and_dedup(Key from, const WireMessage& msg) {
  const std::uint64_t* seq = seq_field(msg);
  if (seq == nullptr || *seq == 0) return true;
  // The ack goes out unconditionally: a duplicate means our previous ack
  // was lost in flight.
  transmit(from, overlay::AckMsg{*seq}, MessageClass::kControl);
  if (reliability_->links[link_of(from)].seen.accept(*seq)) return true;
  stats().dup_suppressed->inc();
  return false;
}

// ---------------------------------------------------------------------------
// Unicast routing
// ---------------------------------------------------------------------------

void ChordNode::send(Key key, PayloadPtr payload) {
  RouteMsg msg{key, std::move(payload), 0, id_};
  if (covers(key)) {
    wire_.self_deliver([this, msg = std::move(msg)] { deliver_route(msg); });
    return;
  }
  forward_route(std::move(msg));
}

void ChordNode::handle_data(RouteMsg msg) {
  if (covers(msg.target)) {
    deliver_route(msg);
    return;
  }
  forward_route(std::move(msg));
}

void ChordNode::deliver_route(const RouteMsg& msg) {
  if (offline_) return;  // self-delivery scheduled before the crash
  stats().route_hops->add(msg.hops);
  // Owner feedback: tell the route's origin who covers its key.
  if (config().owner_feedback && msg.origin != id_ && msg.hops > 1) {
    transmit(msg.origin, OwnerInfoMsg{id_, has_pred_ ? pred_ : id_},
             MessageClass::kControl);
  }
  if (app_ != nullptr) app_->on_deliver(msg.target, msg.payload);
}

void ChordNode::forward_route(RouteMsg msg) {
  if (msg.hops >= wire_.limits().max_route_hops) {
    stats().route_dropped->inc();
    drop_span(hop_ref(msg.payload, msg.parent_span),
              metrics::DropReason::kMaxHops, msg.hops);
    CBPS_LOG_WARN << "node " << id_ << ": dropping route to " << msg.target
                  << " after " << msg.hops << " hops";
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  // One span per forwarding step, carrying the hops so far and
  // re-parenting the wire message so the next hop's span chains to it.
  if (const auto s = span(hop_ref(msg.payload, msg.parent_span),
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
      drop_span(hop_ref(msg.payload, msg.parent_span),
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

void ChordNode::m_cast_runs(std::vector<KeyRange> runs, PayloadPtr payload) {
  if (runs.empty()) return;
  run_mcast(runs, payload, /*hops=*/0, /*initiator=*/true);
}

void ChordNode::handle_data(const McastMsg& msg) {
  run_mcast(msg.targets, msg.payload, msg.hops, /*initiator=*/false,
            msg.parent_span);
}

void ChordNode::run_mcast(std::span<const KeyRange> runs,
                          const PayloadPtr& payload, std::uint32_t hops,
                          bool initiator, std::uint64_t parent_span) {
  if (offline_) return;
  const metrics::TraceRef trace = hop_ref(payload, parent_span);
  if (hops >= wire_.limits().max_route_hops) {
    const std::uint64_t keys = key_count(ring(), runs);
    stats().mcast_dropped_keys->inc(keys);
    drop_span(trace, metrics::DropReason::kMaxHops, keys);
    return;
  }

  // Figure 4 segment delegation. A failed transmit below evicts a peer,
  // which only marks the candidate list stale: nothing rebuilds it
  // before the retry after the loop.
  McastScratch scratch = std::move(mcast_scratch());
  overlay::McastRunPartition& part = scratch.part;
  const std::vector<Key>& candidates = mcast_candidates();
  overlay::partition_mcast_runs(
      ring(), id_, overlay::covered_arc(ring(), id_, predecessor_id()), runs,
      candidates, part);

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

void ChordNode::deliver_mcast_local(const RunList& local,
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

void ChordNode::chain_cast(std::vector<Key> keys, PayloadPtr payload) {
  if (keys.empty()) return;
  std::sort(keys.begin(), keys.end(), [this](Key a, Key b) {
    return ring().distance(id_, a) < ring().distance(id_, b);
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  run_chain(std::move(keys), payload, /*hops=*/0, /*initiator=*/true);
}

void ChordNode::handle_data(ChainMsg msg) {
  if (covers(msg.targets.front())) {
    run_chain(std::move(msg.targets), msg.payload, msg.hops,
              /*initiator=*/false, msg.parent_span);
  } else {
    forward_chain(std::move(msg));
  }
}

void ChordNode::run_chain(std::vector<Key> keys, const PayloadPtr& payload,
                          std::uint32_t hops, bool initiator,
                          std::uint64_t parent_span) {
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

void ChordNode::forward_chain(ChainMsg msg) {
  if (msg.hops >= wire_.limits().max_route_hops) {
    stats().chain_dropped->inc();
    drop_span(hop_ref(msg.payload, msg.parent_span),
              metrics::DropReason::kMaxHops, msg.targets.size());
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  if (const auto s =
          span(hop_ref(msg.payload, msg.parent_span),
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
      drop_span(hop_ref(msg.payload, msg.parent_span),
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

void ChordNode::send_to_successor(PayloadPtr payload) {
  // A failed transmit evicts the successor, so the next one is tried.
  for (Key s = successor_id(); s != id_; s = successor_id()) {
    if (transmit(s, NeighborMsg{payload}, payload->message_class())) return;
  }
  // Alone in the ring: local delivery.
  deliver_to_self(std::move(payload));
}

void ChordNode::send_to_predecessor(PayloadPtr payload) {
  if (const Key p = predecessor_id(); p != id_) {
    if (transmit(p, NeighborMsg{payload}, payload->message_class())) return;
  }
  deliver_to_self(std::move(payload));
}

void ChordNode::deliver_to_self(PayloadPtr payload) {
  if (app_ == nullptr) return;
  wire_.self_deliver([this, p = std::move(payload)] {
    if (!offline_) app_->on_deliver(id_, p);
  });
}

void ChordNode::handle_data(const NeighborMsg& msg) {
  if (app_ != nullptr) app_->on_deliver(id_, msg.payload);
}

std::uint64_t ChordNode::span(const metrics::TraceRef& t,
                              metrics::SpanKind kind, std::uint64_t a,
                              std::uint64_t b) {
  metrics::TraceSink* ts = wire_.trace_sink();
  if (ts == nullptr || !t.sampled()) return 0;
  const auto now = wire_.sim().now();
  return ts->emit(t, kind, id_, now, now, a, b);
}

}  // namespace cbps::chord
