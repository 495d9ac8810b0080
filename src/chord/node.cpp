#include "cbps/chord/node.hpp"

#include <algorithm>
#include <utility>

#include "cbps/chord/network.hpp"
#include "cbps/common/logging.hpp"
#include "cbps/common/sorted_view.hpp"
#include "cbps/overlay/mcast_partition.hpp"

namespace cbps::chord {

using metrics::DropReason;
using metrics::SpanKind;
using overlay::MessageClass;
using overlay::PayloadPtr;

namespace {

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

ChordNode::ChordNode(ChordNetwork& net, Key id, std::string name,
                     common::Domain domain)
    : net_(net),
      id_(id),
      name_(std::move(name)),
      domain_(domain),
      fingers_(net.ring(), id),
      cache_(net.ring(), net.config().location_cache_size) {}

RingParams ChordNode::ring() const { return net_.ring(); }

const ChordConfig& ChordNode::config() const { return net_.config(); }

bool ChordNode::covers(Key k) const {
  // A node that knows no predecessor accepts whatever routing hands it:
  // either the ring has a single member, or the predecessor just failed
  // and this node is the legitimate successor of the orphaned range.
  if (!has_pred_) return true;
  return ring().in_open_closed(pred_, id_, k);
}

bool ChordNode::transmit(Key to, WireMessage msg, MessageClass cls) {
  CBPS_ASSERT_MSG(to != id_, "self-transmit must be a local delivery");
  // Gossip rides best-effort even on a reliable wire: the epidemic's own
  // redundancy (fan-out + anti-entropy repair) is its loss recovery, and
  // per-hop acks would double-charge the overhead the benches compare.
  if (config().reliable_transport() && cls != MessageClass::kGossip &&
      seq_field(msg) != nullptr) {
    return transmit_reliable(to, std::move(msg), cls);
  }
  if (!net_.transmit(id_, to, std::move(msg), cls)) {
    net_.hot().send_to_dead->inc();
    on_peer_dead(to);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Ack/retry reliability (armed only when the network injects loss)
// ---------------------------------------------------------------------------

bool ChordNode::transmit_reliable(Key to, WireMessage msg,
                                  MessageClass cls) {
  const std::uint64_t seq = next_send_seq_++;
  *seq_field(msg) = seq;
  if (!net_.transmit(id_, to, msg, cls)) {
    net_.hot().send_to_dead->inc();
    on_peer_dead(to);
    return false;
  }
  PendingSend p;
  p.to = to;
  p.cls = cls;
  p.timeout = rto_for(to);
  p.sent_at = net_.sim().now();
  // Self-owned timer: keyed by (and sharded with) this node even when
  // the send was issued from a driver's global-context callback, so the
  // cancel in handle_ack is always a same-shard operation.
  const common::ActorScope as(domain_);
  p.timer =
      net_.sim().schedule_after(p.timeout, [this, seq] { retransmit(seq); });
  p.msg = std::move(msg);  // retransmission copy; payload ptr is shared
  pending_sends_.emplace(seq, std::move(p));
  return true;
}

void ChordNode::retransmit(std::uint64_t seq) {
  auto it = pending_sends_.find(seq);
  if (it == pending_sends_.end()) return;  // acked since the timer fired
  PendingSend& p = it->second;
  if (p.retries >= config().max_retries) {
    net_.hot().send_failed->inc();
    net_.hot().retries_per_send->add(p.retries);
    if (auto* ts = net_.trace_sink()) {
      if (const auto t = wire_ref(p.msg); t.sampled()) {
        const auto now = net_.sim().now();
        ts->emit(t, SpanKind::kDrop, id_, now, now,
                 static_cast<std::uint64_t>(DropReason::kRetryBudget),
                 p.retries);
      }
    }
    pending_sends_.erase(it);
    return;
  }
  ++p.retries;
  net_.hot().retransmits->inc();
  if (auto* ts = net_.trace_sink()) {
    if (const auto t = wire_ref(p.msg); t.sampled()) {
      const auto now = net_.sim().now();
      ts->emit(t, SpanKind::kRetry, id_, now, now, p.retries);
    }
  }
  if (net_.transmit(id_, p.to, p.msg, p.cls)) {
    p.timeout *= 2;  // exponential backoff
    const common::ActorScope as(domain_);
    p.timer = net_.sim().schedule_after(p.timeout,
                                        [this, seq] { retransmit(seq); });
    return;
  }
  // The peer died while we were retrying. Evict it, then re-route the
  // message through a live candidate where the semantics allow it. The
  // seq is reset to 0 so the re-injected copy gets a fresh id (and a
  // fresh pending entry) at its next transmit.
  const Key dead = p.to;
  WireMessage msg = std::move(p.msg);
  pending_sends_.erase(it);
  net_.hot().send_to_dead->inc();
  on_peer_dead(dead);
  if (auto* r = std::get_if<RouteMsg>(&msg)) {
    r->seq = 0;
    forward_route(std::move(*r));
  } else if (auto* m = std::get_if<McastMsg>(&msg)) {
    run_mcast(m->targets, m->payload, m->hops, /*initiator=*/false,
              m->parent_span);
  } else if (auto* c = std::get_if<ChainMsg>(&msg)) {
    c->seq = 0;
    forward_chain(std::move(*c));
  } else if (auto* pl = std::get_if<PredLeaveMsg>(&msg)) {
    // The successor we were handing our state to died mid-handover;
    // hand it to the next live successor instead (we already evicted
    // the dead one above).
    const Key succ = successor_id();
    if (succ != id_) {
      pl->seq = 0;
      transmit(succ, std::move(*pl), MessageClass::kStateTransfer);
    } else {
      net_.hot().send_failed->inc();
    }
  } else {
    // NeighborMsg / SuccLeaveMsg / state-pull traffic: the peer it
    // addressed is gone and no equivalent recipient exists; count the
    // loss.
    net_.hot().send_failed->inc();
  }
}

void ChordNode::handle_ack(std::uint64_t acked_seq) {
  auto it = pending_sends_.find(acked_seq);
  if (it == pending_sends_.end()) return;  // late ack of a retransmit
  net_.hot().retries_per_send->add(it->second.retries);
  // Karn's rule: only never-retransmitted sends yield RTT samples — an
  // ack after a retransmission is ambiguous about which copy it answers.
  if (it->second.retries == 0 && config().adaptive_rto) {
    record_rtt_sample(it->second.to, net_.sim().now() - it->second.sent_at);
  }
  net_.sim().cancel(it->second.timer);
  pending_sends_.erase(it);
}

void ChordNode::record_rtt_sample(Key peer, sim::SimTime rtt) {
  RttState& s = rtt_[peer];
  const double r = static_cast<double>(rtt);
  if (!s.valid) {
    // RFC 6298 initialization: SRTT = R, RTTVAR = R/2.
    s.srtt_us = r;
    s.rttvar_us = r / 2.0;
    s.valid = true;
    return;
  }
  // Jacobson's EWMA (alpha = 1/8, beta = 1/4), variance first.
  const double err = r - s.srtt_us;
  s.rttvar_us += ((err < 0 ? -err : err) - s.rttvar_us) / 4.0;
  s.srtt_us += err / 8.0;
}

sim::SimTime ChordNode::rto_for(Key peer) const {
  if (!config().adaptive_rto) return config().retry_base;
  const auto it = rtt_.find(peer);
  if (it == rtt_.end() || !it->second.valid) return config().retry_base;
  const double rto = it->second.srtt_us + 4.0 * it->second.rttvar_us;
  return std::clamp(static_cast<sim::SimTime>(rto), config().rto_min,
                    config().rto_max);
}

sim::SimTime ChordNode::current_rto(Key peer) const { return rto_for(peer); }

void ChordNode::cancel_pending_sends() {
  // detlint: unordered-ok(cancel marks slots stale; commutative, no output)
  for (auto& [_, p] : pending_sends_) net_.sim().cancel(p.timer);
  pending_sends_.clear();
}

void ChordNode::go_offline() {
  offline_ = true;
  stop_maintenance();
  cancel_pending_sends();
}

void ChordNode::on_peer_dead(Key peer) {
  fingers_.evict(peer);
  cache_.evict(peer);
  std::erase(succs_, peer);
  if (has_pred_ && pred_ == peer) has_pred_ = false;
  remember_contact(peer);
}

void ChordNode::remember_contact(Key peer) {
  if (peer == id_ || remembered_.size() >= kMaxRemembered) return;
  remembered_.insert(peer);
}

void ChordNode::probe_remembered() {
  // Raw transmits on purpose: a probe that fails (the contact is truly
  // dead, or the partition still stands) must not re-trigger eviction —
  // the contact is already evicted; we are fishing for its return.
  // Probe in key order: each transmit draws wire randomness, so probe
  // order must be a function of the remembered set, not hash layout (D1).
  for (const Key* peer : sorted_view(remembered_)) {
    net_.transmit(id_, *peer, GetNeighborsReq{id_}, MessageClass::kControl);
  }
}

// ---------------------------------------------------------------------------
// Next-hop selection
// ---------------------------------------------------------------------------

std::optional<Key> ChordNode::closest_preceding(Key key) const {
  // Best candidate: maximal ring distance from us while still in
  // (id, key]. Scans fingers, successor list and predecessor (O(log n)
  // candidates); the location cache contributes only its own best, found
  // by ordered lookup. Distinct ids have distinct distances, so the scan
  // order cannot change the winner.
  std::optional<Key> best;
  std::uint64_t best_dist = 0;
  const auto consider = [&](Key c) {
    if (c == id_) return;
    if (!ring().in_open_closed(id_, key, c)) return;
    const std::uint64_t d = ring().distance(id_, c);
    if (!best || d > best_dist) {
      best = c;
      best_dist = d;
    }
  };
  for (std::size_t i = 0; i < fingers_.size(); ++i) {
    if (auto f = fingers_.get(i)) consider(*f);
  }
  for (Key s : succs_) consider(s);
  if (has_pred_) consider(pred_);
  if (const auto c = cache_.closest_preceding(id_, key)) consider(*c);
  return best;
}

std::optional<Key> ChordNode::next_hop(Key key) {
  if (covers(key)) return std::nullopt;
  // Location-cache shortcut: a peer we believe covers `key` can take the
  // message directly (it re-routes if the belief turned stale).
  if (auto owner = cache_.find_owner(key)) {
    if (*owner != id_) return owner;
  }
  if (!succs_.empty() &&
      ring().in_open_closed(id_, succs_.front(), key)) {
    return succs_.front();
  }
  if (auto c = closest_preceding(key)) return c;
  if (!succs_.empty()) return succs_.front();
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Unicast routing
// ---------------------------------------------------------------------------

void ChordNode::send(Key key, PayloadPtr payload) {
  RouteMsg msg{key, std::move(payload), 0, id_};
  if (covers(key)) {
    net_.self_deliver(
        [this, msg = std::move(msg)] { deliver_route(msg); });
    return;
  }
  forward_route(std::move(msg));
}

void ChordNode::handle_route(RouteMsg msg) {
  if (covers(msg.target)) {
    deliver_route(msg);
    return;
  }
  forward_route(std::move(msg));
}

void ChordNode::deliver_route(const RouteMsg& msg) {
  if (offline_) return;  // self-delivery scheduled before the crash
  const MessageClass cls = msg.payload->message_class();
  net_.traffic().record_delivery(cls);
  net_.traffic().record_route_complete(cls, msg.hops);
  net_.hot().route_hops->add(msg.hops);
  if (config().owner_feedback && msg.origin != id_ && msg.hops > 1) {
    transmit(msg.origin, OwnerInfoMsg{id_, has_pred_ ? pred_ : id_},
             MessageClass::kControl);
  }
  if (app_ != nullptr) app_->on_deliver(msg.target, msg.payload);
}

void ChordNode::forward_route(RouteMsg msg) {
  metrics::TraceSink* ts = net_.trace_sink();
  if (msg.hops >= config().max_route_hops) {
    net_.hot().route_dropped->inc();
    if (ts != nullptr) {
      if (const auto t = hop_ref(msg.payload, msg.parent_span); t.sampled()) {
        const auto now = net_.sim().now();
        ts->emit(t, SpanKind::kDrop, id_, now, now,
                 static_cast<std::uint64_t>(DropReason::kMaxHops), msg.hops);
      }
    }
    CBPS_LOG_WARN << "node " << id_ << ": dropping route to " << msg.target
                  << " after " << msg.hops << " hops";
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  // One span per forwarding step, re-parenting the wire message so the
  // next hop's span chains to this one.
  if (ts != nullptr) {
    if (const auto t = hop_ref(msg.payload, msg.parent_span); t.sampled()) {
      const auto now = net_.sim().now();
      if (const auto span = ts->emit(t, SpanKind::kRouteHop, id_, now, now,
                                     msg.target, msg.hops);
          span != 0) {
        msg.parent_span = span;
      }
    }
  }
  for (;;) {
    if (covers(msg.target)) {  // candidate eviction can make us the owner
      deliver_route(msg);
      return;
    }
    const auto nh = next_hop(msg.target);
    if (!nh) {
      net_.hot().route_no_candidate->inc();
      if (ts != nullptr) {
        if (const auto t = hop_ref(msg.payload, msg.parent_span);
            t.sampled()) {
          const auto now = net_.sim().now();
          ts->emit(t, SpanKind::kDrop, id_, now, now,
                   static_cast<std::uint64_t>(DropReason::kNoCandidate),
                   msg.hops);
        }
      }
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

void ChordNode::handle_mcast(const McastMsg& msg) {
  run_mcast(msg.targets, msg.payload, msg.hops, /*initiator=*/false,
            msg.parent_span);
}

const std::vector<Key>& ChordNode::mcast_candidates() {
  // Delegation candidates: the distinct finger nodes (f_1 is the
  // successor in a converged ring) plus the successor, sorted by ring
  // distance. Rebuilt only when the fingers or the successor moved.
  const std::optional<Key> succ =
      succs_.empty() ? std::nullopt : std::optional<Key>(succs_.front());
  if (candidates_valid_ && candidates_finger_version_ == fingers_.version() &&
      candidates_succ_ == succ) {
    return candidates_;
  }
  candidates_ = fingers_.distinct_nodes();
  if (succ && std::find(candidates_.begin(), candidates_.end(), *succ) ==
                  candidates_.end()) {
    candidates_.push_back(*succ);
    std::sort(candidates_.begin(), candidates_.end(), [this](Key a, Key b) {
      return ring().distance(id_, a) < ring().distance(id_, b);
    });
  }
  candidates_valid_ = true;
  candidates_finger_version_ = fingers_.version();
  candidates_succ_ = succ;
  return candidates_;
}

void ChordNode::run_mcast(const std::vector<KeyRange>& runs,
                          const PayloadPtr& payload, std::uint32_t hops,
                          bool initiator, std::uint64_t parent_span) {
  if (offline_) return;
  metrics::TraceSink* ts = net_.trace_sink();
  if (hops >= config().max_route_hops) {
    const std::uint64_t keys = key_count(ring(), runs);
    net_.hot().mcast_dropped_keys->inc(keys);
    if (ts != nullptr) {
      if (const auto t = hop_ref(payload, parent_span); t.sampled()) {
        const auto now = net_.sim().now();
        ts->emit(t, SpanKind::kDrop, id_, now, now,
                 static_cast<std::uint64_t>(DropReason::kMaxHops), keys);
      }
    }
    return;
  }

  // Figure 4 segment delegation (shared across overlays). A failed
  // transmit below evicts a peer, which only marks the candidate cache
  // stale: nothing rebuilds it before the retry after the loop.
  const std::vector<Key>& candidates = mcast_candidates();
  const overlay::McastRunPartition part = overlay::partition_mcast_runs(
      ring(), id_, overlay::covered_arc(ring(), id_, predecessor()), runs,
      candidates);

  const std::uint64_t local_keys = key_count(ring(), part.local);
  if (local_keys > 0 && app_ != nullptr) {
    const MessageClass cls = payload->message_class();
    net_.traffic().record_delivery(cls);
    std::vector<Key> covered;
    expand_in_order(ring(), part.local, covered);
    if (initiator) {
      // Keep the upcall asynchronous even for the initiator.
      PayloadPtr p = payload;
      net_.self_deliver([this, covered = std::move(covered), p] {
        if (!offline_) app_->on_deliver_mcast(covered, p);
      });
    } else {
      app_->on_deliver_mcast(covered, payload);
    }
  }
  if (!part.undeliverable.empty()) {
    const std::uint64_t keys = key_count(ring(), part.undeliverable);
    net_.hot().mcast_dropped_keys->inc(keys);
    if (ts != nullptr) {
      if (const auto t = hop_ref(payload, parent_span); t.sampled()) {
        const auto now = net_.sim().now();
        ts->emit(t, SpanKind::kDrop, id_, now, now,
                 static_cast<std::uint64_t>(DropReason::kMcastDead), keys);
      }
    }
  }

  const std::size_t branches = part.branches.size();
  std::uint64_t split_span = parent_span;
  if (branches > 0) {
    net_.hot().mcast_fanout->add(static_cast<double>(branches));
    if (ts != nullptr) {
      if (const auto t = hop_ref(payload, parent_span); t.sampled()) {
        std::uint64_t delegated_keys = 0;
        for (const auto& b : part.branches) {
          delegated_keys += key_count(ring(), b.runs);
        }
        const auto now = net_.sim().now();
        if (const auto span =
                ts->emit(t, SpanKind::kMcastSplit, id_, now, now,
                         delegated_keys + local_keys, branches);
            span != 0) {
          split_span = span;
        }
      }
    }
  }

  const MessageClass cls = payload->message_class();
  std::vector<KeyRange> retry;
  for (const auto& branch : part.branches) {
    if (!transmit(candidates[branch.candidate],
                  McastMsg{branch.runs, payload, hops + 1, 0, split_span},
                  cls)) {
      retry.insert(retry.end(), branch.runs.begin(), branch.runs.end());
    }
  }
  if (!retry.empty()) {
    // Dead candidates were evicted; re-run the assignment for their keys.
    run_mcast(retry, payload, hops + 1, /*initiator=*/false, split_span);
  }
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

void ChordNode::handle_chain(ChainMsg msg) {
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
    const MessageClass cls = payload->message_class();
    net_.traffic().record_delivery(cls);
    if (initiator) {
      PayloadPtr p = payload;
      net_.self_deliver([this, covered, p] {
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
  metrics::TraceSink* ts = net_.trace_sink();
  if (msg.hops >= config().max_route_hops) {
    net_.hot().chain_dropped->inc();
    if (ts != nullptr) {
      if (const auto t = hop_ref(msg.payload, msg.parent_span); t.sampled()) {
        const auto now = net_.sim().now();
        ts->emit(t, SpanKind::kDrop, id_, now, now,
                 static_cast<std::uint64_t>(DropReason::kMaxHops),
                 msg.targets.size());
      }
    }
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  if (ts != nullptr) {
    if (const auto t = hop_ref(msg.payload, msg.parent_span); t.sampled()) {
      const auto now = net_.sim().now();
      if (const auto span = ts->emit(t, SpanKind::kRouteHop, id_, now, now,
                                     msg.targets.front(), msg.hops);
          span != 0) {
        msg.parent_span = span;
      }
    }
  }
  for (;;) {
    if (covers(msg.targets.front())) {
      run_chain(std::move(msg.targets), msg.payload, msg.hops,
                /*initiator=*/false, msg.parent_span);
      return;
    }
    const auto nh = next_hop(msg.targets.front());
    if (!nh) {
      net_.hot().chain_no_candidate->inc();
      if (ts != nullptr) {
        if (const auto t = hop_ref(msg.payload, msg.parent_span);
            t.sampled()) {
          const auto now = net_.sim().now();
          ts->emit(t, SpanKind::kDrop, id_, now, now,
                   static_cast<std::uint64_t>(DropReason::kNoCandidate),
                   msg.targets.size());
        }
      }
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
  while (!succs_.empty()) {
    const Key s = succs_.front();
    if (transmit(s, NeighborMsg{payload}, payload->message_class())) return;
  }
  // Alone in the ring: local delivery.
  if (app_ != nullptr) {
    PayloadPtr p = std::move(payload);
    net_.self_deliver([this, p] {
      if (!offline_) app_->on_deliver(id_, p);
    });
  }
}

void ChordNode::send_to_predecessor(PayloadPtr payload) {
  if (has_pred_ && pred_ != id_) {
    if (transmit(pred_, NeighborMsg{payload}, payload->message_class())) {
      return;
    }
  }
  if (app_ != nullptr) {
    PayloadPtr p = std::move(payload);
    net_.self_deliver([this, p] {
      if (!offline_) app_->on_deliver(id_, p);
    });
  }
}

// ---------------------------------------------------------------------------
// Lookup protocol
// ---------------------------------------------------------------------------

void ChordNode::handle_find_successor(FindSuccessorReq msg) {
  if (covers(msg.target)) {
    if (msg.reply_to == id_) {
      handle_find_successor_reply(
          FindSuccessorReply{msg.target, id_, msg.req_id});
      return;
    }
    transmit(msg.reply_to, FindSuccessorReply{msg.target, id_, msg.req_id},
             MessageClass::kControl);
    return;
  }
  if (msg.hops >= config().max_route_hops) {
    net_.hot().lookup_dropped->inc();
    return;
  }
  for (;;) {
    if (covers(msg.target)) {
      handle_find_successor(msg);  // eviction made us the owner
      return;
    }
    const auto nh = next_hop(msg.target);
    if (!nh) {
      net_.hot().lookup_no_candidate->inc();
      return;
    }
    FindSuccessorReq out = msg;
    out.hops = msg.hops + 1;
    if (transmit(*nh, std::move(out), MessageClass::kControl)) return;
  }
}

void ChordNode::handle_find_successor_reply(const FindSuccessorReply& msg) {
  if (msg.req_id == kJoinReqId) {
    if (msg.owner == id_ && joining_) {
      // A stale routing path bounced the lookup back to us before we
      // were integrated; retry through the bootstrap after a beat.
      net_.hot().join_retry->inc();
      const Key bootstrap = join_bootstrap_;
      const common::ActorScope as(domain_);
      net_.sim().schedule_after(sim::sec(1),
                                [this, bootstrap] { begin_join(bootstrap); });
      return;
    }
    // Join step 2: we found our successor.
    set_successor_front(msg.owner);
    if (msg.owner != id_) {
      transmit(msg.owner, PullStateReq{0, id_, id_},
               MessageClass::kStateTransfer);
      transmit(msg.owner, GetNeighborsReq{id_}, MessageClass::kControl);
      transmit(msg.owner, NotifyPredMsg{}, MessageClass::kControl);
    }
    joining_ = false;
    if (config().stabilize_period > 0) start_maintenance();
    return;
  }
  auto it = pending_finger_fixes_.find(msg.req_id);
  if (it == pending_finger_fixes_.end()) return;
  const std::size_t finger = it->second;
  pending_finger_fixes_.erase(it);
  fingers_.set(finger, msg.owner);
}

// ---------------------------------------------------------------------------
// Stabilization (Chord's periodic maintenance)
// ---------------------------------------------------------------------------

void ChordNode::start_maintenance() {
  if (maintenance_timer_ != 0 || config().stabilize_period == 0) return;
  // Self-owned periodic timer; see transmit_reliable for why the scope.
  const common::ActorScope as(domain_);
  maintenance_timer_ = net_.sim().add_timer(config().stabilize_period,
                                            [this] { maintenance_tick(); });
}

void ChordNode::stop_maintenance() {
  if (maintenance_timer_ == 0) return;
  net_.sim().cancel_timer(maintenance_timer_);
  maintenance_timer_ = 0;
}

void ChordNode::maintenance_tick() {
  check_predecessor();
  stabilize();
  fix_fingers();
  probe_remembered();
}

void ChordNode::check_predecessor() {
  if (!has_pred_ || pred_ == id_) return;
  // A failed transmit evicts the dead predecessor via on_peer_dead.
  transmit(pred_, GetNeighborsReq{id_}, MessageClass::kControl);
}

void ChordNode::stabilize() {
  while (!succs_.empty()) {
    const Key s = succs_.front();
    if (s == id_) {
      succs_.erase(succs_.begin());
      continue;
    }
    if (transmit(s, GetNeighborsReq{id_}, MessageClass::kControl)) return;
  }
}

void ChordNode::fix_fingers() {
  for (std::size_t i = 0; i < fingers_.size(); ++i) {
    const Key target = fingers_.start(i);
    if (covers(target)) {
      fingers_.set(i, id_);
      continue;
    }
    const std::uint64_t req = next_req_id_++;
    pending_finger_fixes_[req] = i;
    handle_find_successor(FindSuccessorReq{target, id_, req, 0});
  }
}

void ChordNode::handle_get_neighbors(const GetNeighborsReq& msg) {
  if (msg.reply_to == id_) return;
  transmit(msg.reply_to, GetNeighborsReply{has_pred_, pred_, succs_},
           MessageClass::kControl);
}

void ChordNode::handle_get_neighbors_reply(const GetNeighborsReply& msg,
                                           Key from) {
  if (succs_.empty() || from != succs_.front()) {
    // A reply from our predecessor's liveness probe or a stale
    // successor; still useful as a predecessor hint while joining.
    if (!has_pred_ && msg.has_pred && msg.pred != id_) {
      adopt_predecessor(msg.pred);
    }
    return;
  }
  // Standard stabilize: if succ's predecessor sits between us, it is our
  // better successor.
  if (msg.has_pred && msg.pred != id_ &&
      ring().in_open_open(id_, succs_.front(), msg.pred)) {
    set_successor_front(msg.pred);
  } else {
    // Refresh the successor list from the successor's own list.
    std::vector<Key> fresh{succs_.front()};
    for (Key s : msg.successors) {
      if (s == id_) continue;
      if (std::find(fresh.begin(), fresh.end(), s) == fresh.end()) {
        fresh.push_back(s);
      }
      if (fresh.size() >= config().successor_list_size) break;
    }
    succs_ = std::move(fresh);
  }
  if (!has_pred_ && msg.has_pred && msg.pred != id_) {
    adopt_predecessor(msg.pred);
  }
  if (!succs_.empty() && succs_.front() != id_) {
    transmit(succs_.front(), NotifyPredMsg{}, MessageClass::kControl);
  }
}

void ChordNode::handle_notify_pred(Key candidate) {
  if (candidate == id_) return;
  if (!has_pred_ || ring().in_open_open(pred_, id_, candidate)) {
    adopt_predecessor(candidate);
  }
}

void ChordNode::adopt_predecessor(Key candidate) {
  if (has_pred_ && candidate == pred_) return;
  if (has_pred_ && app_ != nullptr &&
      ring().in_open_open(pred_, id_, candidate)) {
    // Our covered range shrank from (pred, id] to (candidate, id]; the
    // keys in (pred, candidate] belong to the new predecessor now.
    // Push the exported state to it: during a normal join the new owner
    // already pulled a copy (the import dedupes), but during a
    // post-partition ring merge this transfer is the only path that
    // returns the orphaned range's subscriptions to their owner.
    PayloadPtr st = app_->export_state(pred_, candidate, /*remove=*/true);
    if (st != nullptr && candidate != id_) {
      transmit(candidate, StateTransferMsg{std::move(st)},
               MessageClass::kStateTransfer);
    }
  }
  pred_ = candidate;
  has_pred_ = true;
}

// ---------------------------------------------------------------------------
// Join / leave
// ---------------------------------------------------------------------------

void ChordNode::begin_join(Key bootstrap) {
  CBPS_ASSERT_MSG(bootstrap != id_, "cannot bootstrap from self");
  if (offline_) return;  // crashed while a join retry was scheduled
  joining_ = true;
  join_bootstrap_ = bootstrap;
  transmit(bootstrap, FindSuccessorReq{id_, id_, kJoinReqId, 0},
           MessageClass::kControl);
}

void ChordNode::handle_pull_state(const PullStateReq& msg) {
  PayloadPtr st;
  if (app_ != nullptr) {
    const Key lo = has_pred_ ? pred_ : id_;
    st = app_->export_state(lo, msg.range_hi, /*remove=*/false);
  }
  transmit(msg.reply_to, StateTransferMsg{std::move(st)},
           MessageClass::kStateTransfer);
}

void ChordNode::handle_pred_leave(const PredLeaveMsg& msg, Key from) {
  // Our predecessor left and handed us its range and state.
  on_peer_dead(from);
  if (msg.has_new_pred && msg.new_pred != id_) {
    pred_ = msg.new_pred;
    has_pred_ = true;
  } else {
    has_pred_ = false;
  }
  if (msg.state != nullptr && app_ != nullptr) app_->import_state(msg.state);
}

void ChordNode::handle_succ_leave(const SuccLeaveMsg& msg, Key from) {
  on_peer_dead(from);
  if (msg.new_succ != id_) set_successor_front(msg.new_succ);
}

void ChordNode::leave_gracefully() {
  stop_maintenance();
  // Pending reliable sends are deliberately NOT cancelled: the leaver
  // lingers as a lame duck, retransmitting its in-flight messages (and
  // the handover below) until they are acked or the budget runs out.
  // The network keeps delivering acks to departed-but-not-crashed
  // nodes for exactly this reason.
  const Key succ = successor_id();
  if (succ == id_) return;  // alone; nothing to hand over
  PayloadPtr st;
  if (app_ != nullptr) {
    const Key lo = has_pred_ ? pred_ : id_;
    st = app_->export_state(lo, id_, /*remove=*/true);
  }
  transmit(succ, PredLeaveMsg{has_pred_, pred_, std::move(st)},
           MessageClass::kStateTransfer);
  if (has_pred_ && pred_ != id_) {
    transmit(pred_, SuccLeaveMsg{succ}, MessageClass::kControl);
  }
}

void ChordNode::install_state(std::optional<Key> pred,
                              std::vector<Key> succs,
                              std::vector<Key> finger_nodes) {
  has_pred_ = pred.has_value();
  pred_ = pred.value_or(0);
  std::erase(succs, id_);
  succs_ = std::move(succs);
  CBPS_ASSERT(finger_nodes.size() == fingers_.size());
  for (std::size_t i = 0; i < finger_nodes.size(); ++i) {
    fingers_.set(i, finger_nodes[i]);
  }
  joining_ = false;
}

void ChordNode::set_successor_front(Key s) {
  if (s == id_) return;
  std::erase(succs_, s);
  succs_.insert(succs_.begin(), s);
  if (succs_.size() > config().successor_list_size) {
    succs_.resize(config().successor_list_size);
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void ChordNode::receive(Envelope env) {
  // A crashed process reads nothing off the wire (a message can already
  // be scheduled for delivery when the crash lands).
  if (offline_) return;

  // Log lines emitted while handling this message carry our identity.
  const logctx::ScopedNode log_node(id_);

  // Passive learning: every envelope reveals the sender and its claimed
  // covered range. Senders with no predecessor are not ring-integrated
  // (joining nodes) and must not become routing candidates.
  if (env.from_has_pred) cache_.insert(env.from, env.from_pred);

  // An evicted contact is talking to us again — the partition healed (or
  // the eviction was spurious); stop probing for it.
  remembered_.erase(env.from);

  // Opportunistic ring repair: if an integrated sender sits between us
  // and our current successor, the ring merged (or healed) and the
  // sender is our better successor. Mirrors the stabilize rule, but
  // fires on every message instead of once per maintenance period.
  // An isolated node (every peer evicted: empty successor list, or
  // collapsed to itself) takes any integrated sender as its way back in.
  const bool isolated = succs_.empty() || succs_.front() == id_;
  if (env.from_has_pred && !joining_ && env.from != id_ &&
      (isolated ||
       ring().in_open_open(id_, succs_.front(), env.from))) {
    set_successor_front(env.from);
    transmit(env.from, NotifyPredMsg{}, MessageClass::kControl);
  }

  // Reliability: ack every seq-stamped message, then suppress
  // retransmits we already processed. The ack is sent unconditionally —
  // a duplicate means our previous ack was lost in flight.
  if (const std::uint64_t* seq = seq_field(env.msg);
      seq != nullptr && *seq != 0) {
    transmit(env.from, AckMsg{*seq}, MessageClass::kControl);
    if (!seen_seqs_[env.from].insert(*seq).second) {
      net_.hot().dup_suppressed->inc();
      return;
    }
  }

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RouteMsg>) {
          handle_route(std::move(m));
        } else if constexpr (std::is_same_v<T, McastMsg>) {
          handle_mcast(m);
        } else if constexpr (std::is_same_v<T, ChainMsg>) {
          handle_chain(std::move(m));
        } else if constexpr (std::is_same_v<T, NeighborMsg>) {
          if (app_ != nullptr) app_->on_deliver(id_, m.payload);
        } else if constexpr (std::is_same_v<T, AckMsg>) {
          handle_ack(m.acked_seq);
        } else if constexpr (std::is_same_v<T, OwnerInfoMsg>) {
          cache_.insert(m.owner, m.owner_range_lo);
        } else if constexpr (std::is_same_v<T, FindSuccessorReq>) {
          handle_find_successor(std::move(m));
        } else if constexpr (std::is_same_v<T, FindSuccessorReply>) {
          handle_find_successor_reply(m);
        } else if constexpr (std::is_same_v<T, GetNeighborsReq>) {
          handle_get_neighbors(m);
        } else if constexpr (std::is_same_v<T, GetNeighborsReply>) {
          handle_get_neighbors_reply(m, env.from);
        } else if constexpr (std::is_same_v<T, NotifyPredMsg>) {
          handle_notify_pred(env.from);
        } else if constexpr (std::is_same_v<T, PullStateReq>) {
          handle_pull_state(m);
        } else if constexpr (std::is_same_v<T, StateTransferMsg>) {
          if (m.state != nullptr && app_ != nullptr) {
            app_->import_state(m.state);
          }
        } else if constexpr (std::is_same_v<T, PredLeaveMsg>) {
          handle_pred_leave(m, env.from);
        } else if constexpr (std::is_same_v<T, SuccLeaveMsg>) {
          handle_succ_leave(m, env.from);
        }
      },
      env.msg);
}

}  // namespace cbps::chord
