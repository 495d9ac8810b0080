#include <algorithm>

#include "cbps/common/exec_context.hpp"
#include "cbps/common/hash.hpp"
#include "cbps/common/logging.hpp"
#include "cbps/overlay/mcast_partition.hpp"
#include "cbps/pastry/pastry.hpp"

namespace cbps::pastry {

using metrics::DropReason;
using metrics::SpanKind;
using overlay::MessageClass;
using overlay::PayloadPtr;

namespace {

/// Trace context for the next span at this hop (see chord/node.cpp).
metrics::TraceRef hop_ref(const PayloadPtr& payload,
                          std::uint64_t parent_span) {
  metrics::TraceRef t = payload ? payload->trace : metrics::TraceRef{};
  if (parent_span != 0) t.parent_span = parent_span;
  return t;
}

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

PastryNode::PastryNode(PastryNetwork& net, Key id, std::string name,
                       common::Domain domain)
    : net_(net), id_(id), name_(std::move(name)), domain_(domain) {
  table_.resize(net_.ring().bits());
}

RingParams PastryNode::ring() const { return net_.ring(); }
const PastryConfig& PastryNode::config() const { return net_.config(); }

Key PastryNode::successor_id() const {
  return leaf_succ_.empty() ? id_ : leaf_succ_.front();
}

Key PastryNode::predecessor_id() const {
  return leaf_pred_.empty() ? id_ : leaf_pred_.front();
}

bool PastryNode::covers(Key k) const {
  if (leaf_pred_.empty()) return true;  // alone in the overlay
  return ring().in_open_closed(leaf_pred_.front(), id_, k);
}

void PastryNode::install_state(std::vector<Key> leaf_pred,
                               std::vector<Key> leaf_succ,
                               std::vector<std::optional<Key>> table) {
  CBPS_ASSERT(table.size() == ring().bits());
  leaf_pred_ = std::move(leaf_pred);
  leaf_succ_ = std::move(leaf_succ);
  table_ = std::move(table);
}

bool PastryNode::transmit(Key to, WireMessage msg, MessageClass cls) {
  CBPS_ASSERT_MSG(to != id_, "self-transmit must be a local delivery");
  // Gossip is best-effort even on a reliable wire (see ChordNode): the
  // epidemic's redundancy is its loss recovery.
  if (config().reliable_transport() && cls != MessageClass::kGossip &&
      seq_field(msg) != nullptr) {
    return transmit_reliable(to, std::move(msg), cls);
  }
  if (!net_.transmit(id_, to, std::move(msg), cls)) {
    net_.hot().send_to_dead->inc();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Ack/retry reliability (armed only when the network injects loss)
// ---------------------------------------------------------------------------

bool PastryNode::transmit_reliable(Key to, WireMessage msg,
                                   MessageClass cls) {
  const std::uint64_t seq = next_send_seq_++;
  *seq_field(msg) = seq;
  if (!net_.transmit(id_, to, msg, cls)) {
    net_.hot().send_to_dead->inc();
    return false;
  }
  PendingSend p;
  p.to = to;
  p.cls = cls;
  p.timeout = config().retry_base;
  {
    // The retry timer is this node's own event: key/place it on this
    // node's domain so handle_ack's cancel is always same-shard.
    const common::ActorScope as(domain_);
    p.timer = net_.sim().schedule_after(p.timeout,
                                        [this, seq] { retransmit(seq); });
  }
  p.msg = std::move(msg);  // retransmission copy; payload ptr is shared
  pending_sends_.emplace(seq, std::move(p));
  return true;
}

void PastryNode::retransmit(std::uint64_t seq) {
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
  // The Pastry harness has no membership dynamics, so this only fires if
  // a peer was removed out-of-band; count the loss.
  pending_sends_.erase(it);
  net_.hot().send_failed->inc();
}

void PastryNode::handle_ack(std::uint64_t acked_seq) {
  auto it = pending_sends_.find(acked_seq);
  if (it == pending_sends_.end()) return;  // late ack of a retransmit
  net_.hot().retries_per_send->add(it->second.retries);
  net_.sim().cancel(it->second.timer);
  pending_sends_.erase(it);
}

void PastryNode::cancel_pending_sends() {
  // detlint: unordered-ok(cancel marks slots stale; commutative, no output)
  for (auto& [_, p] : pending_sends_) net_.sim().cancel(p.timer);
  pending_sends_.clear();
}

unsigned PastryNode::shared_prefix_bits(Key key) const {
  const unsigned m = ring().bits();
  const Key diff = (key ^ id_) & ring().max_key();
  if (diff == 0) return m;
  unsigned shared = 0;
  for (unsigned bit = m; bit-- > 0;) {
    if ((diff >> bit) & 1) break;
    ++shared;
  }
  return shared;
}

std::vector<Key> PastryNode::known_nodes_by_distance() const {
  std::vector<Key> nodes;
  nodes.insert(nodes.end(), leaf_succ_.begin(), leaf_succ_.end());
  nodes.insert(nodes.end(), leaf_pred_.begin(), leaf_pred_.end());
  for (const auto& e : table_) {
    if (e) nodes.push_back(*e);
  }
  std::sort(nodes.begin(), nodes.end(), [this](Key a, Key b) {
    return ring().distance(id_, a) < ring().distance(id_, b);
  });
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::erase(nodes, id_);
  return nodes;
}

std::optional<Key> PastryNode::next_hop(Key key) const {
  if (covers(key)) return std::nullopt;

  // Leaf-set completion: if the key falls inside the leaf span, hand it
  // to the leaf that covers it (successor-of-key among the leaves).
  if (!leaf_succ_.empty() &&
      ring().in_open_closed(id_, leaf_succ_.back(), key)) {
    for (Key l : leaf_succ_) {
      if (ring().in_open_closed(id_, l, key)) return l;
    }
  }

  // Prefix routing: the row-r entry shares r bits with us and differs at
  // bit r; if `key` also differs from us exactly at bit r, that entry is
  // one prefix digit closer to key.
  const unsigned shared = shared_prefix_bits(key);
  if (shared < ring().bits() && table_[shared]) {
    return table_[shared];
  }

  // Rare case: no table entry — fall back to the closest known node
  // strictly preceding the key (guaranteed ring progress, like Chord).
  std::optional<Key> best;
  std::uint64_t best_dist = 0;
  for (Key c : known_nodes_by_distance()) {
    if (!ring().in_open_closed(id_, key, c)) continue;
    const std::uint64_t d = ring().distance(id_, c);
    if (!best || d > best_dist) {
      best = c;
      best_dist = d;
    }
  }
  if (best) return best;
  if (!leaf_succ_.empty()) return leaf_succ_.front();
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Unicast
// ---------------------------------------------------------------------------

void PastryNode::send(Key key, PayloadPtr payload) {
  RouteMsg msg{key, std::move(payload), 0};
  if (covers(key)) {
    net_.self_deliver([this, msg = std::move(msg)] { deliver_route(msg); });
    return;
  }
  handle_route(std::move(msg));
}

void PastryNode::deliver_route(const RouteMsg& msg) {
  const MessageClass cls = msg.payload->message_class();
  net_.traffic().record_delivery(cls);
  net_.traffic().record_route_complete(cls, msg.hops);
  net_.hot().route_hops->add(msg.hops);
  if (app_ != nullptr) app_->on_deliver(msg.target, msg.payload);
}

void PastryNode::handle_route(RouteMsg msg) {
  if (covers(msg.target)) {
    deliver_route(msg);
    return;
  }
  if (msg.hops >= config().max_route_hops) {
    net_.hot().route_dropped->inc();
    if (auto* ts = net_.trace_sink()) {
      const auto now = net_.sim().now();
      ts->emit(hop_ref(msg.payload, msg.parent_span), SpanKind::kDrop, id_,
               now, now, static_cast<std::uint64_t>(DropReason::kMaxHops),
               msg.hops);
    }
    return;
  }
  const auto nh = next_hop(msg.target);
  if (!nh) {
    net_.hot().route_no_candidate->inc();
    if (auto* ts = net_.trace_sink()) {
      const auto now = net_.sim().now();
      ts->emit(hop_ref(msg.payload, msg.parent_span), SpanKind::kDrop, id_,
               now, now,
               static_cast<std::uint64_t>(DropReason::kNoCandidate),
               msg.hops);
    }
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  RouteMsg out = std::move(msg);
  ++out.hops;
  if (auto* ts = net_.trace_sink()) {
    const auto now = net_.sim().now();
    const std::uint64_t span =
        ts->emit(hop_ref(out.payload, out.parent_span), SpanKind::kRouteHop,
                 id_, now, now, out.target, out.hops);
    if (span != 0) out.parent_span = span;
  }
  transmit(*nh, std::move(out), cls);
}

// ---------------------------------------------------------------------------
// m-cast / chain
// ---------------------------------------------------------------------------

void PastryNode::m_cast_runs(std::vector<KeyRange> runs,
                             PayloadPtr payload) {
  if (runs.empty()) return;
  run_mcast(runs, payload, 0, /*initiator=*/true);
}

void PastryNode::run_mcast(const std::vector<KeyRange>& runs,
                           const PayloadPtr& payload, std::uint32_t hops,
                           bool initiator, std::uint64_t parent_span) {
  if (hops >= config().max_route_hops) {
    const std::uint64_t keys = key_count(ring(), runs);
    net_.hot().mcast_dropped_keys->inc(keys);
    if (auto* ts = net_.trace_sink()) {
      const auto now = net_.sim().now();
      ts->emit(hop_ref(payload, parent_span), SpanKind::kDrop, id_, now, now,
               static_cast<std::uint64_t>(DropReason::kMaxHops), keys);
    }
    return;
  }
  const std::vector<Key> candidates = known_nodes_by_distance();
  const std::optional<Key> pred =
      leaf_pred_.empty() ? std::nullopt
                         : std::optional<Key>(leaf_pred_.front());
  const overlay::McastRunPartition part = overlay::partition_mcast_runs(
      ring(), id_, overlay::covered_arc(ring(), id_, pred), runs,
      candidates);

  const std::uint64_t local_keys = key_count(ring(), part.local);
  if (local_keys > 0 && app_ != nullptr) {
    const MessageClass cls = payload->message_class();
    net_.traffic().record_delivery(cls);
    std::vector<Key> covered;
    expand_in_order(ring(), part.local, covered);
    if (initiator) {
      PayloadPtr p = payload;
      net_.self_deliver([this, covered = std::move(covered), p] {
        app_->on_deliver_mcast(covered, p);
      });
    } else {
      app_->on_deliver_mcast(covered, payload);
    }
  }
  if (!part.undeliverable.empty()) {
    const std::uint64_t keys = key_count(ring(), part.undeliverable);
    net_.hot().mcast_dropped_keys->inc(keys);
    if (auto* ts = net_.trace_sink()) {
      const auto now = net_.sim().now();
      ts->emit(hop_ref(payload, parent_span), SpanKind::kDrop, id_, now, now,
               static_cast<std::uint64_t>(DropReason::kMcastDead), keys);
    }
  }
  const std::size_t branches = part.branches.size();
  std::uint64_t split_span = parent_span;
  if (branches > 0) {
    net_.hot().mcast_fanout->add(static_cast<double>(branches));
    if (auto* ts = net_.trace_sink()) {
      std::uint64_t delegated_keys = 0;
      for (const auto& b : part.branches) {
        delegated_keys += key_count(ring(), b.runs);
      }
      const auto now = net_.sim().now();
      const std::uint64_t span =
          ts->emit(hop_ref(payload, parent_span), SpanKind::kMcastSplit, id_,
                   now, now, delegated_keys + local_keys, branches);
      if (span != 0) split_span = span;
    }
  }
  const MessageClass cls = payload->message_class();
  for (const auto& branch : part.branches) {
    transmit(candidates[branch.candidate],
             McastMsg{branch.runs, payload, hops + 1, 0, split_span}, cls);
  }
}

void PastryNode::chain_cast(std::vector<Key> keys, PayloadPtr payload) {
  if (keys.empty()) return;
  run_chain(std::move(keys), payload, 0, /*initiator=*/true);
}

void PastryNode::run_chain(std::vector<Key> keys, const PayloadPtr& payload,
                           std::uint32_t hops, bool initiator,
                           std::uint64_t parent_span) {
  std::sort(keys.begin(), keys.end(), [this](Key a, Key b) {
    return ring().distance(id_, a) < ring().distance(id_, b);
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<Key> covered;
  std::vector<Key> remaining;
  for (Key k : keys) (covers(k) ? covered : remaining).push_back(k);

  if (!covered.empty() && app_ != nullptr) {
    const MessageClass cls = payload->message_class();
    net_.traffic().record_delivery(cls);
    if (initiator) {
      PayloadPtr p = payload;
      net_.self_deliver(
          [this, covered, p] { app_->on_deliver_mcast(covered, p); });
    } else {
      app_->on_deliver_mcast(covered, payload);
    }
  }
  if (remaining.empty()) return;
  forward_chain(ChainMsg{std::move(remaining), payload, hops, 0, parent_span});
}

void PastryNode::forward_chain(ChainMsg msg) {
  if (msg.hops >= config().max_route_hops) {
    net_.hot().chain_dropped->inc();
    if (auto* ts = net_.trace_sink()) {
      const auto now = net_.sim().now();
      ts->emit(hop_ref(msg.payload, msg.parent_span), SpanKind::kDrop, id_,
               now, now, static_cast<std::uint64_t>(DropReason::kMaxHops),
               msg.targets.size());
    }
    return;
  }
  if (covers(msg.targets.front())) {
    run_chain(std::move(msg.targets), msg.payload, msg.hops,
              /*initiator=*/false, msg.parent_span);
    return;
  }
  const auto nh = next_hop(msg.targets.front());
  if (!nh) {
    net_.hot().chain_no_candidate->inc();
    if (auto* ts = net_.trace_sink()) {
      const auto now = net_.sim().now();
      ts->emit(hop_ref(msg.payload, msg.parent_span), SpanKind::kDrop, id_,
               now, now,
               static_cast<std::uint64_t>(DropReason::kNoCandidate),
               msg.targets.size());
    }
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  ChainMsg out = std::move(msg);
  ++out.hops;
  if (auto* ts = net_.trace_sink()) {
    const auto now = net_.sim().now();
    const std::uint64_t span =
        ts->emit(hop_ref(out.payload, out.parent_span), SpanKind::kRouteHop,
                 id_, now, now, out.targets.front(), out.hops);
    if (span != 0) out.parent_span = span;
  }
  transmit(*nh, std::move(out), cls);
}

// ---------------------------------------------------------------------------
// Neighbor sends
// ---------------------------------------------------------------------------

void PastryNode::send_to_successor(PayloadPtr payload) {
  if (!leaf_succ_.empty()) {
    const MessageClass cls = payload->message_class();
    transmit(leaf_succ_.front(), NeighborMsg{std::move(payload)}, cls);
    return;
  }
  if (app_ != nullptr) {
    PayloadPtr p = std::move(payload);
    net_.self_deliver([this, p] { app_->on_deliver(id_, p); });
  }
}

void PastryNode::send_to_predecessor(PayloadPtr payload) {
  if (!leaf_pred_.empty()) {
    const MessageClass cls = payload->message_class();
    transmit(leaf_pred_.front(), NeighborMsg{std::move(payload)}, cls);
    return;
  }
  if (app_ != nullptr) {
    PayloadPtr p = std::move(payload);
    net_.self_deliver([this, p] { app_->on_deliver(id_, p); });
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void PastryNode::receive(Key from, WireMessage msg) {
  const logctx::ScopedNode log_node(id_);
  // Reliability: ack every seq-stamped message, then suppress
  // retransmits we already processed (the ack is re-sent — a duplicate
  // means our previous ack was lost in flight).
  if (const std::uint64_t* seq = seq_field(msg);
      seq != nullptr && *seq != 0) {
    transmit(from, AckMsg{*seq}, MessageClass::kControl);
    if (!seen_seqs_[from].insert(*seq).second) {
      net_.hot().dup_suppressed->inc();
      if (auto* ts = net_.trace_sink()) {
        if (const auto t = wire_ref(msg); t.sampled()) {
          const auto now = net_.sim().now();
          ts->emit(t, SpanKind::kDrop, id_, now, now,
                   static_cast<std::uint64_t>(DropReason::kDuplicate));
        }
      }
      return;
    }
  }

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RouteMsg>) {
          handle_route(std::move(m));
        } else if constexpr (std::is_same_v<T, McastMsg>) {
          run_mcast(m.targets, m.payload, m.hops,
                    /*initiator=*/false, m.parent_span);
        } else if constexpr (std::is_same_v<T, ChainMsg>) {
          if (covers(m.targets.front())) {
            run_chain(std::move(m.targets), m.payload, m.hops,
                      /*initiator=*/false, m.parent_span);
          } else {
            forward_chain(std::move(m));
          }
        } else if constexpr (std::is_same_v<T, NeighborMsg>) {
          if (app_ != nullptr) app_->on_deliver(id_, m.payload);
        } else if constexpr (std::is_same_v<T, AckMsg>) {
          handle_ack(m.acked_seq);
        }
      },
      msg);
}

}  // namespace cbps::pastry
