#include "cbps/pubsub/node.hpp"

#include <algorithm>
#include <utility>

#include "cbps/common/logging.hpp"
#include "cbps/common/sorted_view.hpp"

namespace cbps::pubsub {

using metrics::DropReason;
using metrics::SpanKind;
using overlay::PayloadPtr;

namespace {

/// The first sampled trace context among the notifications in `items`
/// (`trace_of` reads one item's), or an unsampled one. A batch payload
/// takes it so the overlay's hop spans attach to one of its traces.
template <class T, class TraceOf>
metrics::TraceRef first_sampled(const std::vector<T>& items,
                                TraceOf trace_of) {
  for (const T& item : items) {
    if (trace_of(item).sampled()) return trace_of(item);
  }
  return {};
}

}  // namespace

PubSubNode::PubSubNode(overlay::OverlayNode& overlay,
                       sim::Simulator& sim, const AkMapping& mapping,
                       PubSubConfig cfg)
    : overlay_(overlay), sim_(sim), mapping_(mapping), cfg_(cfg),
      key_load_(cfg.key_topk_capacity) {
  store_.use_engine(cfg_.match_engine, mapping_.schema());
  overlay_.set_app(this);
}

PubSubNode::~PubSubNode() = default;

// ---------------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------------

void PubSubNode::send_to_keys(const std::vector<Key>& keys,
                              PayloadPtr payload,
                              PubSubConfig::Transport transport) {
  if (keys.empty()) return;
  switch (transport) {
    case PubSubConfig::Transport::kUnicast:
      for (Key k : keys) overlay_.send(k, payload);
      break;
    case PubSubConfig::Transport::kMulticast:
      overlay_.m_cast(keys, std::move(payload));
      break;
    case PubSubConfig::Transport::kChain:
      overlay_.chain_cast(keys, std::move(payload));
      break;
  }
}

void PubSubNode::send_to_runs(const std::vector<KeyRange>& runs,
                              PayloadPtr payload,
                              PubSubConfig::Transport transport) {
  if (transport == PubSubConfig::Transport::kMulticast) {
    if (!runs.empty()) overlay_.m_cast_runs(runs, std::move(payload));
    return;
  }
  send_to_keys(expand_ascending(overlay_.ring(), runs), std::move(payload),
               transport);
}

void PubSubNode::subscribe(SubscriptionPtr sub, sim::SimTime ttl) {
  CBPS_ASSERT(sub != nullptr && sub->id != 0);
  CBPS_ASSERT_MSG(sub->subscriber == overlay_.id(),
                  "subscription's subscriber key must be this node");
  // SK(sub) is computed here, once: every message, stored copy, replica
  // and handed-over record of this subscription shares these runs.
  const RunsPtr runs = std::make_shared<const std::vector<KeyRange>>(
      mapping_.subscription_ranges(*sub));
  const sim::SimTime expiry =
      ttl == sim::kSimTimeNever ? sim::kSimTimeNever : sim_.now() + ttl;
  own_subs_[sub->id] = OwnSub{sub, expiry, runs};
  metrics::TraceRef trace;
  if (trace_ != nullptr && trace_->enabled()) {
    if (const std::uint64_t tid = trace_->maybe_start_trace(); tid != 0) {
      const auto now = sim_.now();
      const std::uint64_t keys = key_count(mapping_.ring(), *runs);
      const std::uint64_t root = trace_->emit(
          metrics::TraceRef{tid, 0}, SpanKind::kSubscribe, overlay_.id(),
          now, now, sub->id, keys);
      const std::uint64_t map_span = trace_->emit(
          metrics::TraceRef{tid, root}, SpanKind::kMap, overlay_.id(), now,
          now, keys);
      trace = metrics::TraceRef{tid, map_span};
    }
  }
  send_to_runs(*runs, make_payload(SubscribeMsg{sub, expiry, runs}, trace),
               cfg_.sub_transport);
}

std::size_t PubSubNode::refresh_subscriptions() {
  if (halted_) return 0;
  std::size_t n = 0;
  // Refresh sends draw wire randomness per message, so emission order
  // must be a function of the subscription set, not hash layout (D1).
  for (const auto* entry : sorted_view(own_subs_)) {
    const OwnSub& own = entry->second;
    if (own.expires_at != sim::kSimTimeNever &&
        own.expires_at <= sim_.now()) {
      continue;  // already expired; a refresh must not resurrect it
    }
    send_to_runs(*own.runs,
                 make_payload(SubscribeMsg{own.sub, own.expires_at, own.runs}),
                 cfg_.sub_transport);
    ++n;
  }
  return n;
}

void PubSubNode::unsubscribe(SubscriptionId id) {
  auto it = own_subs_.find(id);
  if (it == own_subs_.end()) return;
  send_to_runs(*it->second.runs, make_payload(UnsubscribeMsg{id}),
               cfg_.sub_transport);
  own_subs_.erase(it);
}

std::size_t PubSubNode::publish(EventPtr event) {
  CBPS_ASSERT(event != nullptr && event->id != 0);
  const std::vector<Key> keys = mapping_.event_keys(*event);
  metrics::TraceRef trace;
  if (trace_ != nullptr && trace_->enabled()) {
    if (const std::uint64_t tid = trace_->maybe_start_trace(); tid != 0) {
      const auto now = sim_.now();
      const std::uint64_t root = trace_->emit(
          metrics::TraceRef{tid, 0}, SpanKind::kPublish, overlay_.id(), now,
          now, event->id, keys.size());
      const std::uint64_t map_span = trace_->emit(
          metrics::TraceRef{tid, root}, SpanKind::kMap, overlay_.id(), now,
          now, keys.size());
      trace = metrics::TraceRef{tid, map_span};
    }
  }
  send_to_keys(keys,
               make_payload(PublishMsg{std::move(event), overlay_.id(),
                                       sim_.now()},
                            trace),
               cfg_.pub_transport);
  return keys.size();
}

// ---------------------------------------------------------------------------
// Delivery dispatch
// ---------------------------------------------------------------------------

void PubSubNode::on_deliver(Key key, const PayloadPtr& payload) {
  const Key covered[] = {key};
  dispatch(covered, payload);
}

void PubSubNode::on_deliver_mcast(std::span<const Key> covered,
                                  const PayloadPtr& payload) {
  dispatch(covered, payload);
}

void PubSubNode::halt() {
  halted_ = true;
  // A crashed process loses its volatile buffers; the armed one-shot
  // timers see halted_ and do nothing when they fire.
  notify_buffer_.clear();
  collect_to_succ_.clear();
  collect_to_pred_.clear();
}

std::size_t PubSubNode::re_replicate() {
  if (cfg_.replication_factor == 0 || halted_) return 0;
  // Re-own first: a replica whose owner crashed leaves this node covering
  // its range while still holding only the passive copy — with no owner,
  // nothing would ever rebuild the chain and a second crash loses the
  // record. Collect before upgrading (no mutation during for_each).
  std::vector<SubscriptionStore::Record> adopt;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica && any_run_in_coverage(*rec.runs)) adopt.push_back(rec);
  });
  for (SubscriptionStore::Record& rec : adopt) {
    rec.replica = false;
    store_.insert(std::move(rec));
  }
  // Re-home second: an owned record none of whose ranges intersect our
  // coverage is stranded here (accepted while our predecessor was
  // unknown mid-repair, so our believed coverage was transiently huge).
  // Re-issue it toward its current rendezvous and drop our copy.
  std::vector<SubscriptionStore::Record> stranded;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (!rec.replica && !any_run_in_coverage(*rec.runs)) {
      stranded.push_back(rec);
    }
  });
  for (const SubscriptionStore::Record& rec : stranded) {
    store_.remove(rec.sub->id);
    send_to_runs(*rec.runs,
                 make_payload(SubscribeMsg{rec.sub, rec.expires_at, rec.runs}),
                 cfg_.sub_transport);
  }
  std::size_t n = 0;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) return;
    overlay_.send_to_successor(make_payload(ReplicaMsg{
        {rec.sub, rec.expires_at, rec.runs}, cfg_.replication_factor}));
    ++n;
  });
  return n;
}

void PubSubNode::dispatch(std::span<const Key> covered,
                          const PayloadPtr& payload) {
  if (halted_) return;
  const Message* msg = message_of(*payload);
  if (msg == nullptr) {
    CBPS_LOG_WARN << "pubsub node " << overlay_.id()
                  << ": foreign payload dropped";
    return;
  }
  const Arrival at{covered, payload->trace};
  std::visit([&](const auto& m) { handle(m, at); }, *msg);
}

// ---------------------------------------------------------------------------
// Rendezvous-side handling
// ---------------------------------------------------------------------------

void PubSubNode::handle(const SubscribeMsg& msg, const Arrival& at) {
  // Load attribution: one store op per rendezvous key this delivery
  // covers (an m-cast delivery stores under several keys at once).
  key_load_.subs_stored.offer_each(at.covered);
  const bool fresh = store_.insert(SubscriptionStore::Record{
      msg.sub, msg.expires_at, msg.runs, /*replica=*/false});
  if (msg.expires_at != sim::kSimTimeNever) schedule_sweep();
  if (fresh && cfg_.replication_factor > 0) {
    overlay_.send_to_successor(make_payload(ReplicaMsg{
        {msg.sub, msg.expires_at, msg.runs}, cfg_.replication_factor}));
  }
}

void PubSubNode::handle(const UnsubscribeMsg& msg, const Arrival&) {
  const bool removed = store_.remove(msg.sub_id);
  if (removed && cfg_.replication_factor > 0) {
    overlay_.send_to_successor(make_payload(
        ReplicaRemoveMsg{msg.sub_id, cfg_.replication_factor}));
  }
}

void PubSubNode::handle(const ReplicaMsg& msg, const Arrival&) {
  store_.insert(SubscriptionStore::Record{msg.record.sub,
                                          msg.record.expires_at,
                                          msg.record.runs,
                                          /*replica=*/true});
  if (msg.record.expires_at != sim::kSimTimeNever) schedule_sweep();
  if (msg.remaining_hops > 1) {
    overlay_.send_to_successor(
        make_payload(ReplicaMsg{msg.record, msg.remaining_hops - 1}));
  }
}

void PubSubNode::handle(const ReplicaRemoveMsg& msg, const Arrival&) {
  store_.remove(msg.sub_id);
  if (msg.remaining_hops > 1) {
    overlay_.send_to_successor(make_payload(
        ReplicaRemoveMsg{msg.sub_id, msg.remaining_hops - 1}));
  }
}

void PubSubNode::handle(const PublishMsg& msg, const Arrival& at) {
  const std::span<const Key> covered = at.covered;
  const auto matches = store_.match(*msg.event, sim_.now());
  std::vector<std::uint64_t> per_key_notifies(covered.size(), 0);
  for (const SubscriptionStore::Record* rec : matches) {
    // Mapping-level exactly-once filter: with multi-key EK mappings only
    // the subscription's selective key notifies. The first responsible
    // covered key takes the load attribution, so each notification is
    // charged exactly once.
    const auto responsible = std::find_if(
        covered.begin(), covered.end(), [&](Key k) {
          return mapping_.should_notify(*rec->sub, *msg.event, k);
        });
    if (responsible == covered.end()) continue;
    ++per_key_notifies[responsible - covered.begin()];
    key_load_.notify_fanout.offer(*responsible);
    route_match(*rec, msg.event, msg.published_at, at.trace);
  }
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < covered.size(); ++i) {
    key_load_.match_calls.offer(covered[i]);
    key_load_.match_units.offer(covered[i], matches.size());
    if (trace_ != nullptr && at.trace.sampled()) {
      trace_->emit(at.trace, SpanKind::kHotKey, overlay_.id(), now, now,
                   covered[i], per_key_notifies[i]);
    }
  }
}

void PubSubNode::surface(const Notification& n) {
  const sim::SimTime now = sim_.now();
  if (cfg_.duplicate_suppression &&
      !delivered_.emplace(n.event->id, n.subscription).second) {
    ++duplicates_suppressed_;
    if (trace_ != nullptr && n.trace.sampled()) {
      trace_->emit(n.trace, SpanKind::kDrop, overlay_.id(), now, now,
                   static_cast<std::uint64_t>(DropReason::kDuplicate));
    }
    return;
  }
  ++notifications_received_;
  const double delay_s = sim::to_seconds(now - n.published_at);
  delay_hist_.add(delay_s);
  if (trace_ != nullptr && n.trace.sampled()) {
    // Instant at arrival — a span must not start before its parent (the
    // notify send); the end-to-end latency is the distance to the trace's
    // publish root (and lives in the delay histogram anyway).
    trace_->emit(n.trace, SpanKind::kDeliver, overlay_.id(), now, now,
                 n.subscription, n.event->id);
  }
  if (sink_) sink_(overlay_.id(), n);
}

void PubSubNode::handle(const NotifyMsg& msg, const Arrival&) {
  if (msg.subscriber != overlay_.id()) {
    // Notifications are routed by the subscriber's key, so when the
    // addressee is gone (crashed, or the ring moved mid-route) the
    // message lands on whoever now owns that key. Surfacing it here
    // would be a ghost delivery under the dead subscriber's identity.
    if (trace_ != nullptr) {
      const sim::SimTime now = sim_.now();
      for (const Notification& n : msg.batch) {
        if (!n.trace.sampled()) continue;
        trace_->emit(n.trace, SpanKind::kDrop, overlay_.id(), now, now,
                     static_cast<std::uint64_t>(DropReason::kMisdirected));
      }
    }
    return;
  }
  for (const Notification& n : msg.batch) surface(n);
}

// ---------------------------------------------------------------------------
// Notification paths: immediate, buffered, collected (§4.3.2)
// ---------------------------------------------------------------------------

void PubSubNode::route_match(const SubscriptionStore::Record& rec,
                             EventPtr event, sim::SimTime published_at,
                             metrics::TraceRef trace) {
  Notification n{std::move(event), rec.sub->id, published_at, trace};
  const Key subscriber = rec.sub->subscriber;

  if (cfg_.collecting) {
    const KeyRange* range = my_range_for(rec);
    if (range != nullptr && range->size(overlay_.ring()) > 1 &&
        !is_agent_for(*range)) {
      enqueue_collect(CollectItem{*range, subscriber, std::move(n)});
      return;
    }
    // We are the agent (or the range is degenerate): buffer and flush
    // periodically toward the subscriber.
    buffer_notification(subscriber, std::move(n));
    return;
  }
  if (cfg_.buffering) {
    buffer_notification(subscriber, std::move(n));
    return;
  }
  if (trace_ != nullptr && n.trace.sampled()) {
    const auto now = sim_.now();
    const std::uint64_t span = trace_->emit(
        n.trace, SpanKind::kNotify, overlay_.id(), now, now, subscriber, 1);
    if (span != 0) n.trace.parent_span = span;
  }
  ++notify_batches_sent_;
  ++notifications_sent_;
  const metrics::TraceRef hop_trace = n.trace;
  overlay_.send(subscriber,
                make_payload(NotifyMsg{subscriber, {std::move(n)}}, hop_trace));
}

void PubSubNode::buffer_notification(Key subscriber, Notification n) {
  if (trace_ != nullptr && n.trace.sampled()) {
    const auto now = sim_.now();
    const std::uint64_t span = trace_->emit(
        n.trace, SpanKind::kBuffer, overlay_.id(), now, now, subscriber);
    if (span != 0) n.trace.parent_span = span;
  }
  notify_buffer_[subscriber].push_back(std::move(n));
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    // The flush timer is this node's own event: key it by this node's
    // overlay domain.
    const common::ActorScope as(overlay_.domain());
    sim_.schedule_after(cfg_.buffer_period, [this] {
      flush_scheduled_ = false;
      if (!halted_) flush_notify_buffer();
    });
  }
}

void PubSubNode::flush_notify_buffer() {
  // One NotifyMsg per subscriber, in subscriber-key order: send order
  // decides wire RNG draws and event keys downstream, so it must not
  // depend on the buffer's bucket layout (D1).
  for (auto* entry : sorted_view(notify_buffer_)) {
    const Key subscriber = entry->first;
    std::vector<Notification>& batch = entry->second;
    if (batch.empty()) continue;
    ++notify_batches_sent_;
    notifications_sent_ += batch.size();
    if (trace_ != nullptr) {
      const auto now = sim_.now();
      for (Notification& n : batch) {
        if (!n.trace.sampled()) continue;
        const std::uint64_t span =
            trace_->emit(n.trace, SpanKind::kNotify, overlay_.id(), now, now,
                         subscriber, batch.size());
        if (span != 0) n.trace.parent_span = span;
      }
    }
    const metrics::TraceRef trace = first_sampled(
        batch, [](const Notification& n) { return n.trace; });
    overlay_.send(subscriber,
                  make_payload(NotifyMsg{subscriber, std::move(batch)}, trace));
  }
  notify_buffer_.clear();
}

void PubSubNode::enqueue_collect(CollectItem item) {
  if (trace_ != nullptr && item.notification.trace.sampled()) {
    const auto now = sim_.now();
    const std::uint64_t span =
        trace_->emit(item.notification.trace, SpanKind::kCollect,
                     overlay_.id(), now, now, item.subscriber);
    if (span != 0) item.notification.trace.parent_span = span;
  }
  auto& queue =
      agent_toward_successor(item.range) ? collect_to_succ_ : collect_to_pred_;
  queue.push_back(std::move(item));
  if (!collect_scheduled_) {
    collect_scheduled_ = true;
    const common::ActorScope as(overlay_.domain());
    sim_.schedule_after(cfg_.buffer_period, [this] {
      collect_scheduled_ = false;
      if (!halted_) flush_collect_buffers();
    });
  }
}

void PubSubNode::flush_collect_buffers() {
  // One message per direction regardless of how many subscriptions are
  // involved: "the cost of exchanging notifications between neighbor
  // nodes is amortized across all stored subscriptions" (§4.3.2).
  const auto send_batch = [this](std::vector<CollectItem>& items,
                                 bool to_successor) {
    if (items.empty()) return;
    const metrics::TraceRef trace = first_sampled(
        items, [](const CollectItem& item) { return item.notification.trace; });
    PayloadPtr out = make_payload(CollectMsg{std::move(items)}, trace);
    items.clear();
    if (to_successor) {
      overlay_.send_to_successor(std::move(out));
    } else {
      overlay_.send_to_predecessor(std::move(out));
    }
  };
  send_batch(collect_to_succ_, /*to_successor=*/true);
  send_batch(collect_to_pred_, /*to_successor=*/false);
}

void PubSubNode::handle(const CollectMsg& msg, const Arrival&) {
  for (const CollectItem& item : msg.items) {
    if (is_agent_for(item.range)) {
      buffer_notification(item.subscriber, item.notification);
    } else {
      // Keep moving toward the agent; re-batched with our own pending
      // items on the next flush.
      enqueue_collect(item);
    }
  }
}

// ---------------------------------------------------------------------------
// Expiration (simulated unsubscriptions, §5.1)
// ---------------------------------------------------------------------------

void PubSubNode::schedule_sweep() {
  const sim::SimTime next = store_.next_expiry();
  if (next == sim::kSimTimeNever) return;
  const sim::SimTime at = std::max(next, sim_.now());
  if (sweep_scheduled_ && sweep_at_ <= at) return;
  sweep_scheduled_ = true;
  sweep_at_ = at;
  const common::ActorScope as(overlay_.domain());
  sim_.schedule_at(at, [this, at] {
    if (sweep_at_ != at) return;  // superseded by an earlier sweep
    sweep_scheduled_ = false;
    sweep_at_ = sim::kSimTimeNever;
    if (!halted_) sweep_expired();
  });
}

void PubSubNode::sweep_expired() {
  store_.sweep_expired(sim_.now());
  schedule_sweep();  // re-arm for the next earliest expiry, if any
}

// ---------------------------------------------------------------------------
// Collecting geometry
// ---------------------------------------------------------------------------

bool PubSubNode::covers_key(Key k) const {
  const RingParams ring = overlay_.ring();
  const Key pred = overlay_.predecessor_id();
  if (pred == overlay_.id()) return true;  // whole ring
  return ring.in_open_closed(pred, overlay_.id(), k);
}

bool PubSubNode::coverage_intersects(const KeyRange& r) const {
  const RingParams ring = overlay_.ring();
  const Key pred = overlay_.predecessor_id();
  if (pred == overlay_.id()) return true;
  // (pred, id] and [r.lo, r.hi] intersect iff either contains the
  // other's first element.
  return ring.in_open_closed(pred, overlay_.id(), r.lo) ||
         ring.in_closed_closed(r.lo, r.hi, ring.add(pred, 1));
}

bool PubSubNode::any_run_in_coverage(
    const std::vector<KeyRange>& runs) const {
  return std::any_of(runs.begin(), runs.end(), [&](const KeyRange& r) {
    return coverage_intersects(r);
  });
}

const KeyRange* PubSubNode::my_range_for(
    const SubscriptionStore::Record& rec) const {
  for (const KeyRange& r : *rec.runs) {
    if (coverage_intersects(r)) return &r;
  }
  return nullptr;
}

bool PubSubNode::is_agent_for(const KeyRange& r) const {
  return covers_key(overlay_.ring().midpoint(r.lo, r.hi));
}

bool PubSubNode::agent_toward_successor(const KeyRange& r) const {
  const RingParams ring = overlay_.ring();
  const Key mid = ring.midpoint(r.lo, r.hi);
  const Key pos =
      ring.in_closed_closed(r.lo, r.hi, overlay_.id()) ? overlay_.id() : r.hi;
  return ring.distance(r.lo, pos) < ring.distance(r.lo, mid);
}

// ---------------------------------------------------------------------------
// State handover (joins / leaves, §4.1)
// ---------------------------------------------------------------------------

overlay::PayloadPtr PubSubNode::export_state(Key range_lo, Key range_hi,
                                             bool remove) {
  const RingParams ring = overlay_.ring();
  const auto in_handed_range = [&](const KeyRange& r) {
    // (range_lo, range_hi] vs [r.lo, r.hi]
    return ring.in_open_closed(range_lo, range_hi, r.lo) ||
           ring.in_closed_closed(r.lo, r.hi, ring.add(range_lo, 1));
  };

  std::vector<StoredSubRecord> out;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) {
      // The receiver is taking over (part of) our ring position, which
      // makes it a better-placed holder for every replica chain we
      // participate in; hand replicas over as replicas. We keep our own
      // copies too (extra copies are harmless: a replica only ever
      // matches events once its holder legitimately covers their keys).
      out.push_back({rec.sub, rec.expires_at, rec.runs, true});
      return;
    }
    if (std::any_of(rec.runs->begin(), rec.runs->end(), in_handed_range)) {
      out.push_back({rec.sub, rec.expires_at, rec.runs, false});
    }
  });

  if (remove) {
    // Keep records that still intersect our remaining coverage
    // (range_hi, id]; when the whole range is handed away (leave),
    // nothing remains.
    const bool nothing_left = range_hi == overlay_.id();
    store_.remove_if([&](const SubscriptionStore::Record& rec) {
      if (rec.replica) return false;
      if (!std::any_of(rec.runs->begin(), rec.runs->end(),
                       in_handed_range)) {
        return false;
      }
      if (nothing_left) return true;
      const auto in_remaining = [&](const KeyRange& r) {
        return ring.in_open_closed(range_hi, overlay_.id(), r.lo) ||
               ring.in_closed_closed(r.lo, r.hi, ring.add(range_hi, 1));
      };
      return !std::any_of(rec.runs->begin(), rec.runs->end(),
                          in_remaining);
    });
  }
  return make_payload(StateMsg{std::move(out)});
}

void PubSubNode::import_state(const overlay::PayloadPtr& state) {
  dispatch({}, state);
}

void PubSubNode::handle(const StateMsg& msg, const Arrival&) {
  bool any_expiring = false;
  for (const StoredSubRecord& rec : msg.records) {
    // Ownership check: after a partition heals, state transfers can land
    // on a node the re-merged ring no longer makes responsible for any
    // of the record's ranges. Storing it here would strand it — re-issue
    // it as a fresh subscription toward the current rendezvous instead.
    if (!rec.replica && !any_run_in_coverage(*rec.runs)) {
      send_to_runs(*rec.runs,
                   make_payload(SubscribeMsg{rec.sub, rec.expires_at,
                                             rec.runs}),
                   cfg_.sub_transport);
      continue;
    }
    const bool fresh = store_.insert(SubscriptionStore::Record{
        rec.sub, rec.expires_at, rec.runs, rec.replica});
    // A freshly learned owned record needs its replica chain built along
    // the *current* successors (the exporter's chain predates the move).
    if (fresh && !rec.replica && cfg_.replication_factor > 0) {
      overlay_.send_to_successor(make_payload(ReplicaMsg{
          {rec.sub, rec.expires_at, rec.runs}, cfg_.replication_factor}));
    }
    any_expiring |= rec.expires_at != sim::kSimTimeNever;
  }
  if (any_expiring) schedule_sweep();
}

}  // namespace cbps::pubsub
