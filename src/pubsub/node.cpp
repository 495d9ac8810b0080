#include "cbps/pubsub/node.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "cbps/common/logging.hpp"
#include "cbps/common/sorted_view.hpp"

namespace cbps::pubsub {

using metrics::DropReason;
using metrics::SpanKind;
using overlay::PayloadPtr;

namespace {

// SplitMix64 finalizer: decorrelates the per-node gossip RNG streams
// derived from (base seed, node id) — adjacent ids must not produce
// adjacent states.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

PubSubNode::PubSubNode(overlay::OverlayNode& overlay,
                       sim::SimulatorBase& sim, const AkMapping& mapping,
                       PubSubConfig cfg)
    : overlay_(overlay), sim_(sim), mapping_(mapping), cfg_(cfg),
      gossip_rng_(mix64(cfg.gossip_seed ^ mix64(overlay.id()))),
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
  const std::vector<KeyRange> runs = mapping_.subscription_ranges(*sub);
  const sim::SimTime expiry =
      ttl == sim::kSimTimeNever ? sim::kSimTimeNever : sim_.now() + ttl;
  own_subs_[sub->id] = OwnSub{sub, expiry};
  auto msg = std::make_shared<SubscribeMsg>(sub, expiry, runs);
  if (trace_ != nullptr && trace_->enabled()) {
    if (const std::uint64_t tid = trace_->maybe_start_trace(); tid != 0) {
      const auto now = sim_.now();
      const std::uint64_t keys = key_count(mapping_.ring(), runs);
      const std::uint64_t root = trace_->emit(
          metrics::TraceRef{tid, 0}, SpanKind::kSubscribe, overlay_.id(),
          now, now, sub->id, keys);
      const std::uint64_t map_span = trace_->emit(
          metrics::TraceRef{tid, root}, SpanKind::kMap, overlay_.id(), now,
          now, keys);
      msg->trace = metrics::TraceRef{tid, map_span};
    }
  }
  send_to_runs(runs, std::move(msg), cfg_.sub_transport);
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
    const std::vector<KeyRange> runs = mapping_.subscription_ranges(*own.sub);
    send_to_runs(runs,
                 std::make_shared<SubscribeMsg>(own.sub, own.expires_at, runs),
                 cfg_.sub_transport);
    ++n;
  }
  return n;
}

void PubSubNode::unsubscribe(SubscriptionId id) {
  auto it = own_subs_.find(id);
  if (it == own_subs_.end()) return;
  send_to_runs(mapping_.subscription_ranges(*it->second.sub),
               std::make_shared<UnsubscribeMsg>(id), cfg_.sub_transport);
  own_subs_.erase(it);
}

void PubSubNode::publish(EventPtr event) {
  CBPS_ASSERT(event != nullptr && event->id != 0);
  const std::vector<Key> keys = mapping_.event_keys(*event);
  fanout_hist_.add(static_cast<double>(keys.size()));
  auto msg =
      std::make_shared<PublishMsg>(event, overlay_.id(), sim_.now());
  if (trace_ != nullptr && trace_->enabled()) {
    if (const std::uint64_t tid = trace_->maybe_start_trace(); tid != 0) {
      const auto now = sim_.now();
      const std::uint64_t root = trace_->emit(
          metrics::TraceRef{tid, 0}, SpanKind::kPublish, overlay_.id(), now,
          now, event->id, keys.size());
      const std::uint64_t map_span = trace_->emit(
          metrics::TraceRef{tid, root}, SpanKind::kMap, overlay_.id(), now,
          now, keys.size());
      msg->trace = metrics::TraceRef{tid, map_span};
    }
  }
  send_to_keys(keys, std::move(msg), cfg_.pub_transport);
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
  gossip_seen_.clear();
}

std::size_t PubSubNode::re_replicate() {
  if (cfg_.replication_factor == 0 || halted_) return 0;
  // Re-own first: a replica whose owner crashed leaves this node covering
  // its range while still holding only the passive copy — with no owner,
  // nothing would ever rebuild the chain and a second crash loses the
  // record. Collect before upgrading (no mutation during for_each).
  std::vector<StoredSubRecord> adopt;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (!rec.replica) return;
    if (std::any_of(rec.ranges.begin(), rec.ranges.end(),
                    [&](const KeyRange& r) {
                      return coverage_intersects(r);
                    })) {
      adopt.push_back({rec.sub, rec.expires_at, rec.ranges, false});
    }
  });
  for (const StoredSubRecord& rec : adopt) {
    store_.insert(SubscriptionStore::Record{rec.sub, rec.expires_at,
                                            rec.ranges, /*replica=*/false});
  }
  // Re-home second: an owned record none of whose ranges intersect our
  // coverage is stranded here (accepted while our predecessor was
  // unknown mid-repair, so our believed coverage was transiently huge).
  // Re-issue it toward its current rendezvous and drop our copy.
  std::vector<StoredSubRecord> stranded;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) return;
    if (!std::any_of(rec.ranges.begin(), rec.ranges.end(),
                     [&](const KeyRange& r) {
                       return coverage_intersects(r);
                     })) {
      stranded.push_back({rec.sub, rec.expires_at, rec.ranges, false});
    }
  });
  for (const StoredSubRecord& rec : stranded) {
    store_.remove(rec.sub->id);
    ++reissued_imports_;
    send_to_runs(mapping_.subscription_ranges(*rec.sub),
                 std::make_shared<SubscribeMsg>(rec.sub, rec.expires_at,
                                                rec.ranges),
                 cfg_.sub_transport);
  }
  std::size_t n = 0;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) return;
    overlay_.send_to_successor(std::make_shared<ReplicaMsg>(
        StoredSubRecord{rec.sub, rec.expires_at, rec.ranges},
        cfg_.replication_factor));
    ++n;
  });
  return n;
}

void PubSubNode::dispatch(std::span<const Key> covered,
                          const PayloadPtr& payload) {
  if (halted_) return;
  if (auto* pub = dynamic_cast<const PublishMsg*>(payload.get())) {
    handle_publish(*pub, covered);
  } else if (auto* sub = dynamic_cast<const SubscribeMsg*>(payload.get())) {
    handle_subscribe(*sub, covered);
  } else if (auto* notify = dynamic_cast<const NotifyMsg*>(payload.get())) {
    handle_notify(*notify);
  } else if (auto* collect =
                 dynamic_cast<const CollectMsg*>(payload.get())) {
    handle_collect(*collect);
  } else if (auto* mn = dynamic_cast<const MultiNotifyMsg*>(payload.get())) {
    handle_multi_notify(*mn, covered);
  } else if (auto* gp = dynamic_cast<const GossipMsg*>(payload.get())) {
    handle_gossip(*gp);
  } else if (auto* gd = dynamic_cast<const GossipDigestMsg*>(payload.get())) {
    handle_gossip_digest(*gd);
  } else if (auto* gr = dynamic_cast<const GossipRepairMsg*>(payload.get())) {
    handle_gossip_repair(*gr);
  } else if (auto* gsr =
                 dynamic_cast<const GossipSubRepairMsg*>(payload.get())) {
    handle_gossip_sub_repair(*gsr);
  } else if (auto* unsub =
                 dynamic_cast<const UnsubscribeMsg*>(payload.get())) {
    handle_unsubscribe(*unsub);
  } else if (auto* rep = dynamic_cast<const ReplicaMsg*>(payload.get())) {
    handle_replica(*rep);
  } else if (auto* rrm =
                 dynamic_cast<const ReplicaRemoveMsg*>(payload.get())) {
    handle_replica_remove(*rrm);
  } else if (auto* st = dynamic_cast<const StateMsg*>(payload.get())) {
    import_state(payload);
    (void)st;
  } else {
    CBPS_LOG_WARN << "pubsub node " << overlay_.id()
                  << ": unknown payload type dropped";
  }
}

// ---------------------------------------------------------------------------
// Rendezvous-side handling
// ---------------------------------------------------------------------------

void PubSubNode::handle_subscribe(const SubscribeMsg& msg,
                                  std::span<const Key> covered) {
  // Load attribution: one store op per rendezvous key this delivery
  // covers (an m-cast delivery stores under several keys at once).
  for (const Key k : covered) key_load_.subs_stored.offer(k);
  SubscriptionStore::Record rec{msg.sub, msg.expires_at, msg.ranges,
                                /*replica=*/false};
  const bool fresh = store_.insert(rec);
  if (msg.expires_at != sim::kSimTimeNever) schedule_sweep();
  if (fresh && cfg_.replication_factor > 0) {
    overlay_.send_to_successor(std::make_shared<ReplicaMsg>(
        StoredSubRecord{msg.sub, msg.expires_at, msg.ranges},
        cfg_.replication_factor));
  }
}

void PubSubNode::handle_unsubscribe(const UnsubscribeMsg& msg) {
  const bool removed = store_.remove(msg.sub_id);
  if (removed && cfg_.replication_factor > 0) {
    overlay_.send_to_successor(std::make_shared<ReplicaRemoveMsg>(
        msg.sub_id, cfg_.replication_factor));
  }
}

void PubSubNode::handle_replica(const ReplicaMsg& msg) {
  store_.insert(SubscriptionStore::Record{msg.record.sub,
                                          msg.record.expires_at,
                                          msg.record.ranges,
                                          /*replica=*/true});
  if (msg.record.expires_at != sim::kSimTimeNever) schedule_sweep();
  if (msg.remaining_hops > 1) {
    overlay_.send_to_successor(
        std::make_shared<ReplicaMsg>(msg.record, msg.remaining_hops - 1));
  }
}

void PubSubNode::handle_replica_remove(const ReplicaRemoveMsg& msg) {
  store_.remove(msg.sub_id);
  if (msg.remaining_hops > 1) {
    overlay_.send_to_successor(std::make_shared<ReplicaRemoveMsg>(
        msg.sub_id, msg.remaining_hops - 1));
  }
}

void PubSubNode::handle_publish(const PublishMsg& msg,
                                std::span<const Key> covered) {
  switch (cfg_.dissemination) {
    case PubSubConfig::Dissemination::kUnicast:
      break;
    case PubSubConfig::Dissemination::kMcast:
      disseminate_mcast(msg, covered);
      return;
    case PubSubConfig::Dissemination::kGossip:
      disseminate_gossip(msg, covered);
      return;
  }
  const auto matches = store_.match(*msg.event, sim_.now());
  std::vector<std::uint64_t> per_key_notifies(covered.size(), 0);
  for (const SubscriptionStore::Record* rec : matches) {
    // Mapping-level exactly-once filter: with multi-key EK mappings
    // (Selective-Attribute) only the rendezvous holding the
    // subscription's own selective key notifies. The first responsible
    // covered key takes the load attribution, so each notification is
    // charged exactly once.
    std::size_t ki = covered.size();
    for (std::size_t i = 0; i < covered.size(); ++i) {
      if (mapping_.should_notify(*rec->sub, *msg.event, covered[i])) {
        ki = i;
        break;
      }
    }
    if (ki == covered.size()) continue;
    ++per_key_notifies[ki];
    key_load_.notify_fanout.offer(covered[ki]);
    route_match(*rec, msg.event, msg.published_at, msg.trace);
  }
  record_match_load(msg, covered, matches.size(), per_key_notifies);
}

/// Shared tail of the match paths (unicast handle_publish and the
/// m-cast/gossip collect_entries): per-key match-invocation and
/// match-set-size attribution plus the kHotKey trace spans.
void PubSubNode::record_match_load(
    const PublishMsg& msg, std::span<const Key> covered,
    std::size_t match_set_size,
    const std::vector<std::uint64_t>& per_key_notifies) {
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < covered.size(); ++i) {
    key_load_.match_calls.offer(covered[i]);
    key_load_.match_units.offer(covered[i], match_set_size);
    if (trace_ != nullptr && msg.trace.sampled()) {
      trace_->emit(msg.trace, SpanKind::kHotKey, overlay_.id(), now, now,
                   covered[i], per_key_notifies[i]);
    }
  }
}

void PubSubNode::handle_notify(const NotifyMsg& msg) {
  const sim::SimTime now = sim_.now();
  if (msg.subscriber != overlay_.id()) {
    // Notifications are routed by the subscriber's key, so when the
    // addressee is gone (crashed, or the ring moved mid-route) the
    // message lands on whoever now owns that key. Surfacing it here
    // would be a ghost delivery under the dead subscriber's identity.
    misdirected_notifies_ += msg.batch.size();
    if (trace_ != nullptr) {
      for (const Notification& n : msg.batch) {
        if (!n.trace.sampled()) continue;
        trace_->emit(n.trace, SpanKind::kDrop, overlay_.id(), now, now,
                     static_cast<std::uint64_t>(DropReason::kMisdirected));
      }
    }
    return;
  }
  for (const Notification& n : msg.batch) {
    if (cfg_.duplicate_suppression &&
        !delivered_.emplace(n.event->id, n.subscription).second) {
      ++duplicates_suppressed_;
      if (trace_ != nullptr && n.trace.sampled()) {
        trace_->emit(n.trace, SpanKind::kDrop, overlay_.id(), now, now,
                     static_cast<std::uint64_t>(DropReason::kDuplicate));
      }
      continue;
    }
    ++notifications_received_;
    const double delay_s = sim::to_seconds(now - n.published_at);
    notification_delay_.add(delay_s);
    delay_hist_.add(delay_s);
    if (trace_ != nullptr && n.trace.sampled()) {
      // Instant at arrival — a span must not start before its parent
      // (the notify send); the end-to-end latency is the distance to the
      // trace's publish root (and lives in the delay histogram anyway).
      trace_->emit(n.trace, SpanKind::kDeliver, overlay_.id(), now, now,
                   n.subscription, n.event->id);
    }
    if (sink_) sink_(msg.subscriber, n);
  }
}

// ---------------------------------------------------------------------------
// Group dissemination backends: m-cast and gossip (extensions; the
// paper's unicast notify leg stays the default)
// ---------------------------------------------------------------------------

std::vector<GossipEntry> PubSubNode::collect_entries(
    const PublishMsg& msg, std::span<const Key> covered) {
  std::vector<GossipEntry> entries;
  const auto matches = store_.match(*msg.event, sim_.now());
  std::vector<std::uint64_t> per_key_notifies(covered.size(), 0);
  for (const SubscriptionStore::Record* rec : matches) {
    // Same exactly-once filter as the unicast path: with multi-key EK
    // mappings only the rendezvous holding the subscription's selective
    // key disseminates. As there, the first responsible covered key
    // takes the load attribution.
    std::size_t ki = covered.size();
    for (std::size_t i = 0; i < covered.size(); ++i) {
      if (mapping_.should_notify(*rec->sub, *msg.event, covered[i])) {
        ki = i;
        break;
      }
    }
    if (ki == covered.size()) continue;
    ++per_key_notifies[ki];
    key_load_.notify_fanout.offer(covered[ki]);
    entries.push_back(GossipEntry{
        rec->sub->subscriber,
        Notification{msg.event, rec->sub->id, msg.published_at, msg.trace}});
  }
  record_match_load(msg, covered, matches.size(), per_key_notifies);
  // Canonical entry order: the record/payload is wire content, so its
  // layout must not depend on the match engine's internal order (D1).
  std::sort(entries.begin(), entries.end(),
            [](const GossipEntry& a, const GossipEntry& b) {
              if (a.subscriber != b.subscriber) {
                return a.subscriber < b.subscriber;
              }
              return a.notification.subscription < b.notification.subscription;
            });
  return entries;
}

void PubSubNode::surface_own_entries(const std::vector<GossipEntry>& entries) {
  const sim::SimTime now = sim_.now();
  for (const GossipEntry& e : entries) {
    if (e.subscriber != overlay_.id()) continue;
    const Notification& n = e.notification;
    if (cfg_.duplicate_suppression &&
        !delivered_.emplace(n.event->id, n.subscription).second) {
      ++duplicates_suppressed_;
      if (trace_ != nullptr && n.trace.sampled()) {
        trace_->emit(n.trace, SpanKind::kDrop, overlay_.id(), now, now,
                     static_cast<std::uint64_t>(DropReason::kDuplicate));
      }
      continue;
    }
    ++notifications_received_;
    const double delay_s = sim::to_seconds(now - n.published_at);
    notification_delay_.add(delay_s);
    delay_hist_.add(delay_s);
    if (trace_ != nullptr && n.trace.sampled()) {
      trace_->emit(n.trace, SpanKind::kDeliver, overlay_.id(), now, now,
                   n.subscription, n.event->id);
    }
    if (sink_) sink_(e.subscriber, n);
  }
}

void PubSubNode::disseminate_mcast(const PublishMsg& msg,
                                   std::span<const Key> covered) {
  auto out = std::make_shared<MultiNotifyMsg>();
  out->entries = collect_entries(msg, covered);
  if (out->entries.empty()) return;
  std::vector<Key> group;
  for (const GossipEntry& e : out->entries) {
    if (group.empty() || group.back() != e.subscriber) {
      group.push_back(e.subscriber);
    }
  }
  if (trace_ != nullptr) {
    const auto now = sim_.now();
    for (GossipEntry& e : out->entries) {
      Notification& n = e.notification;
      if (!n.trace.sampled()) continue;
      const std::uint64_t span =
          trace_->emit(n.trace, SpanKind::kNotify, overlay_.id(), now, now,
                       e.subscriber, out->entries.size());
      if (span != 0) n.trace.parent_span = span;
    }
  }
  ++notify_batches_sent_;
  notifications_sent_ += out->entries.size();
  for (const GossipEntry& e : out->entries) {
    if (e.notification.trace.sampled()) {
      out->trace = e.notification.trace;
      break;
    }
  }
  overlay_.m_cast(std::move(group), std::move(out));
}

void PubSubNode::handle_multi_notify(const MultiNotifyMsg& msg,
                                     std::span<const Key> covered) {
  const sim::SimTime now = sim_.now();
  for (const GossipEntry& e : msg.entries) {
    if (e.subscriber == overlay_.id()) continue;
    // We cover this entry's subscriber key but are not that subscriber:
    // the addressee crashed (or the ring moved). Ghost-drop, as in
    // handle_notify.
    if (std::find(covered.begin(), covered.end(), e.subscriber) !=
        covered.end()) {
      ++misdirected_notifies_;
      if (trace_ != nullptr && e.notification.trace.sampled()) {
        trace_->emit(e.notification.trace, SpanKind::kDrop, overlay_.id(),
                     now, now,
                     static_cast<std::uint64_t>(DropReason::kMisdirected));
      }
    }
  }
  surface_own_entries(msg.entries);
}

std::uint32_t PubSubNode::gossip_rounds_for(std::size_t group_size) const {
  if (cfg_.gossip_rounds != 0) return cfg_.gossip_rounds;
  // Push epidemics infect the group w.h.p. in O(log n) rounds; two extra
  // rounds of slack absorb unlucky fan-out collisions.
  std::uint32_t r = 0;
  while ((std::size_t{1} << r) < group_size) ++r;
  return r + 2;
}

void PubSubNode::disseminate_gossip(const PublishMsg& msg,
                                    std::span<const Key> covered) {
  auto rec = std::make_shared<GossipRecord>();
  rec->entries = collect_entries(msg, covered);
  if (rec->entries.empty()) return;
  rec->id = GossipId{overlay_.id(), next_gossip_seq_++};
  rec->seeded_at = sim_.now();
  for (const GossipEntry& e : rec->entries) {
    if (rec->group.empty() || rec->group.back() != e.subscriber) {
      rec->group.push_back(e.subscriber);
    }
  }
  ++notify_batches_sent_;
  notifications_sent_ += rec->entries.size();
  const GossipRecordPtr ptr = rec;  // immutable from here on
  absorb_gossip_record(ptr);  // the seed surfaces its own entries too
  gossip_push(ptr, gossip_rounds_for(ptr->group.size()));
}

void PubSubNode::gossip_push(const GossipRecordPtr& rec,
                             std::uint32_t rounds) {
  if (rounds == 0) return;
  std::vector<Key> cand;
  cand.reserve(rec->group.size());
  for (Key k : rec->group) {
    if (k != overlay_.id()) cand.push_back(k);
  }
  if (cand.empty()) return;
  metrics::TraceRef rtrace;
  for (const GossipEntry& e : rec->entries) {
    if (e.notification.trace.sampled()) {
      rtrace = e.notification.trace;
      break;
    }
  }
  const sim::SimTime now = sim_.now();
  // Partial Fisher-Yates over the group: fanout distinct peers, drawn
  // from this node's own gossip stream (never the overlay's or the
  // workload's — backends must not perturb each other's runs).
  const std::size_t n = std::min(cfg_.gossip_fanout, cand.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = static_cast<std::size_t>(gossip_rng_.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(cand.size() - 1)));
    std::swap(cand[i], cand[j]);
    auto out = std::make_shared<GossipMsg>(cand[i], rec, rounds - 1);
    out->trace = rtrace;
    ++gossip_stats_.pushes_sent;
    if (trace_ != nullptr && rtrace.sampled()) {
      trace_->emit(rtrace, SpanKind::kGossipPush, overlay_.id(), now, now,
                   rounds - 1, cand[i]);
    }
    overlay_.send(cand[i], std::move(out));
  }
}

bool PubSubNode::absorb_gossip_record(const GossipRecordPtr& rec) {
  // Past its retention deadline the record is dead system-wide; taking
  // it (from a repair racing the sender's prune) would restart its
  // retention here and feed it back into anti-entropy.
  if (rec->seeded_at + cfg_.gossip_window <= sim_.now()) return false;
  const auto [it, fresh] = gossip_seen_.try_emplace(rec->id, rec);
  if (!fresh) return false;
  surface_own_entries(rec->entries);
  schedule_anti_entropy();
  return true;
}

void PubSubNode::handle_gossip(const GossipMsg& msg) {
  if (msg.target != overlay_.id()) {
    // Pushes are key-routed, so a crashed member's share lands on its
    // key's new owner. Ghost-drop; anti-entropy is what recovers the
    // member if it comes back.
    ++gossip_stats_.misdirected;
    if (trace_ != nullptr && msg.trace.sampled()) {
      const sim::SimTime now = sim_.now();
      trace_->emit(msg.trace, SpanKind::kDrop, overlay_.id(), now, now,
                   static_cast<std::uint64_t>(DropReason::kMisdirected));
    }
    return;
  }
  if (!absorb_gossip_record(msg.rec)) {
    ++gossip_stats_.duplicates;
    return;
  }
  // Infect-and-die: forward only on first receipt, with one round spent.
  gossip_push(msg.rec, msg.rounds_left);
}

void PubSubNode::schedule_anti_entropy() {
  if (anti_entropy_scheduled_ || cfg_.anti_entropy_period == 0) return;
  if (gossip_seen_.empty()) return;
  anti_entropy_scheduled_ = true;
  const common::ActorScope as(overlay_.domain());
  sim_.schedule_after(cfg_.anti_entropy_period, [this] {
    anti_entropy_scheduled_ = false;
    if (!halted_) anti_entropy_tick();
  });
}

std::shared_ptr<GossipDigestMsg> PubSubNode::build_digest(Key to,
                                                          bool reply) {
  auto digest = std::make_shared<GossipDigestMsg>(overlay_.id(), to, reply);
  digest->have.reserve(gossip_seen_.size());
  for (const auto& [id, rec] : gossip_seen_) digest->have.push_back(id);
  // Owned records only: a replica advertised here would make every chain
  // member look like an owner and re-gossip its backup copy.
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) return;
    digest->subs.push_back(GossipSubDigest{rec.sub->id, rec.expires_at});
  });
  std::sort(digest->subs.begin(), digest->subs.end(),
            [](const GossipSubDigest& a, const GossipSubDigest& b) {
              return a.id < b.id;
            });
  return digest;
}

void PubSubNode::anti_entropy_tick() {
  const sim::SimTime now = sim_.now();
  // Retention prune: once the record's system-wide deadline passes it
  // leaves the repair inventory — and when the cache drains, the timer
  // disarms, so an idle system quiesces.
  for (auto it = gossip_seen_.begin(); it != gossip_seen_.end();) {
    if (it->second->seeded_at + cfg_.gossip_window <= now) {
      it = gossip_seen_.erase(it);
    } else {
      ++it;
    }
  }
  if (gossip_seen_.empty()) return;
  // Partners: up to fanout uniform picks over every member of every
  // cached group — the nodes that could be missing one of our records —
  // plus each record's origin. The origin is never a group member, but
  // it is the authoritative holder: digesting it lets a member pull
  // records it lost without waiting for the rendezvous to pick it,
  // doubling the repair paths per tick. One partner per tick gives too
  // few exchange attempts inside the retention window when many groups
  // share a rendezvous; fanout picks keep the repair probability in
  // step with the push phase.
  const std::set<Key> peer_set = [&] {
    std::set<Key> s;
    for (const auto& [id, rec] : gossip_seen_) {
      s.insert(rec->group.begin(), rec->group.end());
      s.insert(id.origin);
    }
    s.erase(overlay_.id());
    return s;
  }();
  std::vector<Key> peers(peer_set.begin(), peer_set.end());
  const std::size_t n = std::min(cfg_.gossip_fanout, peers.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = static_cast<std::size_t>(gossip_rng_.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(peers.size() - 1)));
    std::swap(peers[i], peers[j]);
    ++gossip_stats_.digests_sent;
    overlay_.send(peers[i], build_digest(peers[i], /*reply=*/false));
  }
  schedule_anti_entropy();
}

void PubSubNode::handle_gossip_digest(const GossipDigestMsg& msg) {
  if (msg.target != overlay_.id()) {
    ++gossip_stats_.misdirected;
    return;
  }
  answer_digest(msg);
}

void PubSubNode::answer_digest(const GossipDigestMsg& msg) {
  // Event repair: every cached record the digest's have-list lacks —
  // but only records whose group contains the peer. A record the peer
  // is not a member of is not the peer's business: pushing it would
  // spread state beyond the match group and inflate every later digest.
  // Both sides are sorted, so this is one set-difference walk.
  auto rep = std::make_shared<GossipRepairMsg>(overlay_.id(), msg.from);
  auto have_it = msg.have.begin();
  for (const auto& [id, rec] : gossip_seen_) {
    while (have_it != msg.have.end() && *have_it < id) ++have_it;
    if (have_it != msg.have.end() && *have_it == id) continue;
    if (!std::binary_search(rec->group.begin(), rec->group.end(),
                            msg.from)) {
      continue;
    }
    rep->records.push_back(rec);
  }
  if (!rep->records.empty()) {
    overlay_.send(msg.from, std::move(rep));
  }
  // Rendezvous-state repair: owned records whose SK ranges contain the
  // peer's own key — the peer covers that key, so it should be holding
  // the record as an owner — that its digest does not list. Replica
  // copies are never offered (see build_digest).
  std::vector<StoredSubRecord> missing;
  const RingParams ring = overlay_.ring();
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) return;
    const bool relevant = std::any_of(
        rec.ranges.begin(), rec.ranges.end(), [&](const KeyRange& r) {
          return ring.in_closed_closed(r.lo, r.hi, msg.from);
        });
    if (!relevant) return;
    const auto it = std::lower_bound(
        msg.subs.begin(), msg.subs.end(), rec.sub->id,
        [](const GossipSubDigest& d, SubscriptionId id) { return d.id < id; });
    if (it != msg.subs.end() && it->id == rec.sub->id) return;
    missing.push_back({rec.sub, rec.expires_at, rec.ranges, false});
  });
  if (!missing.empty()) {
    // Store iteration order is hash-layout dependent; the wire payload
    // must not be (D1).
    std::sort(missing.begin(), missing.end(),
              [](const StoredSubRecord& a, const StoredSubRecord& b) {
                return a.sub->id < b.sub->id;
              });
    auto subrep = std::make_shared<GossipSubRepairMsg>(msg.from);
    subrep->records = std::move(missing);
    overlay_.send(msg.from, std::move(subrep));
  }
  if (!msg.reply) {
    ++gossip_stats_.digests_sent;
    overlay_.send(msg.from, build_digest(msg.from, /*reply=*/true));
  }
}

void PubSubNode::handle_gossip_repair(const GossipRepairMsg& msg) {
  if (msg.target != overlay_.id()) {
    ++gossip_stats_.misdirected;
    return;
  }
  const sim::SimTime now = sim_.now();
  for (const GossipRecordPtr& rec : msg.records) {
    // Repaired records do not re-enter the push phase (no gossip_push):
    // anti-entropy converges, it does not re-ignite the epidemic.
    if (!absorb_gossip_record(rec)) continue;
    ++gossip_stats_.repair_records;
    if (trace_ != nullptr) {
      for (const GossipEntry& e : rec->entries) {
        if (!e.notification.trace.sampled()) continue;
        trace_->emit(e.notification.trace, SpanKind::kGossipRepair,
                     overlay_.id(), now, now, rec->entries.size());
        break;
      }
    }
  }
}

void PubSubNode::handle_gossip_sub_repair(const GossipSubRepairMsg& msg) {
  if (msg.target != overlay_.id()) {
    ++gossip_stats_.misdirected;
    return;
  }
  bool any_expiring = false;
  for (const StoredSubRecord& rec : msg.records) {
    if (rec.expires_at != sim::kSimTimeNever && rec.expires_at <= sim_.now()) {
      continue;  // repair must not resurrect an expired subscription
    }
    // Coverage check, as on state import: the sender's view of our
    // responsibility may be stale.
    if (!std::any_of(rec.ranges.begin(), rec.ranges.end(),
                     [&](const KeyRange& r) {
                       return coverage_intersects(r);
                     })) {
      continue;
    }
    const bool fresh = store_.insert(SubscriptionStore::Record{
        rec.sub, rec.expires_at, rec.ranges, /*replica=*/false});
    any_expiring |= rec.expires_at != sim::kSimTimeNever;
    if (!fresh) continue;
    ++gossip_stats_.subs_learned;
    // A record learned (or upgraded from a replica) this way needs a
    // replica chain along the *current* successors.
    if (cfg_.replication_factor > 0) {
      overlay_.send_to_successor(std::make_shared<ReplicaMsg>(
          StoredSubRecord{rec.sub, rec.expires_at, rec.ranges},
          cfg_.replication_factor));
    }
  }
  if (any_expiring) schedule_sweep();
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
  auto out = std::make_shared<NotifyMsg>(
      subscriber, std::vector<Notification>{std::move(n)});
  out->trace = out->batch.front().trace;
  overlay_.send(subscriber, std::move(out));
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
    // The flush timer is this node's own event: key/place it on this
    // node's overlay domain (same shard as the rest of its state).
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
    auto out = std::make_shared<NotifyMsg>(subscriber, std::move(batch));
    for (const Notification& n : out->batch) {
      if (n.trace.sampled()) {
        out->trace = n.trace;  // overlay hop spans attach to one of them
        break;
      }
    }
    overlay_.send(subscriber, std::move(out));
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
    auto out = std::make_shared<CollectMsg>(std::move(items));
    items.clear();
    for (const CollectItem& item : out->items) {
      if (item.notification.trace.sampled()) {
        out->trace = item.notification.trace;
        break;
      }
    }
    if (to_successor) {
      overlay_.send_to_successor(std::move(out));
    } else {
      overlay_.send_to_predecessor(std::move(out));
    }
  };
  send_batch(collect_to_succ_, /*to_successor=*/true);
  send_batch(collect_to_pred_, /*to_successor=*/false);
}

void PubSubNode::handle_collect(const CollectMsg& msg) {
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

const KeyRange* PubSubNode::my_range_for(
    const SubscriptionStore::Record& rec) const {
  for (const KeyRange& r : rec.ranges) {
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
      out.push_back({rec.sub, rec.expires_at, rec.ranges, true});
      return;
    }
    if (std::any_of(rec.ranges.begin(), rec.ranges.end(), in_handed_range)) {
      out.push_back({rec.sub, rec.expires_at, rec.ranges, false});
    }
  });

  if (remove) {
    // Keep records that still intersect our remaining coverage
    // (range_hi, id]; when the whole range is handed away (leave),
    // nothing remains.
    const bool nothing_left = range_hi == overlay_.id();
    store_.remove_if([&](const SubscriptionStore::Record& rec) {
      if (rec.replica) return false;
      if (!std::any_of(rec.ranges.begin(), rec.ranges.end(),
                       in_handed_range)) {
        return false;
      }
      if (nothing_left) return true;
      const auto in_remaining = [&](const KeyRange& r) {
        return ring.in_open_closed(range_hi, overlay_.id(), r.lo) ||
               ring.in_closed_closed(r.lo, r.hi, ring.add(range_hi, 1));
      };
      return !std::any_of(rec.ranges.begin(), rec.ranges.end(),
                          in_remaining);
    });
  }
  return std::make_shared<StateMsg>(std::move(out));
}

void PubSubNode::import_state(const overlay::PayloadPtr& state) {
  const auto* msg = dynamic_cast<const StateMsg*>(state.get());
  if (msg == nullptr) {
    CBPS_LOG_WARN << "pubsub node " << overlay_.id()
                  << ": unexpected state payload";
    return;
  }
  if (halted_) return;
  bool any_expiring = false;
  for (const StoredSubRecord& rec : msg->records) {
    // Ownership check: after a partition heals, state transfers can land
    // on a node the re-merged ring no longer makes responsible for any
    // of the record's ranges. Storing it here would strand it — re-issue
    // it as a fresh subscription toward the current rendezvous instead.
    if (!rec.replica &&
        !std::any_of(rec.ranges.begin(), rec.ranges.end(),
                     [&](const KeyRange& r) {
                       return coverage_intersects(r);
                     })) {
      ++reissued_imports_;
      send_to_runs(mapping_.subscription_ranges(*rec.sub),
                   std::make_shared<SubscribeMsg>(rec.sub, rec.expires_at,
                                                  rec.ranges),
                   cfg_.sub_transport);
      continue;
    }
    const bool fresh = store_.insert(SubscriptionStore::Record{
        rec.sub, rec.expires_at, rec.ranges, rec.replica});
    // A freshly learned owned record needs its replica chain built along
    // the *current* successors (the exporter's chain predates the move).
    if (fresh && !rec.replica && cfg_.replication_factor > 0) {
      overlay_.send_to_successor(std::make_shared<ReplicaMsg>(
          StoredSubRecord{rec.sub, rec.expires_at, rec.ranges},
          cfg_.replication_factor));
    }
    any_expiring |= rec.expires_at != sim::kSimTimeNever;
  }
  if (any_expiring) schedule_sweep();
}

}  // namespace cbps::pubsub
