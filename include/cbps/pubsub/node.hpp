// The CB-pub/sub layer of one node (paper Figure 2, §4.1).
//
// Responsibilities, quoting the paper: computing the SK/EK mappings,
// forwarding subscriptions and events to their rendezvous keys, storing
// subscriptions, matching events, forwarding notifications, and managing
// the application state across node joins and departures. The buffering
// and collecting optimizations of §4.3.2 live here as well.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cbps/common/rng.hpp"
#include "cbps/metrics/histogram.hpp"
#include "cbps/metrics/topk.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/node.hpp"
#include "cbps/pubsub/mapping.hpp"
#include "cbps/pubsub/messages.hpp"
#include "cbps/pubsub/store.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::pubsub {

struct PubSubConfig {
  /// How one-to-many propagation is realized on the overlay (§4.3.1).
  enum class Transport {
    kUnicast,    // aggressive: one send() per key, in parallel
    kMulticast,  // the paper's native m-cast extension
    kChain,      // conservative: ring-order walk (baseline)
  };

  Transport sub_transport = Transport::kUnicast;
  Transport pub_transport = Transport::kUnicast;

  /// Buffer matched notifications and send them in periodic per-
  /// subscriber batches (§4.3.2).
  bool buffering = false;
  sim::SimTime buffer_period = sim::sec(5);

  /// Aggregate matches along each stored key range toward the range's
  /// agent node before notifying (§4.3.2). Implies periodic (buffered)
  /// agent flushes with the same period.
  bool collecting = false;

  /// Push each stored subscription to this many ring successors so a
  /// crashed rendezvous' state survives (§4.1). 0 disables.
  std::size_t replication_factor = 0;

  /// Matching engine at the rendezvous (brute-force scan or the
  /// counting index of Fabret et al., the paper's [6]).
  MatchEngine match_engine = MatchEngine::kBruteForce;

  /// Drop notifications for an (event, subscription) pair already seen
  /// here. The overlay's ack/retry layer can deliver an application
  /// message twice when a retransmit is re-routed around a crashed hop,
  /// so lossy runs need this end-to-end safety net (PubSubSystem turns
  /// it on automatically whenever the network injects loss).
  bool duplicate_suppression = false;

  /// Capacity of the per-node per-rendezvous-key heavy-hitter sketches
  /// (the load observatory). With total per-node load N the sketch's
  /// count error is bounded by N / capacity; a capacity at least the
  /// number of distinct keys a node serves makes the counts exact.
  std::size_t key_topk_capacity = metrics::TopK::kDefaultCapacity;
};

/// Per-rendezvous-key load attribution: one sketch set per node, updated
/// only from that node's own events. PubSubSystem::key_load() sums them
/// (KeyLoad::sum); the union-sum is permutation-invariant, so the summed
/// table does not depend on the order of the nodes either.
struct KeyLoad {
  metrics::TopK subs_stored;    // subscription store ops per covered key
  metrics::TopK match_calls;    // match invocations per covered key
  metrics::TopK match_units;    // matched records scanned per covered key
  metrics::TopK notify_fanout;  // notifications attributed per key

  explicit KeyLoad(std::size_t capacity = metrics::TopK::kDefaultCapacity)
      : subs_stored(capacity), match_calls(capacity),
        match_units(capacity), notify_fanout(capacity) {}

  /// Union-sum of `parts`, sketch by sketch (metrics::TopK::sum).
  static KeyLoad sum(std::size_t capacity,
                     std::span<const KeyLoad* const> parts) {
    KeyLoad out(capacity);
    std::vector<const metrics::TopK*> sketches(parts.size());
    for (metrics::TopK KeyLoad::*member :
         {&KeyLoad::subs_stored, &KeyLoad::match_calls,
          &KeyLoad::match_units, &KeyLoad::notify_fanout}) {
      for (std::size_t i = 0; i < parts.size(); ++i) {
        sketches[i] = &(parts[i]->*member);
      }
      out.*member = metrics::TopK::sum(capacity, sketches);
    }
    return out;
  }

  /// Total load units this node performed as a rendezvous (the scalar
  /// the ring-imbalance coefficients are computed over).
  std::uint64_t total() const {
    return subs_stored.total() + match_calls.total() +
           match_units.total() + notify_fanout.total();
  }
};

class PubSubNode final : public overlay::OverlayApp {
 public:
  /// Receives every notification delivered to this node's application.
  using NotifySink =
      std::function<void(Key subscriber, const Notification&)>;

  PubSubNode(overlay::OverlayNode& overlay, sim::Simulator& sim,
             const AkMapping& mapping, PubSubConfig cfg);
  ~PubSubNode() override;

  PubSubNode(const PubSubNode&) = delete;
  PubSubNode& operator=(const PubSubNode&) = delete;

  void set_notify_sink(NotifySink sink) { sink_ = std::move(sink); }

  /// Install a per-run trace sink (nullptr = tracing off, the default).
  /// Samples new traces at publish/subscribe and emits pub/sub-layer
  /// spans (publish, map, buffer, collect, notify, deliver, drop).
  void set_trace_sink(metrics::TraceSink* sink) { trace_ = sink; }

  // --- application API: the paper's sub() / pub() ----------------------
  /// Register `sub` (id and subscriber key must be filled in) for `ttl`;
  /// without one it never expires.
  void subscribe(SubscriptionPtr sub, sim::SimTime ttl);
  void subscribe(SubscriptionPtr sub) {
    subscribe(std::move(sub), sim::kSimTimeNever);
  }

  /// Withdraw a previously issued subscription.
  void unsubscribe(SubscriptionId id);

  /// Publish an event (id must be filled in). Returns its rendezvous-key
  /// fan-out (the number of event keys it is sent to).
  std::size_t publish(EventPtr event);

  /// Crash hygiene: stop behaving like a live process. Pending batches
  /// are dropped and the armed one-shot timers become no-ops — a
  /// crashed rendezvous must not keep flushing notifications.
  void halt();
  bool halted() const { return halted_; }

  /// Re-push every owned (non-replica) subscription down the current
  /// successor chain. Run after a partition heals (or any event that
  /// reshuffles ring ownership): the replica chains recorded before the
  /// fault may point at nodes that are no longer this node's
  /// successors. Returns the number of records re-replicated; no-op
  /// when replication is off.
  std::size_t re_replicate();

  // --- overlay::OverlayApp ----------------------------------------------
  void on_deliver(Key key, const overlay::PayloadPtr& payload) override;
  void on_deliver_mcast(std::span<const Key> covered,
                        const overlay::PayloadPtr& payload) override;
  overlay::PayloadPtr export_state(Key range_lo, Key range_hi,
                                   bool remove) override;
  void import_state(const overlay::PayloadPtr& state) override;

  // --- introspection ------------------------------------------------------
  const SubscriptionStore& store() const { return store_; }
  overlay::OverlayNode& overlay() { return overlay_; }
  std::uint64_t notifications_received() const {
    return notifications_received_;
  }
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  /// Publish-to-notify latency distribution (seconds) of notifications
  /// received here.
  const metrics::Histogram& delay_histogram() const { return delay_hist_; }
  std::uint64_t notify_batches_sent() const { return notify_batches_sent_; }
  std::uint64_t notifications_sent() const { return notifications_sent_; }
  /// Per-rendezvous-key load sketches of this node (see KeyLoad).
  const KeyLoad& key_load() const { return key_load_; }

  /// A subscription this node issued: the pointer plus the expiry it was
  /// registered with and its SK runs (needed to re-issue it verbatim on
  /// refresh, and to withdraw it).
  struct OwnSub {
    SubscriptionPtr sub;
    sim::SimTime expires_at = sim::kSimTimeNever;
    RunsPtr runs;
  };

  /// Subscriptions this node issued and has not withdrawn.
  const std::unordered_map<SubscriptionId, OwnSub>& own_subscriptions()
      const {
    return own_subs_;
  }

  /// Soft-state refresh: re-issue every live subscription this node owns
  /// toward its current rendezvous nodes. Recovers records whose entire
  /// owner+replica chain crashed (the one loss replication cannot mask).
  /// Idempotent where records survived: a refresh of an existing record
  /// updates it in place without re-building replica chains. Returns the
  /// number of subscriptions re-issued.
  std::size_t refresh_subscriptions();

 private:
  /// How a message reached this node: the keys the delivery covers here
  /// (one for a unicast, none for a state import) and the payload's
  /// trace context.
  struct Arrival {
    std::span<const Key> covered;
    metrics::TraceRef trace;
  };
  /// Finds the message `payload` carries and hands it to its handler;
  /// drops a foreign payload.
  void dispatch(std::span<const Key> covered,
                const overlay::PayloadPtr& payload);
  // One handler per Message alternative.
  void handle(const SubscribeMsg& msg, const Arrival& at);
  void handle(const UnsubscribeMsg& msg, const Arrival& at);
  void handle(const PublishMsg& msg, const Arrival& at);
  void handle(const NotifyMsg& msg, const Arrival& at);
  void handle(const CollectMsg& msg, const Arrival& at);
  void handle(const StateMsg& msg, const Arrival& at);
  void handle(const ReplicaMsg& msg, const Arrival& at);
  void handle(const ReplicaRemoveMsg& msg, const Arrival& at);

  /// Surface one notification addressed to this node: dedup, delay
  /// stats, kDeliver span, sink.
  void surface(const Notification& n);

  /// Route one match to its subscriber through the configured path
  /// (immediate / buffered / collected). `trace` is the publish payload's
  /// context; the notification inherits it.
  void route_match(const SubscriptionStore::Record& rec, EventPtr event,
                   sim::SimTime published_at, metrics::TraceRef trace);

  void buffer_notification(Key subscriber, Notification n);
  void enqueue_collect(CollectItem item);
  void flush_notify_buffer();
  void flush_collect_buffers();
  void schedule_sweep();
  void sweep_expired();

  void send_to_keys(const std::vector<Key>& keys,
                    overlay::PayloadPtr payload,
                    PubSubConfig::Transport transport);
  /// send_to_keys for SK runs: m-cast carries the runs, the unicast and
  /// chain transports get their keys in ascending order.
  void send_to_runs(const std::vector<KeyRange>& runs,
                    overlay::PayloadPtr payload,
                    PubSubConfig::Transport transport);

  // Ring geometry helpers for collecting (§4.3.2).
  bool covers_key(Key k) const;
  bool coverage_intersects(const KeyRange& r) const;
  /// Whether any of `runs` intersects this node's coverage.
  bool any_run_in_coverage(const std::vector<KeyRange>& runs) const;
  const KeyRange* my_range_for(const SubscriptionStore::Record& rec) const;
  bool is_agent_for(const KeyRange& r) const;
  bool agent_toward_successor(const KeyRange& r) const;

  overlay::OverlayNode& overlay_;
  sim::Simulator& sim_;
  const AkMapping& mapping_;
  PubSubConfig cfg_;

  SubscriptionStore store_;
  std::unordered_map<SubscriptionId, OwnSub> own_subs_;
  NotifySink sink_;
  metrics::TraceSink* trace_ = nullptr;

  // Pending per-subscriber notification batches (buffering + agent role).
  std::unordered_map<Key, std::vector<Notification>> notify_buffer_;
  // Pending collect items by ring direction.
  std::vector<CollectItem> collect_to_succ_;
  std::vector<CollectItem> collect_to_pred_;

  // One-shot timers, armed only while there is pending work.
  bool flush_scheduled_ = false;
  bool collect_scheduled_ = false;
  bool sweep_scheduled_ = false;
  sim::SimTime sweep_at_ = sim::kSimTimeNever;

  bool halted_ = false;

  std::uint64_t notifications_received_ = 0;
  std::uint64_t notify_batches_sent_ = 0;
  std::uint64_t notifications_sent_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  KeyLoad key_load_;
  // Per node, merged in ring order by PubSubSystem::delay_histogram().
  // Its sum is a double sum of fractional seconds whose bits depend on
  // the order of the adds, so one system-wide histogram would change
  // the reported average delay.
  metrics::Histogram delay_hist_;
  // (event, subscription) pairs already surfaced to the sink; only
  // populated when cfg_.duplicate_suppression is on.
  std::set<std::pair<EventId, SubscriptionId>> delivered_;
};

}  // namespace cbps::pubsub
