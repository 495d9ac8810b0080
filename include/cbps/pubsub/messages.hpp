// The CB-pub/sub layer's messages: everything one node's pub/sub layer
// hands the overlay for another (paper Figure 2: the overlay carries
// them opaquely). Each message is plain data; `Message` is the closed
// set of them, and `PubSubPayload` is the one overlay payload that
// carries a `Message`. Its traffic class and wire size come from one
// rule per message (messages.cpp), so a size rule shared by several
// messages (a stored-subscription record, a notification) is written
// once.
//
// A message that carries a subscription shares its SK runs (RunsPtr)
// with every other copy; the wire still charges each message for them.

#pragma once

#include <cstddef>
#include <utility>
#include <variant>
#include <vector>

#include "cbps/common/types.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/pubsub/event.hpp"
#include "cbps/pubsub/mapping.hpp"
#include "cbps/pubsub/subscription.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::pubsub {

/// One (event, subscription) match to be reported to a subscriber.
struct Notification {
  EventPtr event;
  SubscriptionId subscription = 0;
  /// When the event was published (simulated time); lets subscribers and
  /// the benches measure the notification delay that buffering and
  /// collecting trade for fewer messages (§4.3.2).
  sim::SimTime published_at = 0;
  /// Per-match trace context: notifications carry their own ref (distinct
  /// from the enclosing payload's) because buffering and collecting batch
  /// matches from different publishes into one wire message.
  metrics::TraceRef trace;
};

/// Propagates a subscription to its rendezvous keys.
struct SubscribeMsg {
  SubscriptionPtr sub;
  sim::SimTime expires_at = sim::kSimTimeNever;  // absolute sim time
  RunsPtr runs;  // SK(sub), shared with the subscriber's copy
};

/// Removes a subscription from its rendezvous keys.
struct UnsubscribeMsg {
  SubscriptionId sub_id = 0;
};

/// Propagates an event to its rendezvous keys.
struct PublishMsg {
  EventPtr event;
  Key publisher = 0;
  sim::SimTime published_at = 0;
};

/// Batch of notifications for one subscriber (a batch of size one when
/// buffering is off).
struct NotifyMsg {
  Key subscriber = 0;
  std::vector<Notification> batch;
};

/// One match travelling along the ring toward a range's agent node
/// (collecting, §4.3.2).
struct CollectItem {
  KeyRange range;       // the stored run this match belongs to
  Key subscriber = 0;
  Notification notification;
};

/// Batch of collect items pushed one ring hop toward their agents.
struct CollectMsg {
  std::vector<CollectItem> items;
};

/// A stored-subscription record in transit (state transfer, replicas).
struct StoredSubRecord {
  SubscriptionPtr sub;
  sim::SimTime expires_at = sim::kSimTimeNever;
  RunsPtr runs;  // SK(sub), shared with the sender's record
  /// Whether the receiver should hold this as a replica (crash backup)
  /// rather than as owned state.
  bool replica = false;
};

/// Application state handed over on join/leave (OverlayApp::export_state
/// product).
struct StateMsg {
  std::vector<StoredSubRecord> records;
};

/// Replica of a stored subscription pushed along `remaining_hops`
/// successors for crash resilience (§4.1: "state replicated on a small
/// number of neighbors").
struct ReplicaMsg {
  StoredSubRecord record;
  std::size_t remaining_hops = 0;
};

/// Replica removal (follows unsubscription).
struct ReplicaRemoveMsg {
  SubscriptionId sub_id = 0;
  std::size_t remaining_hops = 0;
};

/// Every message the pub/sub layer sends.
using Message =
    std::variant<SubscribeMsg, UnsubscribeMsg, PublishMsg, NotifyMsg,
                 CollectMsg, StateMsg, ReplicaMsg, ReplicaRemoveMsg>;

/// The pub/sub layer's one overlay payload: a Message, plus the trace
/// context every Payload carries.
struct PubSubPayload final : overlay::Payload {
  explicit PubSubPayload(Message m) : msg(std::move(m)) {}

  overlay::MessageClass message_class() const override;
  std::size_t size_bytes() const override;

  Message msg;
};

/// `msg` as an overlay payload with trace context `trace`.
overlay::PayloadPtr make_payload(Message msg, metrics::TraceRef trace = {});

/// The message `payload` carries, or nullptr when it is not a pub/sub
/// payload (the overlay seam is open to other payload types).
const Message* message_of(const overlay::Payload& payload);

}  // namespace cbps::pubsub
