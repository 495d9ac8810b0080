// The CB-pub/sub layer's messages: everything one node's pub/sub layer
// hands the overlay for another (paper Figure 2: the overlay carries
// them opaquely). Each message is plain data; `Message` is the closed
// set of them, and `PubSubPayload` is the one overlay payload that
// carries a `Message`. Its traffic class and wire size come from one
// rule per message (messages.cpp), so a size rule shared by several
// messages (a stored-subscription record, a notification) is written
// once.
//
// Epidemic (gossip) notification dissemination: the gossip backend
// replaces the rendezvous' per-subscriber unicast notifications with a
// push/push-pull epidemic inside the event's match group. The rendezvous
// seeds a GossipRecord (one immutable blob holding the whole group's
// notifications) to a random fan-out of group members; every first-time
// receiver surfaces its own entries and re-pushes the record with a
// decremented round counter (counter-based infect-and-die, so the
// epidemic provably terminates). A periodic anti-entropy digest exchange
// lets nodes that missed the push phase — crashed, partitioned or just
// unlucky under loss — pull recent records back (and piggybacks a
// rendezvous-state digest so owned subscription records lost to crashes
// can be re-learned the same way).
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
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
  std::vector<KeyRange> ranges;  // full SK(sub) as contiguous runs
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
  std::vector<KeyRange> ranges;
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

/// Globally unique id of one gossip record: the seeding rendezvous plus
/// its per-node sequence number. Ordered so seen-caches and digests can
/// use std::map / sorted vectors (deterministic iteration, D1-clean).
struct GossipId {
  Key origin = 0;
  std::uint64_t seq = 0;

  auto operator<=>(const GossipId&) const = default;
};

/// One subscriber's share of a group-disseminated event.
struct GossipEntry {
  Key subscriber = 0;
  Notification notification;
};

/// The immutable unit of epidemic dissemination: every notification one
/// publish produced at one rendezvous, plus the sorted member list the
/// epidemic runs over. Shared by pointer across all pushes and repairs —
/// only the thin per-hop GossipMsg is ever copied.
struct GossipRecord {
  GossipId id;
  /// When the rendezvous seeded the record. Retention is keyed to this
  /// one absolute instant — every node prunes the record from its seen
  /// cache at seeded_at + gossip_window and refuses to re-absorb it
  /// afterwards. Pruning by local receipt time instead would let two
  /// nodes repair an aged-out record back and forth forever (each pull
  /// refreshing the other's retention clock), and the system would never
  /// quiesce.
  sim::SimTime seeded_at = 0;
  /// Sorted, unique subscriber keys — the gossip group. Determines whom
  /// pushes and anti-entropy exchanges may address.
  std::vector<Key> group;
  /// Sorted by (subscriber, subscription id); each member surfaces only
  /// its own entries.
  std::vector<GossipEntry> entries;
};

using GossipRecordPtr = std::shared_ptr<const GossipRecord>;

/// The m-cast dissemination backend's wire unit: the whole match group's
/// notifications in one payload, delivered through the overlay's native
/// m_cast tree. Each covered member surfaces only its own entries.
struct MultiNotifyMsg {
  std::vector<GossipEntry> entries;  // sorted by (subscriber, sub id)
};

/// One epidemic push hop. A fresh message per transmission (the record
/// itself is shared): the round counter decrements hop by hop and the
/// addressee is pinned so key-routing misdirections (the member crashed,
/// the ring moved) are detected and ghost-dropped at the receiver.
struct GossipMsg {
  Key target = 0;
  GossipRecordPtr rec;
  std::uint32_t rounds_left = 0;
};

/// Compact advertisement of one owned subscription record (rendezvous
/// soft state), piggybacked on anti-entropy digests. Replica-held
/// records are never advertised — re-gossiping a backup copy would make
/// every chain member act like an owner.
struct GossipSubDigest {
  SubscriptionId id = 0;
  sim::SimTime expires_at = sim::kSimTimeNever;
};

/// Periodic anti-entropy digest: "here is everything in my recent-event
/// cache (and the owned subscriptions whose ranges cover your key)".
/// The receiver pushes back whatever the sender lacks and — unless this
/// digest is already a reply — answers with its own digest, completing
/// one push-pull exchange without looping.
struct GossipDigestMsg {
  Key from = 0;        // the digesting node (where the response goes)
  Key target = 0;      // addressee (misdirection guard, as in GossipMsg)
  bool reply = false;  // second leg of an exchange; do not answer again
  std::vector<GossipId> have;         // sorted recent-record ids
  std::vector<GossipSubDigest> subs;  // sorted owned-subscription digest
};

/// Pull repair: full records the digest exchange found missing at the
/// addressee. Repaired records do not re-enter the push phase (round
/// counter 0) — anti-entropy converges, it does not re-ignite.
struct GossipRepairMsg {
  Key from = 0;
  Key target = 0;
  std::vector<GossipRecordPtr> records;
};

/// Rendezvous-state repair: full owned-subscription records the peer's
/// digest showed missing. The receiver stores them as owned (after the
/// usual coverage check) and rebuilds their replica chains.
struct GossipSubRepairMsg {
  Key target = 0;
  std::vector<StoredSubRecord> records;
};

/// Every message the pub/sub layer sends.
using Message =
    std::variant<SubscribeMsg, UnsubscribeMsg, PublishMsg, NotifyMsg,
                 CollectMsg, StateMsg, ReplicaMsg, ReplicaRemoveMsg,
                 MultiNotifyMsg, GossipMsg, GossipDigestMsg, GossipRepairMsg,
                 GossipSubRepairMsg>;

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
