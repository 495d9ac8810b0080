// Test oracle for end-to-end delivery correctness.
//
// Records every subscribe/unsubscribe/publish/notify in a run and then
// verifies, pair by pair, that each event reached exactly the subscribers
// whose subscriptions it matched while they were active — no misses, no
// spurious notifications, no duplicates. A grace window absorbs
// propagation delay around subscription/unsubscription boundaries, where
// delivery is legitimately indeterminate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cbps/pubsub/messages.hpp"
#include "cbps/pubsub/subscription.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::pubsub {

class DeliveryChecker {
 public:
  void on_subscribe(SubscriptionPtr sub, sim::SimTime when,
                    sim::SimTime expires_at);
  void on_unsubscribe(SubscriptionId id, sim::SimTime when);
  void on_publish(EventPtr event, sim::SimTime when);
  void on_notify(Key subscriber, const Notification& n, sim::SimTime when);
  /// The subscriber at `node` crashed: its subscriptions end at `when` —
  /// a dead node cannot receive, so later events must not be counted as
  /// expected deliveries (and a notification surfacing there anyway is a
  /// ghost the overlay failed to contain).
  void on_node_crashed(Key node, sim::SimTime when);

  struct Report {
    std::uint64_t expected = 0;    // (event, sub) pairs that must deliver
    std::uint64_t delivered = 0;   // of those, delivered at least once
    std::uint64_t missing = 0;     // of those, never delivered
    std::uint64_t duplicates = 0;  // extra deliveries of an expected pair
    std::uint64_t spurious = 0;    // deliveries of a non-matching pair
    std::uint64_t wrong_subscriber = 0;  // delivered to the wrong node
    std::vector<std::string> issues;     // first few, human-readable

    bool ok() const {
      return missing == 0 && duplicates == 0 && spurious == 0 &&
             wrong_subscriber == 0;
    }
  };

  /// Verify the run. `grace`: publications within `grace` of a
  /// subscription's registration, expiry or unsubscription are exempt
  /// from the must-deliver requirement (but deliveries there are still
  /// not spurious). `pubs_after` restricts the audit to publications at
  /// or after that time — how fault benches measure the post-heal
  /// delivery ratio separately from the mid-fault dip.
  Report verify(sim::SimTime grace = sim::sec(2),
                sim::SimTime pubs_after = 0) const;

  std::size_t publication_count() const { return publishes_.size(); }
  std::size_t subscription_count() const { return subs_.size(); }

 private:
  struct SubEntry {
    SubscriptionPtr sub;
    sim::SimTime subscribed_at = 0;
    sim::SimTime ends_at = sim::kSimTimeNever;  // expiry or unsubscribe
  };
  struct PubEntry {
    EventPtr event;
    sim::SimTime when = 0;
  };
  struct DeliveryInfo {
    std::uint64_t count = 0;
    Key subscriber = 0;  // node of the FIRST delivery of this pair
    // A later delivery of the same pair surfaced at a different node.
    // Kept separately so a duplicate cannot overwrite `subscriber` and
    // mask (or fake) a wrong-subscriber verdict.
    bool subscriber_mismatch = false;
  };

  std::map<SubscriptionId, SubEntry> subs_;
  std::vector<PubEntry> publishes_;
  std::map<std::pair<EventId, SubscriptionId>, DeliveryInfo> deliveries_;
};

}  // namespace cbps::pubsub
