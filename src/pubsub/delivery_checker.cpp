#include "cbps/pubsub/delivery_checker.hpp"

#include <sstream>

#include "cbps/common/assert.hpp"

namespace cbps::pubsub {

namespace {
constexpr std::size_t kMaxIssues = 20;

void add_issue(DeliveryChecker::Report& report, const std::string& msg) {
  if (report.issues.size() < kMaxIssues) report.issues.push_back(msg);
}
}  // namespace

void DeliveryChecker::on_subscribe(SubscriptionPtr sub, sim::SimTime when,
                                   sim::SimTime expires_at) {
  CBPS_ASSERT(sub != nullptr);
  const SubscriptionId id = sub->id;
  subs_[id] = SubEntry{std::move(sub), when, expires_at};
}

void DeliveryChecker::on_unsubscribe(SubscriptionId id, sim::SimTime when) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return;
  it->second.ends_at = std::min(it->second.ends_at, when);
}

void DeliveryChecker::on_node_crashed(Key node, sim::SimTime when) {
  for (auto& [_, entry] : subs_) {
    if (entry.sub->subscriber != node) continue;
    entry.ends_at = std::min(entry.ends_at, when);
  }
}

void DeliveryChecker::on_publish(EventPtr event, sim::SimTime when) {
  CBPS_ASSERT(event != nullptr);
  publishes_.push_back(PubEntry{std::move(event), when});
}

void DeliveryChecker::on_notify(Key subscriber, const Notification& n,
                                sim::SimTime /*when*/) {
  auto& info = deliveries_[{n.event->id, n.subscription}];
  // Dedup before counting: the pair's subscriber identity is fixed by
  // its first delivery. A replayed/duplicate NotifyMsg must only bump
  // the count — overwriting the subscriber here used to let a late
  // misrouted duplicate decide the wrong-subscriber verdict.
  if (info.count == 0) {
    info.subscriber = subscriber;
  } else if (info.subscriber != subscriber) {
    info.subscriber_mismatch = true;
  }
  ++info.count;
}

DeliveryChecker::Report DeliveryChecker::verify(
    sim::SimTime grace, sim::SimTime pubs_after) const {
  Report report;

  for (const PubEntry& pub : publishes_) {
    if (pub.when < pubs_after) continue;
    for (const auto& [sub_id, entry] : subs_) {
      const bool matches = entry.sub->matches(*pub.event);
      const auto it = deliveries_.find({pub.event->id, sub_id});
      const std::uint64_t delivered_count =
          it == deliveries_.end() ? 0 : it->second.count;

      if (delivered_count > 0 && !matches) {
        report.spurious += delivered_count;
        std::ostringstream os;
        os << *pub.event << " delivered to non-matching " << *entry.sub;
        add_issue(report, os.str());
        continue;
      }
      if (delivered_count > 0 &&
          (it->second.subscriber != entry.sub->subscriber ||
           it->second.subscriber_mismatch)) {
        ++report.wrong_subscriber;
        std::ostringstream os;
        os << *pub.event << " for " << *entry.sub
           << " delivered to node " << it->second.subscriber
           << (it->second.subscriber_mismatch
                   ? " (and to at least one other node)"
                   : "")
           << " instead of " << entry.sub->subscriber;
        add_issue(report, os.str());
      }
      if (!matches) continue;

      // Activity window with grace around both boundaries.
      const bool clearly_active =
          pub.when >= entry.subscribed_at + grace &&
          (entry.ends_at == sim::kSimTimeNever ||
           pub.when + grace <= entry.ends_at);
      const bool clearly_inactive =
          pub.when < entry.subscribed_at ||
          (entry.ends_at != sim::kSimTimeNever && pub.when >= entry.ends_at);

      if (clearly_active) {
        ++report.expected;
        if (delivered_count == 0) {
          ++report.missing;
          std::ostringstream os;
          os << *pub.event << " (t=" << sim::to_seconds(pub.when)
             << "s) never reached " << *entry.sub;
          add_issue(report, os.str());
        } else {
          ++report.delivered;
          if (delivered_count > 1) {
            report.duplicates += delivered_count - 1;
            std::ostringstream os;
            os << *pub.event << " delivered " << delivered_count
               << " times to " << *entry.sub;
            add_issue(report, os.str());
          }
        }
      } else if (clearly_inactive && delivered_count > 0 &&
                 pub.when < entry.subscribed_at) {
        // Delivered although published strictly before the subscription
        // existed: impossible in a correct run.
        report.spurious += delivered_count;
        std::ostringstream os;
        os << *pub.event << " delivered to not-yet-registered " << *entry.sub;
        add_issue(report, os.str());
      }
      // Boundary (grace) region: deliveries are acceptable either way,
      // and duplicates there are still suspicious but tolerated.
    }
  }
  return report;
}

}  // namespace cbps::pubsub
