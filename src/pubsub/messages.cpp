#include "cbps/pubsub/messages.hpp"

#include <numeric>

namespace cbps::pubsub {
namespace {

using overlay::MessageClass;

// Traffic class of each message (the per-class hop counts the paper's
// figures report).
MessageClass class_of(const SubscribeMsg&) { return MessageClass::kSubscribe; }
MessageClass class_of(const UnsubscribeMsg&) {
  return MessageClass::kUnsubscribe;
}
MessageClass class_of(const PublishMsg&) { return MessageClass::kPublish; }
MessageClass class_of(const NotifyMsg&) { return MessageClass::kNotify; }
MessageClass class_of(const CollectMsg&) { return MessageClass::kCollect; }
MessageClass class_of(const StateMsg&) { return MessageClass::kStateTransfer; }
MessageClass class_of(const ReplicaMsg&) {
  return MessageClass::kStateTransfer;
}
MessageClass class_of(const ReplicaRemoveMsg&) {
  return MessageClass::kStateTransfer;
}

/// Sum of `part(x)` over `xs`.
template <class T, class Part>
std::size_t sum_of(const std::vector<T>& xs, Part part) {
  return std::accumulate(
      xs.begin(), xs.end(), std::size_t{0},
      [&](std::size_t total, const T& x) { return total + part(x); });
}

// Wire sizes. A subscription record (subscribe, state transfer, replica):
// 32 bytes of ids, expiry and header, 24 per constraint, 16 per SK run.
// The runs are shared in memory, but every message charges them in full.
std::size_t subscription_bytes(const Subscription& sub, std::size_t runs) {
  return 32 + 24 * sub.constraints.size() + 16 * runs;
}
std::size_t stored_bytes(const StoredSubRecord& r) {
  return subscription_bytes(*r.sub, r.runs->size());
}

// A notification: subscription id, publish time and event id (24), plus
// 8 per event value.
std::size_t notification_bytes(const Notification& n) {
  return 24 + 8 * n.event->values.size();
}

std::size_t bytes(const SubscribeMsg& m) {
  return subscription_bytes(*m.sub, m.runs->size());
}
std::size_t bytes(const UnsubscribeMsg&) { return 16; }
std::size_t bytes(const PublishMsg& m) {
  return 32 + 8 * m.event->values.size();
}
std::size_t bytes(const NotifyMsg& m) {
  return 16 + sum_of(m.batch, notification_bytes);
}
std::size_t bytes(const CollectMsg& m) {
  // Each item adds its range (16) and subscriber key (8).
  return 8 + sum_of(m.items, [](const CollectItem& item) {
           return 24 + notification_bytes(item.notification);
         });
}
std::size_t bytes(const StateMsg& m) {
  return 8 + sum_of(m.records, stored_bytes);
}
std::size_t bytes(const ReplicaMsg& m) { return 8 + stored_bytes(m.record); }
std::size_t bytes(const ReplicaRemoveMsg&) { return 24; }

}  // namespace

overlay::MessageClass PubSubPayload::message_class() const {
  return std::visit([](const auto& m) { return class_of(m); }, msg);
}

std::size_t PubSubPayload::size_bytes() const {
  return std::visit([](const auto& m) { return bytes(m); }, msg);
}

overlay::PayloadPtr make_payload(Message msg, metrics::TraceRef trace) {
  auto payload = std::make_shared<PubSubPayload>(std::move(msg));
  payload->trace = trace;
  return payload;
}

const Message* message_of(const overlay::Payload& payload) {
  const auto* p = dynamic_cast<const PubSubPayload*>(&payload);
  return p == nullptr ? nullptr : &p->msg;
}

}  // namespace cbps::pubsub
