// Pluggable rendezvous matching engines.
//
// SubscriptionStore delegates candidate generation to a MatchIndex when
// one is installed (brute force is the null engine: the store scans its
// records directly). The store and its index share one numbering: the
// store keeps its records in dense slots, and the index registers, removes
// and reports subscriptions by slot. Implementations must be *exact*:
// match_into() returns precisely the slots of registered subscriptions
// matching the event — the brute-force scan is the correctness oracle the
// differential tests compare every engine against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cbps/pubsub/event.hpp"
#include "cbps/pubsub/subscription.hpp"

namespace cbps::pubsub {

/// Where an index reads the subscription behind a slot. An index keeps no
/// pointer to a subscription: it may read any registered slot at any
/// time (deferred bucket registration reads at the next match or remove),
/// and the table must answer with the subscription registered there.
class SlotTable {
 public:
  virtual const Subscription& at(std::uint32_t slot) const = 0;

 protected:
  ~SlotTable() = default;
};

class MatchIndex {
 public:
  virtual ~MatchIndex() = default;

  /// Register `sub`, which the index's table holds at `slot`. A slot
  /// already registered is rejected (no-op, false).
  virtual bool insert(std::uint32_t slot, const Subscription& sub) = 0;

  /// Remove the subscription at `slot` while the table still holds it.
  /// Returns false if the slot is not registered.
  virtual bool remove(std::uint32_t slot) = 0;

  /// Append the slots of all registered subscriptions matching `e` to
  /// `slots` (unordered, no duplicates). `slots` is not cleared.
  virtual void match_into(const Event& e,
                          std::vector<std::uint32_t>& slots) const = 0;

  /// Number of registered (logical) subscriptions.
  virtual std::size_t size() const = 0;

  /// Estimated heap footprint of the index structures in bytes
  /// (buckets, entry vectors, bookkeeping — not the Subscription objects
  /// themselves, which the store owns).
  virtual std::size_t memory_bytes() const = 0;
};

}  // namespace cbps::pubsub
