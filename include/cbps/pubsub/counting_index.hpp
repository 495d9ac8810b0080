// Counting-based matching index.
//
// The paper's rendezvous nodes "match e against the subscriptions they
// host" (§3.2); the straightforward scan is linear in the number of
// stored subscriptions. This index implements the classic counting
// algorithm of Fabret et al. (the paper's [6]): per attribute, constraint
// intervals are registered in coarse value buckets; matching an event
// stabs one bucket per attribute, counts satisfied constraints per
// subscription, and reports the subscriptions whose entire conjunction
// is satisfied. Expected cost is proportional to the number of
// *satisfied constraints*, not the number of subscriptions.
//
// Bucket registration is batched: insert() records the subscription and
// its dense slot, and the pending bucket entries are registered in
// insertion order at the next match or remove. Every bucket therefore
// holds the same entries in the same order as with eager registration,
// and match output (order included) is unchanged; a node that stores
// subscriptions but never matches or removes one never pays for their
// buckets.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cbps/common/types.hpp"
#include "cbps/pubsub/match_index.hpp"
#include "cbps/pubsub/schema.hpp"
#include "cbps/pubsub/subscription.hpp"

namespace cbps::pubsub {

class CountingIndex final : public MatchIndex {
 public:
  /// `buckets_per_attribute` trades insertion cost (an interval is
  /// registered in every bucket it overlaps) against stab precision.
  explicit CountingIndex(const Schema& schema,
                         std::size_t buckets_per_attribute = 256);

  /// Register a subscription (its bucket entries are registered lazily,
  /// see above). Duplicate ids are rejected (no-op, false).
  /// A subscription with a constraint range disjoint from its attribute
  /// domain can never match; it is registered (so remove() and duplicate
  /// detection behave) but gets no bucket entries — exactly the
  /// brute-force engine's behaviour of never reporting it.
  bool insert(const SubscriptionPtr& sub) override;

  /// Remove by id. Returns false if unknown.
  bool remove(SubscriptionId id) override;

  /// Ids of all registered subscriptions matching `e`, unordered.
  std::vector<SubscriptionId> match(const Event& e) const;

  void match_into(const Event& e,
                  std::vector<SubscriptionId>& out) const override;

  std::size_t size() const override { return subs_.size(); }

  /// Heap footprint of the bucket/scratch structures in bytes, pending
  /// registrations included.
  std::size_t memory_bytes() const override;

 private:
  // Entries refer to subscriptions by a dense slot index so match() can
  // count into flat arrays instead of a per-event hash map.
  struct Entry {
    std::uint32_t dense;
    ClosedInterval range;
  };
  struct DenseInfo {
    SubscriptionId id = 0;
    std::uint32_t constraint_count = 0;
  };
  struct SubInfo {
    SubscriptionPtr sub;
    std::uint32_t dense;
  };

  std::size_t bucket_of(std::size_t attr, Value v) const;
  /// Register the bucket entries of every pending insert, in order.
  void register_pending() const;

  Schema schema_;
  std::size_t buckets_per_attribute_;
  // buckets_[attr][bucket] -> entries whose interval overlaps the bucket.
  // Mutable with pending_: the const match registers pending inserts.
  mutable std::vector<std::vector<std::vector<Entry>>> buckets_;
  // Inserted subscriptions whose bucket entries are not registered yet,
  // in insertion order. The pointee stays alive in subs_: remove()
  // registers everything pending before it erases.
  struct Pending {
    const Subscription* sub;
    std::uint32_t dense;
  };
  mutable std::vector<Pending> pending_;
  // Subscriptions with no constraints match every event.
  std::vector<SubscriptionId> match_all_;
  std::unordered_map<SubscriptionId, SubInfo> subs_;
  std::vector<DenseInfo> dense_;        // slot -> threshold + id
  std::vector<std::uint32_t> free_dense_;
  // Epoch-stamped scratch: bumping epoch_ invalidates every count, so a
  // match never clears (or allocates) the buffers it counts into.
  mutable std::vector<std::uint32_t> scratch_count_;
  mutable std::vector<std::uint64_t> scratch_epoch_;
  mutable std::vector<std::uint32_t> scratch_touched_;
  mutable std::uint64_t epoch_ = 0;
};

}  // namespace cbps::pubsub
