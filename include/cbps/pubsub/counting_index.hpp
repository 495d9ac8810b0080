// Access-predicate matching index.
//
// The paper's rendezvous nodes "match e against the subscriptions they
// host" (§3.2); the straightforward scan is linear in the number of
// stored subscriptions. This index follows the paper's [6] (Fabret et
// al.) in clustering each subscription under one access predicate: its
// **pivot**, the constraint on its lowest-numbered attribute. Per
// attribute, pivot intervals are registered in coarse value buckets;
// matching an event stabs one bucket per attribute, and every entry
// whose pivot range holds the value is checked against all of its
// slot's constraints, read from one flat per-slot array of `d` intervals
// (each clamped to its attribute's domain; an unconstrained attribute
// holds the full Value range, so a value outside the domain never
// satisfies a constraint and never fails an unconstrained attribute).
// Cost is proportional to the number of *satisfied pivots*.
//
// Buckets are sized to the index's contents. Each attribute starts with
// one bucket and splits every bucket in two whenever it holds more than
// kSubsPerBucket pivots per bucket, up to the `buckets_per_attribute`
// cap; it never shrinks. An empty index allocates no buckets. Bucket b at
// split level `shift` holds the cap layout's buckets c with
// c >> shift == b, so a split copies each parent's entries, in order,
// into its children.
//
// Subscriptions are numbered by the slots of the table they live in (the
// store's record slots). Bucket entries carry the slot and report it;
// the index keeps no subscription pointer and no id. The index is exact:
// match_into() reports precisely the registered slots whose subscription
// matches the event, which the differential tests check against the
// store's brute-force scan.
//
// Bucket registration is batched: insert() records the slot, and the
// pending pivots and per-slot intervals are written in insertion order
// at the next match or remove, reading each slot's constraints from the
// table then. A node that stores subscriptions but never matches or
// removes one never pays for their buckets. A flush counts the whole
// batch first, so each attribute splits at most once per batch.
//
// The output order is the counting algorithm's first-touch order, which
// neither batching nor the bucket count changes. A matching subscription
// satisfies every constraint, so counting first touched it at its lowest
// constrained attribute: its pivot, where this index reports it. Every
// bucket lists its entries in registration order (pushes append, splits
// and removals keep the order), and every entry whose range contains a
// value lies in the bucket that value stabs under any bucket count. The
// order therefore depends only on the attribute order and the
// registration order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cbps/common/types.hpp"
#include "cbps/pubsub/event.hpp"
#include "cbps/pubsub/schema.hpp"
#include "cbps/pubsub/subscription.hpp"

namespace cbps::pubsub {

/// Where the index reads the subscription behind a slot. The index keeps
/// no pointer to a subscription: it may read any registered slot at any
/// time (deferred bucket registration reads at the next match or remove),
/// and the table must answer with the subscription registered there.
class SlotTable {
 public:
  virtual const Subscription& at(std::uint32_t slot) const = 0;

 protected:
  ~SlotTable() = default;
};

class CountingIndex {
 public:
  /// `buckets_per_attribute` caps each attribute's bucket count. It
  /// trades insertion cost (a pivot is registered in every bucket it
  /// overlaps) against stab precision.
  CountingIndex(const SlotTable& table, const Schema& schema,
                std::size_t buckets_per_attribute = 256);

  /// Register the subscription at `slot` (its bucket entries are
  /// registered lazily, see above). A registered slot is rejected (no-op,
  /// false). A subscription with a constraint range disjoint from its
  /// attribute domain can never match; it is registered (so remove() and
  /// duplicate detection behave) but gets no bucket entries — exactly the
  /// brute-force engine's behaviour of never reporting it.
  bool insert(std::uint32_t slot, const Subscription& sub);

  /// Remove the subscription at `slot` while the table still holds it.
  /// Returns false if unregistered.
  bool remove(std::uint32_t slot);

  /// Append the slots of all registered subscriptions matching `e` to
  /// `slots` (no duplicates): the constraint-free ones, then the rest in
  /// the first-touch order described above. `slots` is not cleared.
  void match_into(const Event& e, std::vector<std::uint32_t>& slots) const;

  /// Number of registered subscriptions.
  std::size_t size() const { return size_; }

  /// Heap footprint in bytes of the buckets, the per-slot intervals and
  /// flags, and the pending and constraint-free slot lists (not the
  /// subscriptions, which the table owns).
  std::size_t memory_bytes() const;

  /// Buckets allocated for `attr`: 0 until an entry registers on it, then
  /// 1, 2, 4, ... up to the cap (pending registrations not included).
  std::size_t bucket_count(std::size_t attr) const {
    return attrs_[attr].buckets.size();
  }

 private:
  /// Pivots per bucket above which an attribute splits.
  static constexpr std::size_t kSubsPerBucket = 4;

  struct Entry {
    std::uint32_t slot;
    ClosedInterval range;
  };

  // One attribute's buckets. Mutable with pending_: the const match
  // registers pending inserts.
  struct Attribute {
    // buckets[b] -> entries whose interval overlaps bucket b, in
    // registration order. Empty until the first entry registers.
    std::vector<std::vector<Entry>> buckets;
    // Bucket b covers the cap layout's buckets c with c >> shift == b.
    unsigned shift = 0;
    std::size_t registered = 0;  // live subscriptions pivoted here
  };

  /// Bucket of `v` under the cap layout (buckets_per_attribute_ buckets).
  std::size_t cap_bucket(std::size_t attr, Value v) const;
  /// First and last bucket at `shift` that `range` overlaps.
  std::pair<std::size_t, std::size_t> span(std::size_t attr,
                                           const ClosedInterval& range,
                                           unsigned shift) const;
  /// Buckets of the split level with `shift`.
  std::size_t level_size(unsigned shift) const {
    return ((buckets_per_attribute_ - 1) >> shift) + 1;
  }
  /// Allocate or split `attr`'s buckets to fit its registered count.
  void fit(std::size_t attr) const;
  /// Register every pending insert's pivot and intervals, in order,
  /// after fitting each attribute to its count with the batch included.
  void register_pending() const;
  /// The constraint on the lowest-numbered attribute (`sub` must have
  /// one).
  static const Constraint& pivot(const Subscription& sub);

  const SlotTable& table_;
  Schema schema_;
  std::size_t buckets_per_attribute_;
  mutable std::vector<Attribute> attrs_;
  // Slots whose bucket entries are not registered yet, in insertion
  // order. remove() registers everything pending before it erases, so a
  // pending slot always holds the subscription it was inserted with.
  mutable std::vector<std::uint32_t> pending_;
  // Slots of subscriptions with no constraints: they match every event.
  std::vector<std::uint32_t> match_all_;
  // slot -> whether a subscription is registered there.
  std::vector<std::uint8_t> registered_;
  std::size_t size_ = 0;
  // slot * d + attr -> the slot's interval on attr, written when its
  // pivot registers: the constraint clamped to the domain, or the full
  // Value range when unconstrained.
  mutable std::vector<ClosedInterval> bounds_;
};

}  // namespace cbps::pubsub
