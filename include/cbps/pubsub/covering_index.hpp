// Subscription covering/merging on top of the counting index.
//
// At production scale most subscriptions are near-duplicates: many
// subscribers register the same popular filter, or the same filter
// shifted slightly in one attribute (Shi et al., "Towards Scalable
// Subscription Aggregation and Real Time Event Matching in a Large-Scale
// Content-Based Network"). This engine exploits that redundancy while
// staying *exact*:
//
//   - Covering: a new subscription whose subspace is contained in a
//     stored root's subspace becomes a covered *child* of that root — no
//     index entries, no per-event candidate cost. Children are verified
//     with Subscription::matches only when their coverer matches, which
//     cannot miss (child space is a subset of the coverer's).
//   - Merging: subscriptions identical on all but one attribute are
//     grouped under a synthetic *umbrella* root whose interval on the
//     free attribute is the group hull. The umbrella is what the
//     counting index stores; its members are children verified exactly
//     at match time. A bounded false-positive budget limits the fraction
//     of the hull not covered by any member, so umbrella hits that
//     verify to nothing stay rare. Umbrellas are internal and never
//     reported.
//   - Expansion: removing (or expiring) a root re-promotes its children
//     through the normal insert path; an umbrella left with one member
//     dissolves back into a plain root.
//
// Exactness invariant: match_into returns precisely the registered
// subscriptions matching the event — identical to the brute-force scan —
// because covering/merging only ever *over*-approximates candidate sets
// and every child is re-verified against the event.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "cbps/common/types.hpp"
#include "cbps/pubsub/counting_index.hpp"
#include "cbps/pubsub/match_index.hpp"
#include "cbps/pubsub/schema.hpp"
#include "cbps/pubsub/subscription.hpp"

namespace cbps::pubsub {

struct CoveringOptions {
  /// Counting-index resolution for the stored roots.
  std::size_t buckets_per_attribute = 256;
  /// Cap on covered children per root: bounds the exact-verification
  /// work a single root hit can trigger. A full root stops accepting
  /// children; new subscriptions fall through to merging or a new root.
  std::size_t max_children_per_root = 256;
  /// Merge false-positive budget: the fraction of an umbrella's hull on
  /// the free attribute that no member covers must stay <= this. 0
  /// merges only touching/overlapping intervals; 1 merges anything.
  double merge_fp_budget = 0.25;
  /// Coverer search inspects at most this many candidate roots.
  std::size_t max_cover_candidates = 32;
  /// Merge lookup inspects at most this many same-signature roots.
  std::size_t max_merge_candidates = 8;
};

// Roots (real and umbrella) are numbered by their own dense, LIFO-reused
// root slots; those are the slots of the inner counting index, which reads
// each root's subscription back through this index. Children and inert
// subscriptions are held by their store slots only.
class CoveringIndex final : public MatchIndex, private SlotTable {
 public:
  CoveringIndex(const SlotTable& table, const Schema& schema,
                CoveringOptions opts = {});
  CoveringIndex(const CoveringIndex&) = delete;
  CoveringIndex& operator=(const CoveringIndex&) = delete;

  bool insert(std::uint32_t slot, const Subscription& sub) override;
  bool remove(std::uint32_t slot) override;
  void match_into(const Event& e,
                  std::vector<std::uint32_t>& slots) const override;

  /// Logical subscription count (roots + covered children + inert).
  std::size_t size() const override { return logical_size_; }
  std::size_t memory_bytes() const override;

  // --- aggregation statistics -------------------------------------------
  /// Entries the counting index actually stores (real roots + umbrellas).
  std::size_t stored_roots() const { return index_.size(); }
  /// Subscriptions held as covered/merged children (no index entries).
  std::size_t covered_children() const { return children_count_; }
  /// Synthetic umbrella roots currently live.
  std::size_t umbrella_count() const { return umbrella_count_; }
  /// Subscriptions that can never match (constraint disjoint from the
  /// schema domain) held inert.
  std::size_t inert_count() const { return inert_count_; }

  const CoveringOptions& options() const { return opts_; }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  struct Root {
    std::uint32_t slot = kNoSlot;  // store slot of a real root
    SubscriptionPtr umbrella;      // umbrella only: its synthetic filter
    std::vector<std::uint32_t> children;  // store slots
    std::size_t free_attr = 0;  // umbrella only: the merged attribute
    // Umbrella only: disjoint sorted union of member intervals on
    // free_attr, for the false-positive budget accounting.
    std::vector<ClosedInterval> covered;
    // Signature hashes this root registered in merge_map_ (one per
    // constrained attribute for real roots, one for umbrellas).
    std::vector<std::uint64_t> sigs;
  };

  // What a store slot is to this index.
  enum class Role : std::uint8_t { kNone, kInert, kRoot, kChild };
  struct SlotRole {
    Role role = Role::kNone;
    std::uint32_t root = 0;  // kRoot: its own root; kChild: its parent's
  };

  /// The inner index's table: a root's (real or umbrella) subscription.
  const Subscription& at(std::uint32_t root) const override;

  void insert_internal(std::uint32_t slot, const Subscription& sub);
  bool try_cover(std::uint32_t slot, const Subscription& sub);
  bool try_merge(std::uint32_t slot, const Subscription& sub);
  void add_root(std::uint32_t slot);
  /// Number `root` (LIFO reuse) and register it with the inner index.
  std::uint32_t add_root_entry(Root root);
  /// Unregister root `r` everywhere and free its number; returns its
  /// children.
  std::vector<std::uint32_t> remove_root_entry(std::uint32_t r);
  void promote_children(const std::vector<std::uint32_t>& children);
  void register_sigs(std::uint32_t r);
  void unregister_sigs(std::uint32_t r);
  std::uint64_t signature(const Subscription& sub,
                          std::size_t free_attr) const;
  /// Merge `iv` into the sorted-disjoint union `covered`; returns the
  /// union's total width.
  static std::uint64_t merge_covered(std::vector<ClosedInterval>& covered,
                                     ClosedInterval iv);
  static std::uint64_t covered_width(
      const std::vector<ClosedInterval>& covered);

  const SlotTable& table_;
  Schema schema_;
  CoveringOptions opts_;
  CountingIndex index_;  // roots only (real + umbrella), by root number
  std::vector<Root> roots_;
  std::vector<std::uint32_t> free_roots_;
  std::vector<SlotRole> roles_;  // store slot -> role
  // signature -> roots eligible to merge under it.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> merge_map_;
  std::size_t umbrella_count_ = 0;
  std::size_t children_count_ = 0;
  std::size_t inert_count_ = 0;
  std::size_t logical_size_ = 0;
  mutable std::vector<std::uint32_t> scratch_roots_;
};

}  // namespace cbps::pubsub
