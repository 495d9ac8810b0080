#include "cbps/pubsub/counting_index.hpp"

#include <algorithm>
#include <bit>

namespace cbps::pubsub {

CountingIndex::CountingIndex(const SlotTable& table, const Schema& schema,
                             std::size_t buckets_per_attribute)
    : table_(table),
      schema_(schema),
      buckets_per_attribute_(buckets_per_attribute),
      attrs_(schema_.dimensions()) {
  CBPS_ASSERT(buckets_per_attribute_ >= 1);
  // Start every attribute on the one-bucket level.
  const auto top =
      static_cast<unsigned>(std::bit_width(buckets_per_attribute_ - 1));
  for (Attribute& a : attrs_) a.shift = top;
}

std::size_t CountingIndex::cap_bucket(std::size_t attr, Value v) const {
  const ClosedInterval dom = schema_.domain(attr);
  CBPS_ASSERT(dom.contains(v));
  const auto offset = static_cast<std::uint64_t>(v - dom.lo);
  return static_cast<std::size_t>(
      static_cast<Uint128>(offset) * buckets_per_attribute_ / dom.width());
}

std::pair<std::size_t, std::size_t> CountingIndex::span(
    std::size_t attr, const ClosedInterval& range, unsigned shift) const {
  const ClosedInterval clamped = *range.intersect(schema_.domain(attr));
  return {cap_bucket(attr, clamped.lo) >> shift,
          cap_bucket(attr, clamped.hi) >> shift};
}

void CountingIndex::fit(std::size_t attr) const {
  Attribute& a = attrs_[attr];
  unsigned shift = a.shift;
  while (shift > 0 && level_size(shift) * kSubsPerBucket < a.registered) {
    --shift;
  }
  if (a.buckets.empty()) {
    a.buckets.resize(level_size(shift));
  } else if (shift != a.shift) {
    // Child c's parent is c >> drop, and an entry overlapping a child
    // overlaps its parent: each child is its parent's list, filtered.
    const unsigned drop = a.shift - shift;
    std::vector<std::vector<Entry>> children(level_size(shift));
    for (std::size_t parent = 0; parent < a.buckets.size(); ++parent) {
      const std::size_t first_child = parent << drop;
      const std::size_t last_child =
          std::min(children.size(), (parent + 1) << drop) - 1;
      for (const Entry& e : a.buckets[parent]) {
        const auto [lo, hi] = span(attr, e.range, shift);
        for (std::size_t c = std::max(lo, first_child);
             c <= std::min(hi, last_child); ++c) {
          children[c].push_back(e);
        }
      }
    }
    a.buckets = std::move(children);
  }
  a.shift = shift;
}

bool CountingIndex::insert(std::uint32_t slot, const Subscription& sub) {
  CBPS_ASSERT_MSG(sub.well_formed_for(schema_),
                  "subscription/schema mismatch");
  if (slot >= need_.size()) need_.resize(slot + 1, kVacant);
  if (need_[slot] != kVacant) return false;
  need_[slot] = static_cast<std::uint32_t>(sub.constraints.size());
  ++size_;

  // A constraint disjoint from its domain makes the whole conjunction
  // unsatisfiable: register the slot but add no bucket entries, so the
  // subscription never matches — consistent with the brute-force scan.
  if (!sub.satisfiable_for(schema_)) return true;

  if (sub.constraints.empty()) {
    match_all_.push_back(slot);
    return true;
  }
  pending_.push_back(slot);
  return true;
}

void CountingIndex::register_pending() const {
  if (pending_.empty()) return;
  // Count the whole batch first, so each attribute fits (allocates or
  // splits) once for its final count. Splits keep entry order, and the
  // entries appended below land in the buckets they would have reached
  // one registration at a time: same buckets, same order, same
  // capacities.
  for (const std::uint32_t slot : pending_) {
    for (const Constraint& c : table_.at(slot).constraints) {
      ++attrs_[c.attribute].registered;
    }
  }
  for (std::size_t attr = 0; attr < attrs_.size(); ++attr) {
    const Attribute& a = attrs_[attr];
    if (a.registered > kSubsPerBucket * a.buckets.size()) fit(attr);
  }
  for (const std::uint32_t slot : pending_) {
    for (const Constraint& c : table_.at(slot).constraints) {
      Attribute& a = attrs_[c.attribute];
      const auto [first, last] = span(c.attribute, c.range, a.shift);
      for (std::size_t b = first; b <= last; ++b) {
        a.buckets[b].push_back(Entry{slot, c.range});
      }
    }
  }
  // Release the batch: between batches the index holds what eager
  // registration would.
  std::vector<std::uint32_t>().swap(pending_);
}

bool CountingIndex::remove(std::uint32_t slot) {
  if (slot >= need_.size() || need_[slot] == kVacant) return false;
  register_pending();
  need_[slot] = kVacant;
  --size_;

  const Subscription& sub = table_.at(slot);
  if (!sub.satisfiable_for(schema_)) return true;  // had no entries

  if (sub.constraints.empty()) {
    std::erase(match_all_, slot);
    return true;
  }
  for (const Constraint& c : sub.constraints) {
    Attribute& a = attrs_[c.attribute];
    --a.registered;
    const auto [first, last] = span(c.attribute, c.range, a.shift);
    for (std::size_t b = first; b <= last; ++b) {
      std::erase_if(a.buckets[b],
                    [slot](const Entry& e) { return e.slot == slot; });
    }
  }
  return true;
}

void CountingIndex::match_into(const Event& e,
                               std::vector<std::uint32_t>& slots) const {
  CBPS_ASSERT(e.values.size() == schema_.dimensions());
  register_pending();
  ++epoch_;
  if (scratch_count_.size() < need_.size()) {
    scratch_count_.resize(need_.size(), 0);
    scratch_epoch_.resize(need_.size(), 0);
  }
  scratch_touched_.clear();
  for (std::size_t attr = 0; attr < schema_.dimensions(); ++attr) {
    const Value v = e.values[attr];
    const Attribute& a = attrs_[attr];
    if (a.buckets.empty() || !schema_.domain(attr).contains(v)) continue;
    const auto& bucket = a.buckets[cap_bucket(attr, v) >> a.shift];
    for (const Entry& entry : bucket) {
      if (!entry.range.contains(v)) continue;
      if (scratch_epoch_[entry.slot] != epoch_) {
        scratch_epoch_[entry.slot] = epoch_;
        scratch_count_[entry.slot] = 1;
        scratch_touched_.push_back(entry.slot);
      } else {
        ++scratch_count_[entry.slot];
      }
    }
  }
  slots.reserve(slots.size() + match_all_.size() + scratch_touched_.size());
  slots.insert(slots.end(), match_all_.begin(), match_all_.end());
  for (const std::uint32_t slot : scratch_touched_) {
    if (scratch_count_[slot] == need_[slot]) slots.push_back(slot);
  }
}

std::size_t CountingIndex::memory_bytes() const {
  std::size_t bytes = 0;
  for (const Attribute& a : attrs_) {
    bytes += a.buckets.capacity() * sizeof(std::vector<Entry>);
    for (const auto& bucket : a.buckets) {
      bytes += bucket.capacity() * sizeof(Entry);
    }
  }
  bytes += pending_.capacity() * sizeof(std::uint32_t);
  bytes += match_all_.capacity() * sizeof(std::uint32_t);
  bytes += need_.capacity() * sizeof(std::uint32_t);
  bytes += scratch_count_.capacity() * sizeof(std::uint32_t);
  bytes += scratch_epoch_.capacity() * sizeof(std::uint64_t);
  bytes += scratch_touched_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace cbps::pubsub
