#include "cbps/pubsub/counting_index.hpp"

#include <algorithm>
#include <bit>
#include <limits>

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

const Constraint& CountingIndex::pivot(const Subscription& sub) {
  return *std::ranges::min_element(sub.constraints, {},
                                   &Constraint::attribute);
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
  if (slot >= registered_.size()) registered_.resize(slot + 1, 0);
  if (registered_[slot]) return false;
  registered_[slot] = 1;
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
    ++attrs_[pivot(table_.at(slot)).attribute].registered;
  }
  for (std::size_t attr = 0; attr < attrs_.size(); ++attr) {
    const Attribute& a = attrs_[attr];
    if (a.registered > kSubsPerBucket * a.buckets.size()) fit(attr);
  }
  const std::size_t d = schema_.dimensions();
  if (bounds_.size() < registered_.size() * d) {
    bounds_.resize(registered_.size() * d);
  }
  for (const std::uint32_t slot : pending_) {
    const Subscription& sub = table_.at(slot);
    ClosedInterval* box = &bounds_[slot * d];
    std::fill(box, box + d,
              ClosedInterval{std::numeric_limits<Value>::min(),
                             std::numeric_limits<Value>::max()});
    for (const Constraint& c : sub.constraints) {
      box[c.attribute] = *c.range.intersect(schema_.domain(c.attribute));
    }
    const Constraint& p = pivot(sub);
    Attribute& a = attrs_[p.attribute];
    const auto [first, last] = span(p.attribute, p.range, a.shift);
    for (std::size_t b = first; b <= last; ++b) {
      a.buckets[b].push_back(Entry{slot, p.range});
    }
  }
  // Release the batch: between batches the index holds what eager
  // registration would.
  std::vector<std::uint32_t>().swap(pending_);
}

bool CountingIndex::remove(std::uint32_t slot) {
  if (slot >= registered_.size() || !registered_[slot]) return false;
  register_pending();
  registered_[slot] = 0;
  --size_;

  const Subscription& sub = table_.at(slot);
  if (!sub.satisfiable_for(schema_)) return true;  // had no entries

  if (sub.constraints.empty()) {
    std::erase(match_all_, slot);
    return true;
  }
  const Constraint& p = pivot(sub);
  Attribute& a = attrs_[p.attribute];
  --a.registered;
  const auto [first, last] = span(p.attribute, p.range, a.shift);
  for (std::size_t b = first; b <= last; ++b) {
    std::erase_if(a.buckets[b],
                  [slot](const Entry& e) { return e.slot == slot; });
  }
  return true;
}

void CountingIndex::match_into(const Event& e,
                               std::vector<std::uint32_t>& slots) const {
  const std::size_t d = schema_.dimensions();
  CBPS_ASSERT(e.values.size() == d);
  register_pending();
  slots.insert(slots.end(), match_all_.begin(), match_all_.end());
  for (std::size_t attr = 0; attr < d; ++attr) {
    const Value v = e.values[attr];
    const Attribute& a = attrs_[attr];
    if (a.buckets.empty() || !schema_.domain(attr).contains(v)) continue;
    for (const Entry& entry : a.buckets[cap_bucket(attr, v) >> a.shift]) {
      if (!entry.range.contains(v)) continue;
      const ClosedInterval* box = &bounds_[entry.slot * d];
      std::size_t held = 0;
      while (held < d && box[held].contains(e.values[held])) ++held;
      if (held == d) slots.push_back(entry.slot);
    }
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
  bytes += registered_.capacity() * sizeof(std::uint8_t);
  bytes += bounds_.capacity() * sizeof(ClosedInterval);
  return bytes;
}

}  // namespace cbps::pubsub
