#include "cbps/pubsub/counting_index.hpp"

#include <algorithm>

namespace cbps::pubsub {

CountingIndex::CountingIndex(const Schema& schema,
                             std::size_t buckets_per_attribute)
    : schema_(schema), buckets_per_attribute_(buckets_per_attribute) {
  CBPS_ASSERT(buckets_per_attribute_ >= 1);
  buckets_.resize(schema_.dimensions());
  for (auto& attr_buckets : buckets_) {
    attr_buckets.resize(buckets_per_attribute_);
  }
}

std::size_t CountingIndex::bucket_of(std::size_t attr, Value v) const {
  const ClosedInterval dom = schema_.domain(attr);
  CBPS_ASSERT(dom.contains(v));
  const auto offset = static_cast<std::uint64_t>(v - dom.lo);
  return static_cast<std::size_t>(
      static_cast<Uint128>(offset) * buckets_per_attribute_ / dom.width());
}

bool CountingIndex::insert(const SubscriptionPtr& sub) {
  CBPS_ASSERT(sub != nullptr);
  CBPS_ASSERT_MSG(sub->well_formed_for(schema_),
                  "subscription/schema mismatch");
  if (subs_.contains(sub->id)) return false;

  std::uint32_t dense;
  if (!free_dense_.empty()) {
    dense = free_dense_.back();
    free_dense_.pop_back();
  } else {
    dense = static_cast<std::uint32_t>(dense_.size());
    dense_.emplace_back();
  }
  dense_[dense] = DenseInfo{
      sub->id, static_cast<std::uint32_t>(sub->constraints.size())};
  subs_.emplace(sub->id, SubInfo{sub, dense});

  // A constraint disjoint from its domain makes the whole conjunction
  // unsatisfiable: register the id but add no bucket entries, so the
  // subscription never matches — consistent with the brute-force scan.
  if (!sub->satisfiable_for(schema_)) return true;

  if (sub->constraints.empty()) {
    match_all_.push_back(sub->id);
    return true;
  }
  pending_.push_back({sub.get(), dense});
  return true;
}

void CountingIndex::register_pending() const {
  if (pending_.empty()) return;
  for (const Pending& p : pending_) {
    for (const Constraint& c : p.sub->constraints) {
      const ClosedInterval clamped =
          *c.range.intersect(schema_.domain(c.attribute));
      const std::size_t first = bucket_of(c.attribute, clamped.lo);
      const std::size_t last = bucket_of(c.attribute, clamped.hi);
      for (std::size_t b = first; b <= last; ++b) {
        buckets_[c.attribute][b].push_back(Entry{p.dense, c.range});
      }
    }
  }
  // Release the batch: between batches the index holds what eager
  // registration would.
  std::vector<Pending>().swap(pending_);
}

bool CountingIndex::remove(SubscriptionId id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  register_pending();
  const SubscriptionPtr sub = it->second.sub;
  const std::uint32_t dense = it->second.dense;
  subs_.erase(it);
  dense_[dense] = DenseInfo{};
  free_dense_.push_back(dense);

  if (!sub->satisfiable_for(schema_)) return true;  // had no entries

  if (sub->constraints.empty()) {
    std::erase(match_all_, id);
    return true;
  }
  for (const Constraint& c : sub->constraints) {
    const ClosedInterval clamped =
        *c.range.intersect(schema_.domain(c.attribute));
    const std::size_t first = bucket_of(c.attribute, clamped.lo);
    const std::size_t last = bucket_of(c.attribute, clamped.hi);
    for (std::size_t b = first; b <= last; ++b) {
      std::erase_if(buckets_[c.attribute][b],
                    [dense](const Entry& e) { return e.dense == dense; });
    }
  }
  return true;
}

std::vector<SubscriptionId> CountingIndex::match(const Event& e) const {
  std::vector<SubscriptionId> out;
  match_into(e, out);
  return out;
}

void CountingIndex::match_into(const Event& e,
                               std::vector<SubscriptionId>& out) const {
  CBPS_ASSERT(e.values.size() == schema_.dimensions());
  register_pending();
  ++epoch_;
  if (scratch_count_.size() < dense_.size()) {
    scratch_count_.resize(dense_.size(), 0);
    scratch_epoch_.resize(dense_.size(), 0);
  }
  scratch_touched_.clear();
  for (std::size_t attr = 0; attr < schema_.dimensions(); ++attr) {
    const Value v = e.values[attr];
    if (!schema_.domain(attr).contains(v)) continue;
    const auto& bucket = buckets_[attr][bucket_of(attr, v)];
    for (const Entry& entry : bucket) {
      if (!entry.range.contains(v)) continue;
      if (scratch_epoch_[entry.dense] != epoch_) {
        scratch_epoch_[entry.dense] = epoch_;
        scratch_count_[entry.dense] = 1;
        scratch_touched_.push_back(entry.dense);
      } else {
        ++scratch_count_[entry.dense];
      }
    }
  }
  out.reserve(out.size() + match_all_.size() + scratch_touched_.size());
  out.insert(out.end(), match_all_.begin(), match_all_.end());
  for (const std::uint32_t dense : scratch_touched_) {
    if (scratch_count_[dense] == dense_[dense].constraint_count) {
      out.push_back(dense_[dense].id);
    }
  }
}

std::size_t CountingIndex::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& attr_buckets : buckets_) {
    bytes += attr_buckets.capacity() * sizeof(std::vector<Entry>);
    for (const auto& bucket : attr_buckets) {
      bytes += bucket.capacity() * sizeof(Entry);
    }
  }
  bytes += pending_.capacity() * sizeof(Pending);
  bytes += match_all_.capacity() * sizeof(SubscriptionId);
  // unordered_map: node (key/value + hash-next pointer) per element plus
  // the bucket array.
  bytes += subs_.size() *
           (sizeof(std::pair<const SubscriptionId, SubInfo>) +
            2 * sizeof(void*));
  bytes += subs_.bucket_count() * sizeof(void*);
  bytes += dense_.capacity() * sizeof(DenseInfo);
  bytes += free_dense_.capacity() * sizeof(std::uint32_t);
  bytes += scratch_count_.capacity() * sizeof(std::uint32_t);
  bytes += scratch_epoch_.capacity() * sizeof(std::uint64_t);
  bytes += scratch_touched_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace cbps::pubsub
