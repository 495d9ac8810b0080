#include "cbps/pubsub/store.hpp"

#include <algorithm>
#include <utility>

#include "cbps/common/sorted_view.hpp"

namespace cbps::pubsub {

const char* to_string(MatchEngine engine) {
  switch (engine) {
    case MatchEngine::kBruteForce:
      return "brute";
    case MatchEngine::kCountingIndex:
      return "counting";
    case MatchEngine::kCoveringIndex:
      return "covering";
  }
  return "?";
}

std::optional<MatchEngine> match_engine_from_string(std::string_view s) {
  if (s == "brute") return MatchEngine::kBruteForce;
  if (s == "counting") return MatchEngine::kCountingIndex;
  if (s == "covering") return MatchEngine::kCoveringIndex;
  return std::nullopt;
}

void SubscriptionStore::index_expiry(SubscriptionId id, sim::SimTime at) {
  if (at == sim::kSimTimeNever) return;
  expiry_index_.emplace(at, id);
}

void SubscriptionStore::unindex_expiry(SubscriptionId id, sim::SimTime at) {
  if (at == sim::kSimTimeNever) return;
  auto [lo, hi] = expiry_index_.equal_range(at);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == id) {
      expiry_index_.erase(it);
      return;
    }
  }
}

SubscriptionStore::RecordMap::iterator SubscriptionStore::erase_record(
    RecordMap::iterator it) {
  if (!it->second.replica) --owned_;
  unindex_expiry(it->first, it->second.expires_at);
  if (index_) index_->remove(it->first);
  return records_.erase(it);
}

bool SubscriptionStore::insert(Record&& record) {
  CBPS_ASSERT(record.sub != nullptr);
  const SubscriptionId id = record.sub->id;
  // try_emplace leaves `record` untouched when the id is already stored.
  auto [it, inserted] = records_.try_emplace(id, std::move(record));
  if (inserted) {
    const Record& stored = it->second;
    index_expiry(id, stored.expires_at);
    if (index_) index_->insert(stored.sub);
    if (!stored.replica) {
      ++owned_;
      note_owned_change();
    }
    return true;
  }
  // Refresh: update expiry and ranges; a non-replica insert upgrades a
  // replica record to owned.
  Record& existing = it->second;
  if (existing.expires_at != record.expires_at) {
    unindex_expiry(it->first, existing.expires_at);
    existing.expires_at = record.expires_at;
    index_expiry(it->first, existing.expires_at);
  }
  // A re-subscription can carry different constraints under the same id
  // (the subscriber upgraded its filter): the index entries and the
  // stored pointer must follow, or the indexed engines keep matching the
  // stale constraints and silently diverge from brute force.
  if (existing.sub != record.sub) {
    if (index_ && existing.sub->constraints != record.sub->constraints) {
      index_->remove(it->first);
      index_->insert(record.sub);
    }
    existing.sub = std::move(record.sub);
  }
  existing.ranges = std::move(record.ranges);
  if (existing.replica && !record.replica) {
    existing.replica = false;
    ++owned_;
    note_owned_change();
    // Fresh *ownership*: the node held only a passive copy until now, so
    // the caller must still build the replication chain for it.
    return true;
  }
  return false;
}

bool SubscriptionStore::remove(SubscriptionId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  erase_record(it);
  return true;
}

const SubscriptionStore::Record* SubscriptionStore::find(
    SubscriptionId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

std::size_t SubscriptionStore::sweep_expired(sim::SimTime now) {
  std::size_t removed = 0;
  while (!expiry_index_.empty() && expiry_index_.begin()->first <= now) {
    const SubscriptionId id = expiry_index_.begin()->second;
    auto it = records_.find(id);
    CBPS_ASSERT(it != records_.end());
    erase_record(it);
    ++removed;
  }
  return removed;
}

std::vector<const SubscriptionStore::Record*> SubscriptionStore::match(
    const Event& e, sim::SimTime now) const {
  std::vector<const Record*> out;
  if (index_) {
    std::vector<SubscriptionId> ids;
    index_->match_into(e, ids);
    out.reserve(ids.size());
    for (SubscriptionId id : ids) {
      const auto it = records_.find(id);
      CBPS_ASSERT(it != records_.end());
      if (it->second.expires_at <= now) continue;
      out.push_back(&it->second);
    }
    return out;
  }
  out.reserve(records_.size());
  // The scan itself may walk in hash order — the result is canonicalized
  // below, so no ordering escapes. Keeping the walk raw preserves the
  // brute engine's cost profile at bench scale (10^6+ records).
  // detlint: unordered-ok(full scan; result sorted by id before return)
  for (const auto& [_, rec] : records_) {
    if (rec.expires_at <= now) continue;
    if (rec.sub->matches(e)) out.push_back(&rec);
  }
  // Brute force is the oracle engine: its match order must be a pure
  // function of the stored set, not of bucket layout (D1).
  std::sort(out.begin(), out.end(), [](const Record* a, const Record* b) {
    return a->sub->id < b->sub->id;
  });
  return out;
}

void SubscriptionStore::for_each(
    const std::function<void(const Record&)>& fn) const {
  // Callers forward replicas and emit audit issues from this callback:
  // visit in id order so those side effects are deterministic (D1).
  for (const auto* entry : sorted_view(records_)) fn(entry->second);
}

std::size_t SubscriptionStore::remove_if(
    const std::function<bool(const Record&)>& pred) {
  // Erase in id order: removals mutate the match index's posting lists
  // (swap-erase), so removal order shapes later match_into output (D1).
  std::vector<SubscriptionId> doomed;
  for (const auto* entry : sorted_view(records_)) {
    if (pred(entry->second)) doomed.push_back(entry->first);
  }
  for (SubscriptionId id : doomed) {
    const auto it = records_.find(id);
    CBPS_ASSERT(it != records_.end());
    erase_record(it);
  }
  return doomed.size();
}

void SubscriptionStore::note_owned_change() {
  if (owned_ > peak_owned_) peak_owned_ = owned_;
}

}  // namespace cbps::pubsub
