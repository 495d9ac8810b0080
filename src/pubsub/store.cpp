#include "cbps/pubsub/store.hpp"

#include <algorithm>
#include <utility>

namespace cbps::pubsub {

const char* to_string(MatchEngine engine) {
  switch (engine) {
    case MatchEngine::kBruteForce:
      return "brute";
    case MatchEngine::kCountingIndex:
      return "counting";
  }
  return "?";
}

std::optional<MatchEngine> match_engine_from_string(std::string_view s) {
  if (s == "brute") return MatchEngine::kBruteForce;
  if (s == "counting") return MatchEngine::kCountingIndex;
  return std::nullopt;
}

void SubscriptionStore::index_expiry(std::uint32_t slot, sim::SimTime when) {
  if (when == sim::kSimTimeNever) return;
  expiry_index_.emplace(when, slot);
}

void SubscriptionStore::unindex_expiry(std::uint32_t slot,
                                       sim::SimTime when) {
  if (when == sim::kSimTimeNever) return;
  auto [lo, hi] = expiry_index_.equal_range(when);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == slot) {
      expiry_index_.erase(it);
      return;
    }
  }
}

void SubscriptionStore::erase_slot(std::uint32_t slot) {
  Record& rec = slots_[slot];
  if (!rec.replica) --owned_;
  unindex_expiry(slot, rec.expires_at);
  // The index reads the record's constraints while it unregisters them.
  if (index_) index_->remove(slot);
  ids_.erase(rec.sub->id);
  rec = Record{};
  free_slots_.push_back(slot);
}

bool SubscriptionStore::insert(Record&& record) {
  CBPS_ASSERT(record.sub != nullptr);
  // A new record takes the most recently freed slot, else a new one.
  const std::uint32_t next = free_slots_.empty()
                                 ? static_cast<std::uint32_t>(slots_.size())
                                 : free_slots_.back();
  const auto [found, fresh] = ids_.emplace(record.sub->id, next);
  if (fresh) {
    const std::uint32_t slot = found;
    if (slot == slots_.size()) {
      slots_.push_back(std::move(record));
    } else {
      free_slots_.pop_back();
      slots_[slot] = std::move(record);
    }
    const Record& stored = slots_[slot];
    index_expiry(slot, stored.expires_at);
    if (index_) index_->insert(slot, *stored.sub);
    if (!stored.replica) {
      ++owned_;
      note_owned_change();
    }
    return true;
  }
  // Refresh: update expiry and runs; a non-replica insert upgrades a
  // replica record to owned.
  Record& existing = slots_[found];
  if (existing.expires_at != record.expires_at) {
    unindex_expiry(found, existing.expires_at);
    existing.expires_at = record.expires_at;
    index_expiry(found, existing.expires_at);
  }
  // A re-subscription can carry different constraints under the same id
  // (the subscriber upgraded its filter): the index entries must follow,
  // or the counting index keeps matching the stale constraints and
  // silently diverge from brute force. The index reads constraints
  // through this store, so it unregisters the old ones before the
  // pointer changes and registers the new ones after.
  if (existing.sub != record.sub) {
    const bool reindex =
        index_ && existing.sub->constraints != record.sub->constraints;
    if (reindex) index_->remove(found);
    existing.sub = std::move(record.sub);
    if (reindex) index_->insert(found, *existing.sub);
  }
  existing.runs = std::move(record.runs);
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
  const std::uint32_t slot = ids_.find(id);
  if (slot == FlatIdMap::kNone) return false;
  erase_slot(slot);
  return true;
}

const SubscriptionStore::Record* SubscriptionStore::find(
    SubscriptionId id) const {
  const std::uint32_t slot = ids_.find(id);
  return slot == FlatIdMap::kNone ? nullptr : &slots_[slot];
}

std::size_t SubscriptionStore::sweep_expired(sim::SimTime now) {
  std::size_t removed = 0;
  while (!expiry_index_.empty() && expiry_index_.begin()->first <= now) {
    erase_slot(expiry_index_.begin()->second);
    ++removed;
  }
  return removed;
}

std::vector<const SubscriptionStore::Record*> SubscriptionStore::match(
    const Event& e, sim::SimTime now) const {
  std::vector<const Record*> out;
  if (index_) {
    scratch_slots_.clear();
    index_->match_into(e, scratch_slots_);
    out.reserve(scratch_slots_.size());
    for (const std::uint32_t slot : scratch_slots_) {
      const Record& rec = slots_[slot];
      if (rec.expires_at <= now) continue;
      out.push_back(&rec);
    }
    return out;
  }
  CBPS_ASSERT_MSG(schema_.has_value(), "use_engine before matching");
  out.reserve(size());
  for (const Record& rec : slots_) {
    if (rec.sub == nullptr || rec.expires_at <= now) continue;
    if (rec.sub->matches_within(e, *schema_)) out.push_back(&rec);
  }
  // Brute force is the oracle engine: its match order must be a pure
  // function of the stored set, not of slot reuse (D1).
  std::sort(out.begin(), out.end(), [](const Record* a, const Record* b) {
    return a->sub->id < b->sub->id;
  });
  return out;
}

std::vector<std::uint32_t> SubscriptionStore::slots_by_id() const {
  std::vector<std::uint32_t> order;
  order.reserve(size());
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].sub != nullptr) order.push_back(slot);
  }
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return slots_[a].sub->id < slots_[b].sub->id;
            });
  return order;
}

void SubscriptionStore::for_each(
    const std::function<void(const Record&)>& fn) const {
  // Callers forward replicas and emit audit issues from this callback:
  // visit in id order so those side effects are deterministic (D1).
  for (const std::uint32_t slot : slots_by_id()) fn(slots_[slot]);
}

std::size_t SubscriptionStore::remove_if(
    const std::function<bool(const Record&)>& pred) {
  // Erase in id order: removals mutate the match index's posting lists
  // and the free-slot list, so removal order shapes later match output
  // (D1).
  std::vector<std::uint32_t> doomed;
  for (const std::uint32_t slot : slots_by_id()) {
    if (pred(slots_[slot])) doomed.push_back(slot);
  }
  for (const std::uint32_t slot : doomed) erase_slot(slot);
  return doomed.size();
}

void SubscriptionStore::note_owned_change() {
  if (owned_ > peak_owned_) peak_owned_ = owned_;
}

}  // namespace cbps::pubsub
