// Per-rendezvous subscription storage and matching.
//
// A node stores each subscription at most once regardless of how many of
// its keys the node covers; records carry the expiry time and the SK key
// runs (needed for collecting-agent election and state handover). The
// runs are the subscriber's one immutable copy, shared by pointer
// (RunsPtr), so storing, replicating or handing over a record neither
// allocates nor copies them. An
// ordered expiry index makes expiration sweeps O(log n) so the paper's
// 25k-subscription memory experiments stay cheap.
//
// Records live in one vector of dense slots. A freed slot is reused
// last-in first-out, else the vector grows, and the counting index (when
// installed) registers, removes and reports subscriptions by the same
// slots. One flat open-addressing map finds an id's slot; nothing walks
// it, so visiting records in id order means sorting the live slots' ids.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "cbps/common/flat_id_map.hpp"
#include "cbps/common/types.hpp"
#include "cbps/pubsub/counting_index.hpp"
#include "cbps/pubsub/messages.hpp"
#include "cbps/pubsub/subscription.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::pubsub {

/// How a rendezvous matches incoming events against its stored
/// subscriptions.
enum class MatchEngine {
  kBruteForce,     // linear scan (simple, the correctness oracle)
  kCountingIndex,  // per-attribute interval buckets (Fabret et al. [6])
};

const char* to_string(MatchEngine engine);
/// Parse "brute" / "counting"; returns std::nullopt on anything else.
std::optional<MatchEngine> match_engine_from_string(std::string_view s);

class SubscriptionStore : private SlotTable {
 public:
  struct Record {
    SubscriptionPtr sub;
    sim::SimTime expires_at = sim::kSimTimeNever;
    RunsPtr runs;          // SK(sub), shared with every other copy
    bool replica = false;  // held for a neighbor's crash recovery
  };

  SubscriptionStore() = default;
  // The counting index reads records through this object.
  SubscriptionStore(const SubscriptionStore&) = delete;
  SubscriptionStore& operator=(const SubscriptionStore&) = delete;

  /// Switch matching to the counting index (call before any insert).
  void use_counting_index(const Schema& schema,
                          std::size_t buckets_per_attribute = 256) {
    CBPS_ASSERT_MSG(slots_.empty(), "enable the index on an empty store");
    index_ = std::make_unique<CountingIndex>(table(), schema,
                                             buckets_per_attribute);
  }

  /// Install `engine` (call before any insert). Every store that
  /// matches is set up this way: brute force keeps the schema to hold
  /// the counting index's domain contract (see
  /// Subscription::matches_within), so both engines match alike.
  void use_engine(MatchEngine engine, const Schema& schema) {
    if (engine == MatchEngine::kCountingIndex) {
      use_counting_index(schema);
    } else {
      schema_.emplace(schema);
    }
  }

  MatchEngine engine() const {
    return index_ ? MatchEngine::kCountingIndex : MatchEngine::kBruteForce;
  }

  /// The counting index (nullptr under brute force).
  const CountingIndex* counting_index() const { return index_.get(); }

  /// Heap footprint of the match index in bytes (0 under brute force).
  std::size_t index_memory_bytes() const {
    return index_ ? index_->memory_bytes() : 0;
  }

  // A `const Record*` or `const Record&` from find(), match() or for_each()
  // stays valid until the next insert or remove (sweeps and remove_if
  // included): an insert may grow the slot vector, a remove clears the
  // slot.

  /// Insert or refresh. Returns true if the record is new — or if a
  /// non-replica insert upgraded an existing replica record to an owned
  /// one (fresh ownership needs a fresh replication chain).
  bool insert(Record&& record);
  /// Copying form, for callers that keep their record (a copy shares
  /// the record's subscription and runs).
  bool insert(const Record& record) { return insert(Record(record)); }

  /// Remove by id. Returns true if present.
  bool remove(SubscriptionId id);

  const Record* find(SubscriptionId id) const;

  /// Remove every record with expires_at <= now. Returns removed count.
  std::size_t sweep_expired(sim::SimTime now);

  /// Earliest finite expiry among stored records (kSimTimeNever if none).
  sim::SimTime next_expiry() const {
    return expiry_index_.empty() ? sim::kSimTimeNever
                                 : expiry_index_.begin()->first;
  }

  /// Matching records (non-expired) for `e` — owned and replica alike
  /// (replicas only ever see events when this node inherited the range).
  std::vector<const Record*> match(const Event& e, sim::SimTime now) const;

  /// Visit every record (e.g. for state export).
  void for_each(const std::function<void(const Record&)>& fn) const;

  /// Remove all records for which `pred` returns true; returns count.
  std::size_t remove_if(const std::function<bool(const Record&)>& pred);

  std::size_t size() const { return ids_.size(); }
  /// Count of owned (non-replica) records — the quantity the paper's
  /// memory figures report.
  std::size_t owned_size() const { return owned_; }

  /// High-water mark of owned_size() over the store's lifetime.
  std::size_t peak_owned_size() const { return peak_owned_; }

 private:
  const Subscription& at(std::uint32_t slot) const override {
    return *slots_[slot].sub;
  }
  const SlotTable& table() const { return *this; }
  void index_expiry(std::uint32_t slot, sim::SimTime when);
  void unindex_expiry(std::uint32_t slot, sim::SimTime when);
  void erase_slot(std::uint32_t slot);
  /// Live slots, ordered by subscription id.
  std::vector<std::uint32_t> slots_by_id() const;
  void note_owned_change();

  std::vector<Record> slots_;  // sub == nullptr: free
  std::vector<std::uint32_t> free_slots_;  // reused last-in first-out
  FlatIdMap ids_;                           // id -> slot
  std::multimap<sim::SimTime, std::uint32_t> expiry_index_;  // -> slot
  std::unique_ptr<CountingIndex> index_;  // null = brute force
  std::optional<Schema> schema_;  // brute force's domains (use_engine)
  mutable std::vector<std::uint32_t> scratch_slots_;
  std::size_t owned_ = 0;
  std::size_t peak_owned_ = 0;
};

}  // namespace cbps::pubsub
