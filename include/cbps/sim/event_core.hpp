// Event-queue machinery of the simulation engine.
//
// An EventCore is one time-ordered event heap plus the slot storage
// behind it. The schedule/fire/cancel cycle is allocation-free in steady
// state (generation-stamped slots recycled through a free list, inline
// callbacks, a flat vector heap), and stale entries left behind by
// cancel() are skipped lazily and compacted away once they dominate.
//
// Ordering — the determinism contract. Every event carries a canonical
// 64-bit key
//
//     key = (scheduling domain << 40) | per-domain schedule counter
//
// and the heap orders by (time, key). Because a domain's counter is only
// ever bumped while that domain is executing (or, for the global domain,
// while the engine is between events), the sequence of keys a domain
// assigns is a pure function of its own execution history. (time, key)
// is a total order, so events that share a timestamp run in an order
// that does not depend on the heap's layout, and domain 0 keys sort
// before all node keys: global events at time t run before node events
// at t.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/inline_function.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::sim {

/// Inline capacity of an event callback, in bytes. It is sized to the
/// largest closure scheduled once per network hop: Chord's delivery,
/// which carries the network, the sender's and receiver's peer records
/// and the 96-byte Envelope by value (chord/network.cpp static_asserts
/// the size). So no hop allocates, and every smaller callback fits too.
inline constexpr std::size_t kCallbackBytes = 120;

}  // namespace cbps::sim

namespace cbps::sim::detail {

using Domain = common::Domain;

/// Canonical event key: scheduling domain in the high 24 bits, that
/// domain's schedule counter in the low 40. Uniqueness needs < 2^24
/// domains and < 2^40 events per domain; both asserted where bumped.
inline std::uint64_t make_key(Domain domain, std::uint64_t dseq) {
  CBPS_ASSERT(domain < (1u << 24));
  CBPS_ASSERT(dseq < (std::uint64_t{1} << 40));
  return (static_cast<std::uint64_t>(domain) << 40) | dseq;
}

class EventCore {
 public:
  using Callback = common::InlineFunction<void(), kCallbackBytes>;
  using EventId = std::uint64_t;

  static constexpr EventId kInvalidEvent = 0;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // EventId layout: [generation:32][slot index + 1:32]. The +1 keeps
  // generation 0 / slot 0 distinct from kInvalidEvent. A slot's
  // generation bumps on every release, so handles to fired, cancelled,
  // or recycled events go stale (2^32 reuses to alias).
  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    CBPS_ASSERT(slot < kNoSlot);
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id) - 1;
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  EventCore() = default;
  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  struct Popped {
    SimTime time = 0;
    std::uint64_t key = 0;
    Domain target = 0;  // domain the callback executes as
    Callback cb;
  };

  /// Insert an event. `key` is the canonical key (already attributed to
  /// the scheduling domain by the engine); `target` is the domain the
  /// callback will execute as.
  EventId schedule(SimTime t, std::uint64_t key, Domain target,
                   Callback&& cb) {
    CBPS_ASSERT_MSG(t >= floor_, "scheduling into the past");
    CBPS_ASSERT(static_cast<bool>(cb));
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.armed = true;
    s.target = target;
    const EventId id = make_id(s.gen, slot);
    heap_.push_back(HeapEntry{t, key, id});
    std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
    ++live_;
    return id;
  }

  /// Cancel a pending event. Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id) {
    if (!is_live(id)) return false;
    release(slot_of(id));
    // The heap entry stays behind and is skipped lazily when popped —
    // unless stale entries now dominate, in which case rebuild.
    maybe_compact();
    return true;
  }

  bool is_live(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].armed &&
           slots_[slot].gen == gen_of(id);
  }

  /// Pop the earliest live event if its time is <= `bound`. Returns
  /// false when the core is empty or its earliest event is later.
  bool pop_until(SimTime bound, Popped& out) {
    skim_stale();
    if (heap_.empty() || heap_.front().time > bound) return false;
    const HeapEntry top = heap_.front();
    pop_front();
    CBPS_ASSERT(top.time >= floor_);
    floor_ = top.time;
    const std::uint32_t slot = slot_of(top.id);
    out.time = top.time;
    out.key = top.key;
    out.target = slots_[slot].target;
    out.cb = std::move(slots_[slot].cb);
    release(slot);
    ++processed_;
    return true;
  }

  // --- accounting ---------------------------------------------------------
  std::size_t live() const { return live_; }
  std::uint64_t processed() const { return processed_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t stale_skipped() const { return stale_skipped_; }

 private:
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    Domain target = 0;
    bool armed = false;
  };

  struct HeapEntry {
    SimTime time;
    std::uint64_t key;  // canonical (domain, seq) key — see file header
    EventId id;
    // Min-heap ordering: earliest time first, then canonical key. Keys
    // are unique, so pop order is a total order independent of the
    // heap's internal (insertion-dependent) layout. Written without a
    // branch: events often share a timestamp, so which side wins is
    // data-dependent and a branch would mispredict.
    friend bool earlier(const HeapEntry& a, const HeapEntry& b) {
      return (a.time < b.time) | ((a.time == b.time) & (a.key < b.key));
    }
  };

  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return earlier(b, a);
    }
  };

  /// Remove the heap's front (Floyd's bottom-up pop): walk the hole from
  /// the root down the earlier-child path to a leaf, with a branch-free
  /// child pick, then sift the last entry up into it.
  void pop_front() {
    const std::size_t n = heap_.size() - 1;
    const HeapEntry last = heap_[n];
    heap_.pop_back();
    if (n == 0) return;
    HeapEntry* h = heap_.data();
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += earlier(h[child + 1], h[child]);
      h[hole] = h[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {
      h[hole] = h[child];
      hole = child;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!earlier(last, h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = last;
  }

  /// Free the slot behind `id` (bumps generation, recycles storage).
  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.cb = nullptr;
    s.armed = false;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  void skim_stale() {
    while (!heap_.empty() && !is_live(heap_.front().id)) {
      pop_front();
      ++stale_skipped_;
    }
  }

  /// Rebuild the heap without stale entries once they dominate.
  void maybe_compact() {
    const std::size_t stale = heap_.size() - live_;
    if (stale <= live_ || heap_.size() < 64) return;
    std::erase_if(heap_,
                  [this](const HeapEntry& e) { return !is_live(e.id); });
    std::make_heap(heap_.begin(), heap_.end(), HeapGreater{});
    ++compactions_;
  }

  std::vector<HeapEntry> heap_;  // binary min-heap, front = earliest
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;  // armed slots == non-stale heap entries
  std::uint64_t processed_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t stale_skipped_ = 0;
  SimTime floor_ = 0;
};

}  // namespace cbps::sim::detail
