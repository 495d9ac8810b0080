// Open-addressing map from 64-bit ids to 32-bit slots.
//
// The rendezvous store keeps its records in a dense slot vector; this map
// finds an id's slot. It is a power-of-two table of {id, slot} pairs at
// most half full, probed linearly from a fixed mixing hash (the splitmix64
// finalizer), with backward-shift erase so no tombstones build up. It
// allocates only when it doubles, never per entry.
//
// There is deliberately no iteration API. The table layout depends on the
// hash, so nothing may walk it (detlint D1): a caller that needs every
// entry walks its own dense slots instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace cbps {

class FlatIdMap {
 public:
  /// find()/erase() result for an absent id.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Slot of `id`, or kNone.
  std::uint32_t find(std::uint64_t id) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Entry& e = table_[i];
      if (e.slot == kNone) return kNone;
      if (e.id == id) return e.slot;
    }
  }

  /// Map `id` to `slot` (slot != kNone) unless `id` is present. Returns
  /// the slot `id` maps to afterwards and whether it was inserted.
  std::pair<std::uint32_t, bool> emplace(std::uint64_t id,
                                         std::uint32_t slot) {
    if (2 * (size_ + 1) > table_.size()) grow();
    std::size_t i = home(id);
    for (; table_[i].slot != kNone; i = (i + 1) & mask_) {
      if (table_[i].id == id) return {table_[i].slot, false};
    }
    table_[i] = Entry{id, slot};
    ++size_;
    return {slot, true};
  }

  /// Remove `id`; returns its slot, or kNone if it was absent.
  std::uint32_t erase(std::uint64_t id) {
    if (size_ == 0) return kNone;
    std::size_t hole = home(id);
    for (;; hole = (hole + 1) & mask_) {
      if (table_[hole].slot == kNone) return kNone;
      if (table_[hole].id == id) break;
    }
    const std::uint32_t slot = table_[hole].slot;
    // Backward shift: pull each later entry of the probe run into the
    // hole unless that would move it before its home position.
    for (std::size_t j = (hole + 1) & mask_; table_[j].slot != kNone;
         j = (j + 1) & mask_) {
      const std::size_t h = home(table_[j].id);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole].slot = kNone;
    --size_;
    return slot;
  }

  /// The fixed hash; an id's probe run starts at hash(id) & (capacity - 1).
  static std::uint64_t hash(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::size_t size() const { return size_; }
  /// Table entries (a power of two, or 0 before the first insert).
  std::size_t capacity() const { return table_.size(); }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::uint32_t slot = kNone;  // kNone: empty
  };

  std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>(hash(id)) & mask_;
  }

  void grow() {
    std::vector<Entry> old(table_.empty() ? 16 : 2 * table_.size());
    old.swap(table_);
    mask_ = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.slot == kNone) continue;
      std::size_t i = home(e.id);
      while (table_[i].slot != kNone) i = (i + 1) & mask_;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cbps
