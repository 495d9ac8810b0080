#include "cbps/metrics/topk.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

namespace cbps::metrics {

namespace {

/// First cell whose key is not below `key` (cells are sorted by key).
template <class Cells>
auto slot(Cells& cells, std::uint64_t key) {
  return std::lower_bound(
      cells.begin(), cells.end(), key,
      [](const TopK::Entry& e, std::uint64_t k) { return e.key < k; });
}

}  // namespace

// Every pub/sub node carries four sketches: the floor state takes the
// place of a stored total.
static_assert(sizeof(TopK) == 2 * sizeof(std::uint64_t) +
                                  sizeof(std::vector<TopK::Entry>));

TopK::TopK(std::size_t capacity)
    : capacity_(static_cast<std::uint32_t>(
          std::clamp<std::size_t>(capacity, 1, UINT32_MAX))) {}

std::size_t TopK::pop_victim() {
  std::size_t i = cursor_;
  while (i > 0 && cells_[i - 1].count != floor_) --i;
  if (i == 0) {
    // Every floor cell has been evicted or has grown: rescan.
    floor_ = std::min_element(cells_.begin(), cells_.end(),
                              [](const Entry& a, const Entry& b) {
                                return a.count < b.count;
                              })->count;
    i = cells_.size();
    while (cells_[i - 1].count != floor_) --i;
  }
  cursor_ = static_cast<std::uint32_t>(i - 1);
  return cursor_;
}

std::size_t TopK::admit(std::size_t at, std::uint64_t key,
                        std::uint64_t weight) {
  const auto cell = [this](std::size_t i) {
    return cells_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  if (cells_.size() < capacity_) {
    cells_.insert(cell(at), Entry{key, weight, 0});
    return at;
  }
  // Space-saving eviction: replace the minimum-count entry; among equal
  // minima the largest key id goes (total order — no layout dependence).
  const std::size_t victim = pop_victim();
  // Shift the cells between the victim and the new key's slot by one, so
  // the vector never changes size. The new cell lands above the floor.
  if (victim < at) {
    // The cells above the victim are all above the floor.
    --at;
    std::move(cell(victim + 1), cell(at + 1), cell(victim));
  } else if (victim > at) {
    std::move_backward(cell(at), cell(victim), cell(victim + 1));
    ++cursor_;  // the cell below the victim, maybe at the floor, moved up
  }
  cells_[at] = Entry{key, floor_ + weight, floor_};
  return at;
}

void TopK::offer(std::uint64_t key, std::uint64_t weight) {
  if (weight == 0) return;
  const auto it = slot(cells_, key);
  const auto at = static_cast<std::size_t>(it - cells_.begin());
  if (it != cells_.end() && it->key == key) {
    it->count += weight;
    return;
  }
  admit(at, key, weight);
}

void TopK::offer_each(std::span<const std::uint64_t> keys) {
  std::size_t at = 0;  // cursor: no cell before it has a key >= the next
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t key = keys[i];
    if (i == 0 || key < keys[i - 1]) {
      // A stretch starts here: binary-search its first slot.
      at = static_cast<std::size_t>(slot(cells_, key) - cells_.begin());
    } else {
      while (at < cells_.size() && cells_[at].key < key) ++at;
    }
    if (at < cells_.size() && cells_[at].key == key) {
      ++cells_[at].count;
    } else {
      at = admit(at, key, 1);
    }
  }
}

void TopK::merge(const TopK& other) {
  const TopK* const parts[] = {this, &other};
  cells_ = std::move(sum(capacity_, parts).cells_);
  cursor_ = 0;
}

TopK TopK::sum(std::size_t capacity, std::span<const TopK* const> parts) {
  TopK out(capacity);
  std::size_t cells = 0;
  for (const TopK* p : parts) cells += p->cells_.size();
  out.cells_.reserve(cells);
  for (const TopK* p : parts) {
    out.cells_.insert(out.cells_.end(), p->cells_.begin(), p->cells_.end());
  }
  std::sort(out.cells_.begin(), out.cells_.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  // Sum the cells of equal keys in place; integer sums do not depend on
  // the order equal keys were sorted into.
  std::size_t kept = 0;
  for (const Entry& e : out.cells_) {
    if (kept > 0 && out.cells_[kept - 1].key == e.key) {
      out.cells_[kept - 1].count += e.count;
      out.cells_[kept - 1].error += e.error;
    } else {
      out.cells_[kept++] = e;
    }
  }
  out.cells_.resize(kept);
  return out;
}

std::vector<TopK::Entry> TopK::top(std::size_t k) const {
  std::vector<Entry> out = cells_;
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

TopK::Entry TopK::find(std::uint64_t key) const {
  const auto it = slot(cells_, key);
  if (it == cells_.end() || it->key != key) return Entry{key, 0, 0};
  return *it;
}

std::uint64_t TopK::total() const {
  std::uint64_t sum = 0;
  for (const Entry& e : cells_) sum += e.count;
  return sum;
}

}  // namespace cbps::metrics
