#include "cbps/metrics/topk.hpp"

#include <algorithm>
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

TopK::TopK(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

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
  std::size_t victim = 0;
  std::uint64_t floor = cells_[0].count;
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    const Entry& e = cells_[i];
    if (e.count < floor || (e.count == floor && e.key > cells_[victim].key)) {
      victim = i;
      floor = e.count;
    }
  }
  // Shift the cells between the victim and the new key's slot by one, so
  // the vector never changes size.
  if (victim < at) {
    --at;
    std::move(cell(victim + 1), cell(at + 1), cell(victim));
  } else {
    std::move_backward(cell(at), cell(victim), cell(victim + 1));
  }
  cells_[at] = Entry{key, floor + weight, floor};
  return at;
}

void TopK::offer(std::uint64_t key, std::uint64_t weight) {
  if (weight == 0) return;
  total_ += weight;
  const auto it = slot(cells_, key);
  if (it != cells_.end() && it->key == key) {
    it->count += weight;
    return;
  }
  admit(static_cast<std::size_t>(it - cells_.begin()), key, weight);
}

void TopK::offer_each(std::span<const std::uint64_t> keys) {
  total_ += keys.size();
  std::size_t at = 0;  // cursor: no cell before it has a key >= the next
  std::uint64_t prev = 0;
  for (const std::uint64_t key : keys) {
    if (key < prev) at = 0;  // a descending step starts a new stretch
    prev = key;
    while (at < cells_.size() && cells_[at].key < key) ++at;
    if (at < cells_.size() && cells_[at].key == key) {
      ++cells_[at].count;
    } else {
      at = admit(at, key, 1);
    }
  }
}

void TopK::merge(const TopK& other) {
  const TopK* const parts[] = {this, &other};
  TopK merged = sum(capacity_, parts);
  total_ = merged.total_;
  cells_ = std::move(merged.cells_);
}

TopK TopK::sum(std::size_t capacity, std::span<const TopK* const> parts) {
  TopK out(capacity);
  std::size_t cells = 0;
  for (const TopK* p : parts) {
    out.total_ += p->total_;
    cells += p->cells_.size();
  }
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

void TopK::reset() {
  total_ = 0;
  cells_.clear();
}

}  // namespace cbps::metrics
