#include "cbps/metrics/topk.hpp"

#include <algorithm>
#include <iterator>
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

void TopK::offer(std::uint64_t key, std::uint64_t weight) {
  if (weight == 0) return;
  total_ += weight;
  if (const auto it = slot(cells_, key);
      it != cells_.end() && it->key == key) {
    it->count += weight;
    return;
  }
  std::uint64_t floor = 0;
  if (cells_.size() >= capacity_) {
    // Space-saving eviction: replace the minimum-count entry; among equal
    // minima the largest key id goes (total order — no layout dependence).
    auto victim = cells_.begin();
    for (auto it = std::next(cells_.begin()); it != cells_.end(); ++it) {
      if (it->count < victim->count ||
          (it->count == victim->count && it->key > victim->key)) {
        victim = it;
      }
    }
    floor = victim->count;
    cells_.erase(victim);
  }
  cells_.insert(slot(cells_, key), Entry{key, floor + weight, floor});
}

void TopK::merge(const TopK& other) {
  total_ += other.total_;
  // Union-sum of two key-sorted runs.
  std::vector<Entry> sum;
  sum.reserve(cells_.size() + other.cells_.size());
  auto a = cells_.cbegin();
  auto b = other.cells_.cbegin();
  while (a != cells_.cend() || b != other.cells_.cend()) {
    if (b == other.cells_.cend() || (a != cells_.cend() && a->key < b->key)) {
      sum.push_back(*a++);
    } else if (a == cells_.cend() || b->key < a->key) {
      sum.push_back(*b++);
    } else {
      sum.push_back(Entry{a->key, a->count + b->count, a->error + b->error});
      ++a;
      ++b;
    }
  }
  cells_ = std::move(sum);
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
