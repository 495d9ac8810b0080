#include "cbps/chord/finger_table.hpp"

#include <algorithm>

namespace cbps::chord {

void FingerTable::evict(Key node) {
  for (auto& e : entries_) {
    if (e && *e == node) {
      e = std::nullopt;
      ++version_;
    }
  }
}

std::vector<Key> FingerTable::distinct_nodes() const {
  std::vector<Key> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    if (e) out.push_back(*e);
  }
  std::sort(out.begin(), out.end(), [this](Key a, Key b) {
    return ring_.distance(owner_, a) < ring_.distance(owner_, b);
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // The owner itself can appear in sparse rings (its successor may wrap
  // to itself); it is not a useful delegation target.
  std::erase(out, owner_);
  return out;
}

}  // namespace cbps::chord
