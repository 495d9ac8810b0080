#include "cbps/common/key_range.hpp"

#include <algorithm>

namespace cbps {

namespace {

/// A run in distance space from some origin: [a, b], a <= b.
struct Span {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Merge a run ending at 2^m - 1 into one starting at 0, so a run list
/// sorted by lo becomes the wrapping-first form compress_keys documents.
void merge_wrap(RingParams ring, std::vector<KeyRange>& runs) {
  if (runs.size() >= 2 && runs.front().lo == 0 &&
      runs.back().hi == ring.max_key()) {
    runs.front().lo = runs.back().lo;
    runs.pop_back();
  }
}

}  // namespace

std::uint64_t key_count(RingParams ring, const std::vector<KeyRange>& runs) {
  std::uint64_t n = 0;
  for (const KeyRange& r : runs) n += r.size(ring);
  return n;
}

std::vector<KeyRange> compress_keys(RingParams ring, std::vector<Key> keys) {
  if (!std::is_sorted(keys.begin(), keys.end())) {
    std::sort(keys.begin(), keys.end());
  }
  std::vector<KeyRange> runs;
  for (const Key k : keys) {
    if (!runs.empty() && runs.back().hi + 1 >= k) {
      runs.back().hi = k;  // consecutive, or a duplicate of hi
    } else {
      runs.push_back({k, k});
    }
  }
  merge_wrap(ring, runs);
  return runs;
}

std::vector<KeyRange> normalize_runs(RingParams ring,
                                     const std::vector<KeyRange>& runs) {
  std::vector<KeyRange> out = order_from(ring, 0, runs);
  merge_wrap(ring, out);
  return out;
}

std::vector<Key> expand_ascending(RingParams ring,
                                  const std::vector<KeyRange>& runs) {
  std::vector<Key> keys;
  expand_in_order(ring, order_from(ring, 0, runs), keys);
  return keys;
}

void expand_in_order(RingParams ring, const std::vector<KeyRange>& runs,
                     std::vector<Key>& out) {
  out.reserve(out.size() + key_count(ring, runs));
  for (const KeyRange& r : runs) {
    Key k = r.lo;
    for (std::uint64_t i = r.size(ring); i > 0; --i) {
      out.push_back(k);
      k = ring.add(k, 1);
    }
  }
}

std::vector<KeyRange> order_from(RingParams ring, Key origin,
                                 const std::vector<KeyRange>& runs) {
  // Distance space: d(k) = distance(origin, k). A run that passes
  // `origin` after its lo splits into its tail [a, 2^m - 1] and its head
  // [0, ...], kept adjacent so a ring-ordered list stays cyclically
  // sorted.
  const std::uint64_t last = ring.max_key();
  std::vector<Span> spans;
  spans.reserve(runs.size() + 1);
  for (const KeyRange& r : runs) {
    const std::uint64_t a = ring.distance(origin, r.lo);
    const std::uint64_t n = r.size(ring);
    if (n - 1 <= last - a) {
      spans.push_back({a, a + n - 1});
    } else {
      spans.push_back({a, last});
      spans.push_back({0, a + n - 1 - ring.size()});
    }
  }
  if (spans.empty()) return {};

  // A list in ring order from any origin is a rotation of the sorted one:
  // check that cyclically from its nearest span, then rotate.
  const std::size_t m = spans.size();
  std::size_t first = 0;
  for (std::size_t i = 1; i < m; ++i) {
    if (spans[i].a < spans[first].a) first = i;
  }
  bool rotated = true;
  for (std::size_t t = 0; t + 1 < m; ++t) {
    if (spans[(first + t) % m].b >= spans[(first + t + 1) % m].a) {
      rotated = false;
      break;
    }
  }
  if (rotated) {
    std::rotate(spans.begin(),
                spans.begin() + static_cast<std::ptrdiff_t>(first),
                spans.end());
  } else {
    std::sort(spans.begin(), spans.end(),
              [](const Span& x, const Span& y) { return x.a < y.a; });
  }

  std::vector<KeyRange> out;
  out.reserve(m);
  std::uint64_t back_b = 0;
  for (const Span& s : spans) {
    if (!out.empty() && s.a <= back_b + 1) {
      if (s.b > back_b) {
        back_b = s.b;
        out.back().hi = ring.add(origin, back_b);
      }
      continue;
    }
    back_b = s.b;
    out.push_back({ring.add(origin, s.a), ring.add(origin, s.b)});
  }
  return out;
}

}  // namespace cbps
