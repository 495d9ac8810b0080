#include "cbps/overlay/mcast_partition.hpp"

#include <algorithm>

#include "cbps/common/assert.hpp"

namespace cbps::overlay {

namespace {

/// Append [a, b] (distances from `self`) to `out` as a key run, extending
/// the last run when the two touch and it lies at or past `first` (runs
/// before `first` belong to another branch).
void append(RingParams ring, Key self, std::vector<KeyRange>& out,
            std::uint64_t a, std::uint64_t b, std::size_t first = 0) {
  const KeyRange r{ring.add(self, a), ring.add(self, b)};
  if (out.size() > first && ring.add(out.back().hi, 1) == r.lo) {
    out.back().hi = r.hi;
  } else {
    out.push_back(r);
  }
}

/// Runs of ring-consecutive keys of `keys`, taken in list order.
std::vector<KeyRange> runs_in_order(RingParams ring,
                                    const std::vector<Key>& keys) {
  std::vector<KeyRange> runs;
  for (const Key k : keys) {
    if (!runs.empty() && ring.add(runs.back().hi, 1) == k) {
      runs.back().hi = k;
    } else {
      runs.push_back({k, k});
    }
  }
  return runs;
}

}  // namespace

void partition_mcast_runs(RingParams ring, Key self,
                          std::optional<KeyRange> covered,
                          std::span<const KeyRange> runs,
                          const std::vector<Key>& candidates,
                          McastRunPartition& out) {
  out.local.clear();
  out.branches.clear();
  out.runs.clear();
  out.undeliverable.clear();
  const std::uint64_t last = ring.max_key();

  // Everything below is in distance from self. The keys not covered form
  // one window [w_lo, w_hi]: (self, pred] when covering (pred, self],
  // the whole ring when covering nothing.
  std::uint64_t w_lo = 0;
  std::uint64_t w_hi = last;
  if (covered) {
    CBPS_ASSERT_MSG(covered->hi == self, "covered arc must end at self");
    w_lo = 1;
    if (covered->lo != self) w_hi = ring.distance(self, covered->lo) - 1;
  }

  // Candidate p takes distances up to that of candidate p + 1: the
  // farthest candidate strictly preceding a key, or the first one. A
  // first candidate equal to self owns the whole ring, as (self, self] is.
  const std::size_t n = candidates.size();
  const bool first_takes_all = n > 0 && candidates.front() == self;
  std::size_t p = 0;
  const auto bound = [&](std::size_t j) {
    return first_takes_all || j + 1 >= n
               ? last
               : ring.distance(self, candidates[j + 1]);
  };
  const auto delegate = [&](std::uint64_t a, std::uint64_t b) {
    if (n == 0) {
      append(ring, self, out.undeliverable, a, b);
      return;
    }
    for (;;) {
      while (bound(p) < a) ++p;
      const std::uint64_t e = std::min(b, bound(p));
      if (out.branches.empty() || out.branches.back().candidate != p) {
        out.branches.push_back({p, out.runs.size(), 0});
      }
      // The open branch's runs are the tail of out.runs.
      McastRunPartition::Branch& branch = out.branches.back();
      append(ring, self, out.runs, a, e, branch.first);
      branch.count = out.runs.size() - branch.first;
      if (e == b) return;
      a = e + 1;
    }
  };

  order_from(ring, self, runs, out.ordered);
  for (const KeyRange& r : out.ordered) {
    std::uint64_t a = ring.distance(self, r.lo);
    const std::uint64_t b = a + (r.size(ring) - 1);
    if (a < w_lo) {  // self itself, covered
      append(ring, self, out.local, a, a);
      if (a == b) continue;
      ++a;
    }
    if (w_lo <= w_hi && a <= w_hi) {
      const std::uint64_t e = std::min(b, w_hi);
      delegate(a, e);
      if (e == b) continue;
      a = e + 1;
    }
    append(ring, self, out.local, a, b);
  }
}

McastPartition partition_mcast_targets(
    RingParams ring, Key self, const std::function<bool(Key)>& covers,
    std::vector<Key> targets, const std::vector<Key>& candidates) {
  McastPartition out;
  out.delegated.resize(candidates.size());
  std::vector<Key> keys;
  expand_in_order(
      ring, order_from(ring, self, compress_keys(ring, std::move(targets))),
      keys);
  std::vector<Key> remote;
  for (const Key k : keys) (covers(k) ? out.local : remote).push_back(k);

  McastRunPartition part;
  partition_mcast_runs(ring, self, std::nullopt, runs_in_order(ring, remote),
                       candidates, part);
  for (const auto& branch : part.branches) {
    expand_in_order(ring, part.runs_of(branch),
                    out.delegated[branch.candidate]);
  }
  expand_in_order(ring, part.undeliverable, out.undeliverable);
  return out;
}

}  // namespace cbps::overlay
