// Unit tests for the overlay-layer utilities: traffic accounting, the
// shared m-cast partition, and the metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "cbps/common/rng.hpp"
#include "cbps/metrics/registry.hpp"
#include "cbps/overlay/mcast_partition.hpp"
#include "cbps/overlay/payload.hpp"

namespace cbps::overlay {
namespace {

TEST(TrafficStatsTest, PerClassAccounting) {
  TrafficStats stats;
  stats.record_hop(MessageClass::kSubscribe);
  stats.record_hop(MessageClass::kSubscribe);
  stats.record_hop(MessageClass::kPublish);
  stats.record_hop(MessageClass::kControl);
  stats.record_delivery(MessageClass::kPublish);

  EXPECT_EQ(stats.hops(MessageClass::kSubscribe), 2u);
  EXPECT_EQ(stats.hops(MessageClass::kPublish), 1u);
  EXPECT_EQ(stats.hops(MessageClass::kNotify), 0u);
  EXPECT_EQ(stats.total_hops(), 4u);
  EXPECT_EQ(stats.app_hops(), 3u);  // excludes control
  EXPECT_EQ(stats.deliveries(MessageClass::kPublish), 1u);
}

TEST(TrafficStatsTest, RouteSummariesAndReset) {
  TrafficStats stats;
  stats.record_route_complete(MessageClass::kNotify, 2);
  stats.record_route_complete(MessageClass::kNotify, 4);
  EXPECT_EQ(stats.route_hops(MessageClass::kNotify).count(), 2u);
  EXPECT_DOUBLE_EQ(stats.route_hops(MessageClass::kNotify).mean(), 3.0);
  stats.reset();
  EXPECT_EQ(stats.total_hops(), 0u);
  EXPECT_EQ(stats.route_hops(MessageClass::kNotify).count(), 0u);
}

TEST(MessageClassTest, Names) {
  EXPECT_EQ(to_string(MessageClass::kSubscribe), "subscribe");
  EXPECT_EQ(to_string(MessageClass::kCollect), "collect");
  EXPECT_EQ(to_string(MessageClass::kStateTransfer), "state_transfer");
}

// ---------------------------------------------------------------------------
// partition_mcast_targets
// ---------------------------------------------------------------------------

class McastPartitionTest : public ::testing::Test {
 protected:
  RingParams ring_{8};  // 256 keys
  Key self_ = 100;
  Key pred_ = 90;
  std::function<bool(Key)> covers_ = [this](Key k) {
    return ring_.in_open_closed(pred_, self_, k);
  };
};

TEST_F(McastPartitionTest, LocalKeysSeparated) {
  const auto part = partition_mcast_targets(
      ring_, self_, covers_, {95, 100, 150}, {120, 200});
  EXPECT_EQ(part.local, (std::vector<Key>{100, 95}));  // by ring distance
  EXPECT_EQ(part.delegated.size(), 2u);
  EXPECT_EQ(part.delegated[0], (std::vector<Key>{150}));
  EXPECT_TRUE(part.delegated[1].empty());
  EXPECT_TRUE(part.undeliverable.empty());
}

TEST_F(McastPartitionTest, SegmentsTravelToStrictlyPrecedingCandidate) {
  // Candidates at 120 and 200: keys in (100,120] -> 120; keys in
  // (120, 200] travel to 120 too?? No: (120, 200) -> 120 only if
  // strictly preceding; key 200 itself goes to 120's segment? distance
  // rule: key 200 has candidate 120 strictly preceding (dist 20 < 100),
  // and candidate 200 NOT strictly preceding (equal) -> goes to 120.
  const auto part = partition_mcast_targets(
      ring_, self_, covers_, {110, 130, 200, 210}, {120, 200});
  EXPECT_EQ(part.delegated[0], (std::vector<Key>{110, 130, 200}));
  EXPECT_EQ(part.delegated[1], (std::vector<Key>{210}));
}

TEST_F(McastPartitionTest, DuplicatesRemoved) {
  const auto part = partition_mcast_targets(ring_, self_, covers_,
                                            {130, 130, 130}, {120});
  EXPECT_EQ(part.delegated[0], (std::vector<Key>{130}));
}

TEST_F(McastPartitionTest, NoCandidatesMeansUndeliverable) {
  const auto part =
      partition_mcast_targets(ring_, self_, covers_, {95, 150}, {});
  EXPECT_EQ(part.local, (std::vector<Key>{95}));
  EXPECT_EQ(part.undeliverable, (std::vector<Key>{150}));
}

TEST_F(McastPartitionTest, WrappingTargets) {
  const auto part = partition_mcast_targets(
      ring_, self_, covers_, {250, 5, 95}, {180, 240});
  EXPECT_EQ(part.local, (std::vector<Key>{95}));
  // 250 and 5 are both beyond candidate 240 (strictly preceding both).
  EXPECT_TRUE(part.delegated[0].empty());
  EXPECT_EQ(part.delegated[1], (std::vector<Key>{250, 5}));
}

TEST_F(McastPartitionTest, EmptyTargetsYieldEmptyPartition) {
  const auto part =
      partition_mcast_targets(ring_, self_, covers_, {}, {120, 200});
  EXPECT_TRUE(part.local.empty());
  ASSERT_EQ(part.delegated.size(), 2u);
  EXPECT_TRUE(part.delegated[0].empty());
  EXPECT_TRUE(part.delegated[1].empty());
  EXPECT_TRUE(part.undeliverable.empty());
}

TEST_F(McastPartitionTest, KeyBeyondSoleCandidateFallsBackToFirst) {
  // Keys past the only candidate have no strictly-preceding delegate to
  // fall back on (the scan stops at index 1), so the `chosen = 0`
  // default must route them to the first candidate rather than lose
  // them — it is still the best forwarding step available.
  const auto part =
      partition_mcast_targets(ring_, self_, covers_, {250, 5}, {120});
  EXPECT_TRUE(part.local.empty());
  ASSERT_EQ(part.delegated.size(), 1u);
  EXPECT_EQ(part.delegated[0], (std::vector<Key>{250, 5}));
  EXPECT_TRUE(part.undeliverable.empty());
}

TEST_F(McastPartitionTest, DisjointUnionPreserved) {
  // Every input key appears in exactly one output bucket.
  std::vector<Key> targets;
  for (Key k = 0; k < 256; k += 3) targets.push_back(k);
  const std::vector<Key> candidates{110, 140, 180, 240, 40};
  // candidates must be sorted by distance from self:
  std::vector<Key> sorted = candidates;
  std::sort(sorted.begin(), sorted.end(), [&](Key a, Key b) {
    return ring_.distance(self_, a) < ring_.distance(self_, b);
  });
  const auto part =
      partition_mcast_targets(ring_, self_, covers_, targets, sorted);
  std::multiset<Key> seen(part.local.begin(), part.local.end());
  for (const auto& bucket : part.delegated) {
    seen.insert(bucket.begin(), bucket.end());
  }
  seen.insert(part.undeliverable.begin(), part.undeliverable.end());
  EXPECT_EQ(seen.size(), targets.size());
  for (Key k : targets) EXPECT_EQ(seen.count(k), 1u) << k;
}

// ---------------------------------------------------------------------------
// partition_mcast_runs vs the key-by-key partition it replaced
// ---------------------------------------------------------------------------

// The key-list partition as it was before m-cast carried runs: sort the
// targets by ring distance, dedup, then test every key against the
// covered predicate and the candidate list. Kept verbatim as the
// reference for the run partition.
McastPartition legacy_partition(RingParams ring, Key self,
                                const std::function<bool(Key)>& covers,
                                std::vector<Key> targets,
                                const std::vector<Key>& candidates) {
  McastPartition out;
  out.delegated.resize(candidates.size());
  std::sort(targets.begin(), targets.end(), [&](Key a, Key b) {
    return ring.distance(self, a) < ring.distance(self, b);
  });
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (Key k : targets) {
    if (covers(k)) {
      out.local.push_back(k);
      continue;
    }
    if (candidates.empty()) {
      out.undeliverable.push_back(k);
      continue;
    }
    std::size_t chosen = 0;
    if (!ring.in_open_closed(self, candidates.front(), k)) {
      const std::uint64_t dk = ring.distance(self, k);
      for (std::size_t j = candidates.size(); j-- > 1;) {
        if (ring.distance(self, candidates[j]) < dk) {
          chosen = j;
          break;
        }
      }
    }
    out.delegated[chosen].push_back(k);
  }
  return out;
}

std::vector<Key> keys_of(RingParams ring, const std::vector<KeyRange>& runs) {
  std::vector<Key> keys;
  expand_in_order(ring, runs, keys);
  return keys;
}

std::set<Key> key_set(RingParams ring, const std::vector<KeyRange>& runs) {
  const std::vector<Key> keys = keys_of(ring, runs);
  return {keys.begin(), keys.end()};
}

// Seeded random inputs over ring bits 4-13: runs that wrap, contain self,
// overlap or repeat, known and unknown predecessors, and candidate lists
// from empty to dense. The run partition must reproduce the key-by-key
// result: the same local keys in the same order, the same key set per
// candidate and the same undeliverable keys.
TEST(McastRunPartitionTest, MatchesKeyByKeyPartition) {
  Rng rng(20240613);
  std::size_t trials = 0;
  for (unsigned bits = 4; bits <= 13; ++bits) {
    const RingParams ring{bits};
    const auto key = [&] {
      return static_cast<Key>(rng.uniform_int(
          0, static_cast<std::int64_t>(ring.max_key())));
    };
    for (int trial = 0; trial < 300; ++trial, ++trials) {
      const Key self = key();
      // Predecessor: unknown, self (covers the whole ring) or random.
      std::optional<Key> pred;
      const int pred_kind = static_cast<int>(rng.uniform_int(0, 5));
      if (pred_kind == 1) pred = self;
      if (pred_kind >= 2) pred = key();

      // Candidates: distinct, never self, sorted by distance from self.
      std::vector<Key> candidates;
      const int n_cand = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < n_cand; ++i) {
        const Key c = key();
        if (c != self && std::find(candidates.begin(), candidates.end(),
                                   c) == candidates.end()) {
          candidates.push_back(c);
        }
      }
      std::sort(candidates.begin(), candidates.end(), [&](Key a, Key b) {
        return ring.distance(self, a) < ring.distance(self, b);
      });

      // Target runs: short and long, some through self, some wrapping
      // past 2^m - 1, some overlapping or repeated.
      std::vector<KeyRange> runs;
      const int n_runs = static_cast<int>(rng.uniform_int(0, 8));
      for (int i = 0; i < n_runs; ++i) {
        const std::uint64_t span = rng.bernoulli(0.3)
                                       ? ring.max_key()
                                       : std::min<std::uint64_t>(
                                             ring.max_key(), 40);
        const Key lo = rng.bernoulli(0.2) ? ring.sub(self, 3) : key();
        const auto len = static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(span)));
        runs.push_back({lo, ring.add(lo, len)});
        if (rng.bernoulli(0.1)) runs.push_back(runs.back());
      }
      if (rng.bernoulli(0.05)) runs.push_back({ring.add(self, 1), self});
      // Half the trials pass runs in ring order from some other node, as
      // a received McastMsg does.
      if (rng.bernoulli(0.5)) runs = order_from(ring, key(), runs);

      const std::vector<Key> keys = keys_of(ring, runs);
      const auto covers = [&](Key k) {
        return !pred || ring.in_open_closed(*pred, self, k);
      };
      const McastPartition want =
          legacy_partition(ring, self, covers, keys, candidates);
      const McastRunPartition got = partition_mcast_runs(
          ring, self, covered_arc(ring, self, pred), runs, candidates);

      SCOPED_TRACE(::testing::Message() << "bits " << bits << " trial "
                                        << trial << " self " << self);
      EXPECT_EQ(keys_of(ring, got.local), want.local);
      EXPECT_EQ(keys_of(ring, got.undeliverable), want.undeliverable);
      std::vector<std::set<Key>> got_sets(candidates.size());
      std::size_t prev = 0;
      for (std::size_t b = 0; b < got.branches.size(); ++b) {
        const auto& branch = got.branches[b];
        ASSERT_LT(branch.candidate, candidates.size());
        if (b > 0) {
          EXPECT_GT(branch.candidate, prev);
        }
        prev = branch.candidate;
        EXPECT_FALSE(branch.runs.empty());
        got_sets[branch.candidate] = key_set(ring, branch.runs);
      }
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        const std::set<Key> want_set(want.delegated[j].begin(),
                                     want.delegated[j].end());
        EXPECT_EQ(got_sets[j], want_set) << "candidate " << j;
      }
      // The key-list adapter agrees too, ordering included.
      const McastPartition adapted =
          partition_mcast_targets(ring, self, covers, keys, candidates);
      EXPECT_EQ(adapted.local, want.local);
      EXPECT_EQ(adapted.delegated, want.delegated);
      EXPECT_EQ(adapted.undeliverable, want.undeliverable);
    }
  }
  EXPECT_EQ(trials, 3000u);
}

TEST(McastRunPartitionTest, CutsRunsAtCandidateBoundaries) {
  const RingParams ring{8};
  // Self 100 covers (90, 100]; candidates 120 and 200. One run
  // [95, 230] splits into local [95, 100], (100, 200] for 120 and
  // (200, 230] for 200.
  const auto part = partition_mcast_runs(ring, 100,
                                         covered_arc(ring, 100, Key{90}),
                                         {{95, 230}}, {120, 200});
  EXPECT_EQ(part.local, (std::vector<KeyRange>{{100, 100}, {95, 99}}));
  ASSERT_EQ(part.branches.size(), 2u);
  EXPECT_EQ(part.branches[0].candidate, 0u);
  EXPECT_EQ(part.branches[0].runs, (std::vector<KeyRange>{{101, 200}}));
  EXPECT_EQ(part.branches[1].candidate, 1u);
  EXPECT_EQ(part.branches[1].runs, (std::vector<KeyRange>{{201, 230}}));
  EXPECT_TRUE(part.undeliverable.empty());
}

}  // namespace
}  // namespace cbps::overlay

namespace cbps::metrics {
namespace {

TEST(RegistryTest, CountersCreateOnDemand) {
  Registry reg;
  EXPECT_EQ(reg.counter_value("x"), 0u);
  reg.counter("x").inc();
  reg.counter("x").inc(5);
  EXPECT_EQ(reg.counter_value("x"), 6u);
  EXPECT_EQ(reg.counter_value("y"), 0u);  // does not create
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(RegistryTest, StatsAndPrint) {
  Registry reg;
  reg.counter("alpha").inc(3);
  reg.stat("lat").add(1.0);
  reg.stat("lat").add(3.0);
  std::ostringstream os;
  reg.print(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("mean=2"), std::string::npos);
}

TEST(RegistryTest, ResetAll) {
  Registry reg;
  reg.counter("a").inc(7);
  reg.stat("s").add(1.0);
  reg.reset_all();
  EXPECT_EQ(reg.counter_value("a"), 0u);
  // Entries are reset in place, never destroyed: names persist (so a
  // post-reset print still shows every metric) with zeroed contents.
  ASSERT_EQ(reg.stats().size(), 1u);
  EXPECT_EQ(reg.stats().at("s").count(), 0u);
}

TEST(RegistryTest, ResetAllPreservesHandedOutReferences) {
  // Regression: reset_all() used to clear() the underlying maps, which
  // destroyed the Counter/RunningStat objects long-lived callers hold
  // references to (ChordNetwork caches them per message class) — any
  // use after reset was a use-after-free. Entries must be zeroed in
  // place instead.
  Registry reg;
  Counter& hops = reg.counter("hops");
  RunningStat& delay = reg.stat("delay");
  hops.inc(5);
  delay.add(2.0);

  reg.reset_all();

  hops.inc(3);
  delay.add(7.0);
  EXPECT_EQ(reg.counter_value("hops"), 3u);
  ASSERT_EQ(reg.stats().count("delay"), 1u);
  EXPECT_EQ(reg.stats().at("delay").count(), 1u);
  EXPECT_DOUBLE_EQ(reg.stats().at("delay").mean(), 7.0);
  // And the handed-out references still alias the registry's entries.
  EXPECT_EQ(&reg.counter("hops"), &hops);
  EXPECT_EQ(&reg.stat("delay"), &delay);
}

}  // namespace
}  // namespace cbps::metrics
