// Load-observatory unit tests: the space-saving sketch's accuracy and
// determinism guarantees (the fold over per-node sketches depends on
// them) plus TimeSeries edge cases the sampler can hit on degenerate
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "cbps/metrics/timeseries.hpp"
#include "cbps/metrics/topk.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/sim/time.hpp"

using namespace cbps;

namespace {

// Zipf-ish deterministic stream: key r drawn with weight ~ 1/(r+1).
std::vector<std::uint64_t> skewed_stream(std::size_t n, std::uint64_t seed,
                                         std::size_t universe = 400) {
  std::vector<double> weights(universe);
  for (std::size_t r = 0; r < universe; ++r) {
    weights[r] = 1.0 / static_cast<double>(r + 1);
  }
  std::discrete_distribution<std::size_t> dist(weights.begin(),
                                               weights.end());
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Scatter ranks over ids so key order is unrelated to popularity.
    stream[i] = dist(rng) * 2654435761u % 100003u;
  }
  return stream;
}

std::map<std::uint64_t, std::uint64_t> exact_counts(
    const std::vector<std::uint64_t>& stream) {
  std::map<std::uint64_t, std::uint64_t> exact;
  for (const std::uint64_t k : stream) ++exact[k];
  return exact;
}

// The documented space-saving rule, written as plainly as possible: a
// key-sorted cell list, a linear search per offer and a full scan for
// every eviction victim (minimum count, then the largest key among the
// minima). merge() is the union-sum; nothing is evicted there.
struct NaiveTopK {
  explicit NaiveTopK(std::size_t cap) : capacity(cap == 0 ? 1 : cap) {}

  void offer(std::uint64_t key, std::uint64_t weight) {
    if (weight == 0) return;
    total += weight;
    for (metrics::TopK::Entry& e : cells) {
      if (e.key == key) {
        e.count += weight;
        return;
      }
    }
    if (cells.size() < capacity) {
      insert({key, weight, 0});
      return;
    }
    std::size_t victim = 0;
    for (std::size_t i = 1; i < cells.size(); ++i) {
      const auto& e = cells[i];
      const auto& v = cells[victim];
      if (e.count < v.count || (e.count == v.count && e.key > v.key)) {
        victim = i;
      }
    }
    const std::uint64_t floor = cells[victim].count;
    cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(victim));
    insert({key, floor + weight, floor});
  }

  void merge(const NaiveTopK& other) {
    total += other.total;
    for (const metrics::TopK::Entry& o : other.cells) {
      bool found = false;
      for (metrics::TopK::Entry& e : cells) {
        if (e.key == o.key) {
          e.count += o.count;
          e.error += o.error;
          found = true;
        }
      }
      if (!found) insert(o);
    }
  }

  void reset() {
    total = 0;
    cells.clear();
  }

  void insert(const metrics::TopK::Entry& e) {
    cells.insert(std::upper_bound(cells.begin(), cells.end(), e,
                                  [](const auto& a, const auto& b) {
                                    return a.key < b.key;
                                  }),
                 e);
  }

  /// Every cell, in TopK::top()'s order.
  std::vector<metrics::TopK::Entry> top() const {
    std::vector<metrics::TopK::Entry> out = cells;
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.count != b.count ? a.count > b.count : a.key < b.key;
    });
    return out;
  }

  std::size_t capacity;
  std::uint64_t total = 0;
  std::vector<metrics::TopK::Entry> cells;  // sorted by key
};

}  // namespace

// ---------------------------------------------------------------------------
// TopK — space-saving guarantees
// ---------------------------------------------------------------------------

TEST(TopKTest, ExactWhenUnderCapacity) {
  metrics::TopK sketch(64);
  sketch.offer(7, 3);
  sketch.offer(2);
  sketch.offer(7, 2);
  EXPECT_EQ(sketch.total(), 6u);
  EXPECT_EQ(sketch.size(), 2u);
  EXPECT_EQ(sketch.find(7).count, 5u);
  EXPECT_EQ(sketch.find(7).error, 0u);
  EXPECT_EQ(sketch.find(2).count, 1u);
  EXPECT_EQ(sketch.find(99).count, 0u);

  const auto top = sketch.top(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 7u);
  EXPECT_EQ(top[1].key, 2u);
}

TEST(TopKTest, ZeroWeightOfferIsIgnored) {
  metrics::TopK sketch(2);
  sketch.offer(1, 0);
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.total(), 0u);
}

TEST(TopKTest, ErrorBoundAgainstExactOracle) {
  const auto stream = skewed_stream(20000, 42);
  const auto exact = exact_counts(stream);

  const std::size_t cap = 32;
  metrics::TopK sketch(cap);
  for (const std::uint64_t k : stream) sketch.offer(k);

  ASSERT_EQ(sketch.total(), stream.size());
  ASSERT_LE(sketch.size(), cap);
  const std::uint64_t bound = stream.size() / cap;  // error <= N/K
  for (const auto& e : sketch.top(cap)) {
    const auto it = exact.find(e.key);
    const std::uint64_t truth = it == exact.end() ? 0 : it->second;
    EXPECT_LE(truth, e.count) << "key " << e.key;
    EXPECT_LE(e.count - e.error, truth) << "key " << e.key;
    EXPECT_LE(e.error, bound) << "key " << e.key;
  }
  // Every key heavier than N/K must be tracked.
  for (const auto& [key, truth] : exact) {
    if (truth > bound) {
      EXPECT_GT(sketch.find(key).count, 0u)
          << "heavy key " << key << " (" << truth << " > " << bound
          << ") missing";
    }
  }
}

TEST(TopKTest, EvictionTieBreakIsLargestKey) {
  metrics::TopK sketch(3);
  // Three residents, all count 1 — the minima set is everyone.
  sketch.offer(10);
  sketch.offer(30);
  sketch.offer(20);
  // The newcomer evicts key 30 (largest id among the min-count entries)
  // and inherits its count as error.
  sketch.offer(5);
  EXPECT_EQ(sketch.find(30).count, 0u);
  EXPECT_EQ(sketch.find(10).count, 1u);
  EXPECT_EQ(sketch.find(20).count, 1u);
  EXPECT_EQ(sketch.find(5).count, 2u);  // floor 1 + weight 1
  EXPECT_EQ(sketch.find(5).error, 1u);

  // Minimum count beats key order: bump 10 and 20, then a newcomer must
  // take the (sole) min-count slot even though its key id is smaller.
  sketch.offer(10, 5);
  sketch.offer(20, 5);
  sketch.offer(1);
  EXPECT_EQ(sketch.find(5).count, 0u);
  EXPECT_EQ(sketch.find(1).count, 3u);  // floor 2 + 1
  EXPECT_EQ(sketch.find(1).error, 2u);
}

// offer_each is a batched offer(k) per key: random batches shaped like a
// rendezvous's covered keys (an ascending stretch with repeats, sometimes
// a descending step where the keys wrap past 0 and a second stretch)
// drive both paths on small key universes, so evictions at capacity are
// frequent. Cells, totals and top() must agree after every batch.
TEST(TopKTest, OfferEachEqualsSequentialOffers) {
  std::mt19937_64 rng(20);
  for (const std::size_t capacity : {1u, 3u, 8u, 32u}) {
    metrics::TopK batched(capacity);
    metrics::TopK sequential(capacity);
    for (int round = 0; round < 400; ++round) {
      const std::uint64_t universe = 4 * capacity + 3;
      const auto stretch = [&](std::size_t n) {
        std::vector<std::uint64_t> keys(n);
        for (auto& k : keys) k = rng() % universe;
        std::sort(keys.begin(), keys.end());
        return keys;
      };
      std::vector<std::uint64_t> keys = stretch(rng() % 12);
      if (!keys.empty() && rng() % 3 == 0) {
        // Wrap: a second stretch that starts below where the first ended.
        const auto tail = stretch(1 + rng() % 6);
        if (tail.front() < keys.back()) {
          keys.insert(keys.end(), tail.begin(), tail.end());
        }
      }
      if (rng() % 4 == 0) {  // weighted traffic between batches
        const std::uint64_t k = rng() % universe;
        const std::uint64_t w = 1 + rng() % 5;
        batched.offer(k, w);
        sequential.offer(k, w);
      }
      batched.offer_each(keys);
      for (const std::uint64_t k : keys) sequential.offer(k);

      ASSERT_EQ(batched.total(), sequential.total()) << "round " << round;
      ASSERT_EQ(batched.size(), sequential.size()) << "round " << round;
      ASSERT_EQ(batched.top(capacity), sequential.top(capacity))
          << "capacity " << capacity << " round " << round;
      for (std::uint64_t k = 0; k < universe; ++k) {
        ASSERT_EQ(batched.find(k), sequential.find(k)) << "key " << k;
      }
      ASSERT_EQ(batched.top(2), sequential.top(2));
    }
    EXPECT_EQ(batched.size(), capacity);  // the universe overflows it
  }
}

TEST(TopKTest, TopOrdersByCountThenKey) {
  metrics::TopK sketch(8);
  sketch.offer(4, 2);
  sketch.offer(9, 5);
  sketch.offer(6, 2);
  const auto top = sketch.top(8);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 9u);
  EXPECT_EQ(top[1].key, 4u);  // count tie with 6 -> smaller key first
  EXPECT_EQ(top[2].key, 6u);
}

// The fold over sketches must not depend on merge order: union-sum with
// no eviction is associative and commutative.
TEST(TopKTest, MergeIsPermutationInvariant) {
  const auto stream = skewed_stream(12000, 7);
  const std::size_t shards = 8;
  std::vector<metrics::TopK> per_shard(shards, metrics::TopK(16));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    per_shard[i % shards].offer(stream[i]);
  }

  const auto fold = [&](const std::vector<std::size_t>& order) {
    metrics::TopK acc(16);
    for (const std::size_t s : order) acc.merge(per_shard[s]);
    return acc;
  };

  std::vector<std::size_t> order(shards);
  for (std::size_t s = 0; s < shards; ++s) order[s] = s;
  const metrics::TopK ring_order = fold(order);

  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(order.begin(), order.end(), rng);
    const metrics::TopK permuted = fold(order);
    EXPECT_EQ(permuted.total(), ring_order.total());
    EXPECT_EQ(permuted.size(), ring_order.size());
    EXPECT_EQ(permuted.top(permuted.size()), ring_order.top(ring_order.size()))
        << "fold order changed the merged sketch (trial " << trial << ")";
  }

  // Associativity: ((a+b)+c) == (a+(b+c)) on the first three shards.
  metrics::TopK left(16), bc(16), right(16);
  left.merge(per_shard[0]);
  left.merge(per_shard[1]);
  left.merge(per_shard[2]);
  bc.merge(per_shard[1]);
  bc.merge(per_shard[2]);
  right.merge(per_shard[0]);
  right.merge(bc);
  EXPECT_EQ(left.top(left.size()), right.top(right.size()));
  EXPECT_EQ(left.total(), right.total());
}

// The union-sum keeps the one-sided guarantee count - error <= truth
// across shards that all see the same key universe: each shard's tracked
// count obeys it, untracked shards contribute 0 <= their truth, and both
// sides add. (The upper bound truth <= count needs key-disjoint shard
// streams — exactly what the per-node rendezvous sketches are; the
// system-level LoadObservatoryTest asserts the full bracket there.)
TEST(TopKTest, MergedSketchKeepsErrorBracket) {
  const auto stream = skewed_stream(12000, 11);
  const auto exact = exact_counts(stream);
  const std::size_t shards = 4;
  std::vector<metrics::TopK> per_shard(shards, metrics::TopK(24));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    per_shard[i % shards].offer(stream[i]);
  }
  metrics::TopK merged(24);
  for (const metrics::TopK& s : per_shard) merged.merge(s);

  EXPECT_EQ(merged.total(), stream.size());
  for (const auto& e : merged.top(merged.size())) {
    const auto it = exact.find(e.key);
    const std::uint64_t truth = it == exact.end() ? 0 : it->second;
    EXPECT_LE(e.count - e.error, truth) << "key " << e.key;
  }
}

// PubSubSystem::key_load() sums every node's sketches at once. On
// generated per-node sketches (overlapping and disjoint key sets, some
// empty, evictions included) the sum must equal the sequential fold it
// replaced — an accumulator merged with one node after another — and a
// plain map union of the cells: the same top(k), find, counts, errors
// and totals.
TEST(TopKTest, SumEqualsSequentialFold) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t capacity = 1 + rng() % 24;
    const std::size_t nodes = rng() % 40;
    std::vector<metrics::TopK> per_node(nodes, metrics::TopK(capacity));
    for (std::size_t n = 0; n < nodes; ++n) {
      // Half the nodes draw from a shared universe, half from their own.
      const std::uint64_t base = rng() % 2 == 0 ? 0 : 1000 * (n + 1);
      const std::size_t offers = rng() % 200;
      for (std::size_t i = 0; i < offers; ++i) {
        per_node[n].offer(base + rng() % 60, 1 + rng() % 3);
      }
    }

    metrics::TopK fold(capacity);
    std::map<std::uint64_t, metrics::TopK::Entry> want;
    std::uint64_t want_total = 0;
    std::vector<const metrics::TopK*> parts;
    for (const metrics::TopK& node : per_node) {
      fold.merge(node);
      parts.push_back(&node);
      want_total += node.total();
      for (const auto& e : node.top(node.size())) {
        metrics::TopK::Entry& w = want[e.key];
        w.key = e.key;
        w.count += e.count;
        w.error += e.error;
      }
    }
    const metrics::TopK sum = metrics::TopK::sum(capacity, parts);

    EXPECT_EQ(sum.total(), want_total);
    EXPECT_EQ(fold.total(), want_total);
    EXPECT_EQ(sum.size(), want.size());
    EXPECT_EQ(fold.size(), want.size());
    EXPECT_EQ(sum.capacity(), capacity);
    for (const std::size_t k : {std::size_t{1}, capacity, want.size()}) {
      EXPECT_EQ(sum.top(k), fold.top(k)) << "trial " << trial << " k " << k;
    }
    for (const auto& [key, w] : want) {
      EXPECT_EQ(sum.find(key), w) << "trial " << trial;
      EXPECT_EQ(fold.find(key), w) << "trial " << trial;
    }
    EXPECT_EQ(sum.find(999'999).count, 0u);
  }
}

// KeyLoad::sum sums each of its four sketches independently.
TEST(TopKTest, KeyLoadSumSumsEverySketch) {
  std::vector<pubsub::KeyLoad> loads(5, pubsub::KeyLoad(4));
  for (std::size_t n = 0; n < loads.size(); ++n) {
    for (std::uint64_t k = 0; k < 9; ++k) {
      loads[n].subs_stored.offer(k + n, 1);
      loads[n].match_calls.offer(k * n, 2);
      loads[n].match_units.offer(k % 3, n);
      loads[n].notify_fanout.offer(100 - k, 1 + n);
    }
  }
  std::vector<const pubsub::KeyLoad*> parts;
  for (const pubsub::KeyLoad& l : loads) parts.push_back(&l);
  const pubsub::KeyLoad sum = pubsub::KeyLoad::sum(4, parts);
  for (metrics::TopK pubsub::KeyLoad::*member :
       {&pubsub::KeyLoad::subs_stored, &pubsub::KeyLoad::match_calls,
        &pubsub::KeyLoad::match_units, &pubsub::KeyLoad::notify_fanout}) {
    metrics::TopK fold(4);
    for (const pubsub::KeyLoad& l : loads) fold.merge(l.*member);
    EXPECT_EQ((sum.*member).top(fold.size()), fold.top(fold.size()));
    EXPECT_EQ((sum.*member).total(), fold.total());
  }
  std::uint64_t total = 0;
  for (const pubsub::KeyLoad& l : loads) total += l.total();
  EXPECT_EQ(sum.total(), total);
}

// TopK against the naive reference above on 10^4 generated streams:
// capacities 1-70 plus 2^20, over key universes small enough that most
// offers of a new key evict. Each stream interleaves weighted offers
// (weights 0-3), offer_each batches shaped like a rendezvous's covered
// keys (distinct ascending keys that wrap past the top once), merges of
// a second sketch (which leave the sketch over capacity, so later
// evictions run on an oversized cell list), copies and moves of the
// sketch, and fresh sketches assigned over it. Every cell's key,
// count and error and the total must agree after every operation.
TEST(TopKTest, MatchesNaiveReferenceOnGeneratedStreams) {
  constexpr int kStreams = 10'000;
  constexpr int kOpsPerStream = 40;
  for (int stream = 0; stream < kStreams; ++stream) {
    std::mt19937_64 rng(0x70b5eed + static_cast<std::uint64_t>(stream));
    const std::size_t capacity =
        stream % 71 == 70 ? std::size_t{1} << 20
                          : static_cast<std::size_t>(stream % 71) + 1;
    const std::uint64_t universe =
        std::min<std::uint64_t>(2 * capacity + 5, 150);
    metrics::TopK sketch(capacity);
    NaiveTopK ref(capacity);
    for (int op = 0; op < kOpsPerStream; ++op) {
      const std::uint64_t pick = rng() % 100;
      if (pick < 55) {
        const std::uint64_t key = rng() % universe;
        const std::uint64_t weight = rng() % 4;
        sketch.offer(key, weight);
        ref.offer(key, weight);
      } else if (pick < 85) {
        // Distinct sorted keys, rotated so they ascend from a random
        // point, pass the top of the universe and ascend again from 0.
        std::vector<std::uint64_t> keys;
        for (std::uint64_t k = 0; k < universe; ++k) {
          if (rng() % 3 == 0) keys.push_back(k);
        }
        if (!keys.empty()) {
          const auto mid = static_cast<std::ptrdiff_t>(rng() % keys.size());
          std::rotate(keys.begin(), keys.begin() + mid, keys.end());
        }
        sketch.offer_each(keys);
        for (const std::uint64_t k : keys) ref.offer(k, 1);
      } else if (pick < 97) {
        metrics::TopK other(capacity);
        NaiveTopK other_ref(capacity);
        for (std::uint64_t n = rng() % universe; n-- > 0;) {
          const std::uint64_t key = rng() % universe;
          const std::uint64_t weight = rng() % 4;
          other.offer(key, weight);
          other_ref.offer(key, weight);
        }
        sketch.merge(other);
        ref.merge(other_ref);
      } else if (pick < 98) {
        // Copies and moves carry the floor cursor along with the cells.
        metrics::TopK moved(std::move(sketch));
        metrics::TopK copy(moved);
        if (rng() % 2 == 0) {
          sketch = std::move(moved);
        } else {
          sketch = copy;
        }
      } else {
        sketch = metrics::TopK(capacity);
        ref.reset();
      }
      ASSERT_EQ(sketch.total(), ref.total)
          << "stream " << stream << " op " << op;
      ASSERT_EQ(sketch.size(), ref.cells.size())
          << "stream " << stream << " op " << op;
      ASSERT_EQ(sketch.top(sketch.size()), ref.top())
          << "stream " << stream << " op " << op << " capacity " << capacity;
    }
  }
}

// ---------------------------------------------------------------------------
// TimeSeries — sampler edge cases
// ---------------------------------------------------------------------------

// A sampler period longer than the whole run leaves exactly the baseline
// row from start_sampler(); export must still be well-formed.
TEST(TimeSeriesEdgeTest, PeriodLongerThanRunYieldsBaselineRowOnly) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 16;
  cfg.chord.ring = RingParams{10};
  cfg.seed = 3;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(2, 1000));
  system.start_sampler(sim::sec(1'000'000));
  // The periodic timer keeps the queue alive; advance a bounded window
  // (the harness's idiom), then disarm before draining.
  system.run_for(sim::sec(100));
  system.stop_sampler();
  system.quiesce();

  const metrics::TimeSeries& ts = system.timeseries();
  ASSERT_EQ(ts.size(), 1u);  // the period never elapsed: baseline only
  // The baseline row is sampled at t=0 before any workload: no load, no
  // deliveries, every node alive, imbalance at the balanced fixpoint.
  EXPECT_EQ(ts.times_us().front(), 0u);
  ASSERT_EQ(ts.row(0).size(), ts.columns().size());
  const auto col = [&](const std::string& name) {
    for (std::size_t i = 0; i < ts.columns().size(); ++i) {
      if (ts.columns()[i] == name) return ts.row(0)[i];
    }
    ADD_FAILURE() << "missing column " << name;
    return -1.0;
  };
  EXPECT_EQ(col("owned_subs_max"), 0.0);
  EXPECT_EQ(col("notifications_delivered"), 0.0);
  EXPECT_EQ(col("alive_nodes"), 16.0);
  EXPECT_EQ(col("load_max_over_mean"), 0.0);
  EXPECT_EQ(col("load_gini"), 0.0);
}

// A zero-event run (sampler armed, nothing ever published) still
// produces a consistent export: rows match the schema arity and the
// imbalance columns stay finite.
TEST(TimeSeriesEdgeTest, ZeroEventRunExportsConsistentRows) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 8;
  cfg.chord.ring = RingParams{10};
  cfg.seed = 5;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(2, 1000));
  system.start_sampler(sim::sec(1));
  system.stop_sampler();

  const metrics::TimeSeries& ts = system.timeseries();
  ASSERT_EQ(ts.size(), 1u);  // baseline only: the timer was cancelled
  ASSERT_EQ(ts.row(0).size(), ts.columns().size());
  std::ostringstream json;
  ts.write_json(json);
  EXPECT_NE(json.str().find("\"rows\""), std::string::npos);

  // With zero load everywhere the imbalance profile must be the
  // "balanced" fixpoint, not NaN.
  const pubsub::PubSubSystem::LoadImbalance imb = system.load_imbalance();
  EXPECT_EQ(imb.max_load, 0u);
  EXPECT_EQ(imb.mean_load, 0.0);
  EXPECT_EQ(imb.gini, 0.0);
}
