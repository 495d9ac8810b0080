// Tests for the Chord substrate: finger tables, location cache, unicast
// routing vs a ground-truth oracle, the m-cast primitive of paper §4.3.1
// (Figure 4), the conservative chain baseline, and the join/leave/crash
// maintenance protocols.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/node.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::chord {
namespace {

using overlay::MessageClass;
using overlay::PayloadPtr;

// ---------------------------------------------------------------------------
// Test scaffolding
// ---------------------------------------------------------------------------

struct TestPayload final : overlay::Payload {
  explicit TestPayload(int t, MessageClass c = MessageClass::kPublish)
      : tag(t), cls(c) {}
  MessageClass message_class() const override { return cls; }
  int tag;
  MessageClass cls;
};

struct StatePayload final : overlay::Payload {
  explicit StatePayload(std::vector<int> i) : items(std::move(i)) {}
  MessageClass message_class() const override {
    return MessageClass::kStateTransfer;
  }
  std::vector<int> items;
};

struct UnicastDelivery {
  Key node;
  Key key;
  int tag;
};

struct McastDelivery {
  Key node;
  std::vector<Key> keys;
  int tag;
};

struct Recorder {
  std::vector<UnicastDelivery> unicast;
  std::vector<McastDelivery> mcast;
};

// Minimal app: records deliveries; holds a bag of ints as "state" keyed
// by nothing (state-transfer plumbing is exercised, content checked by
// the pub/sub tests).
class TestApp final : public overlay::OverlayApp {
 public:
  TestApp(Key node, Recorder& rec) : node_(node), rec_(rec) {}

  void on_deliver(Key key, const PayloadPtr& payload) override {
    if (auto* st = dynamic_cast<const StatePayload*>(payload.get())) {
      state.insert(state.end(), st->items.begin(), st->items.end());
      return;
    }
    const auto* p = dynamic_cast<const TestPayload*>(payload.get());
    ASSERT_NE(p, nullptr);
    rec_.unicast.push_back({node_, key, p->tag});
  }

  void on_deliver_mcast(std::span<const Key> covered,
                        const PayloadPtr& payload) override {
    const auto* p = dynamic_cast<const TestPayload*>(payload.get());
    ASSERT_NE(p, nullptr);
    rec_.mcast.push_back(
        {node_, {covered.begin(), covered.end()}, p->tag});
  }

  PayloadPtr export_state(Key, Key, bool remove) override {
    std::vector<int> out = state;
    if (remove) state.clear();
    return std::make_shared<StatePayload>(std::move(out));
  }

  void import_state(const PayloadPtr& payload) override {
    const auto* st = dynamic_cast<const StatePayload*>(payload.get());
    ASSERT_NE(st, nullptr);
    state.insert(state.end(), st->items.begin(), st->items.end());
  }

  std::vector<int> state;

 private:
  Key node_;
  Recorder& rec_;
};

class Harness {
 public:
  explicit Harness(std::size_t n, ChordConfig cfg = {},
                   std::uint64_t seed = 1) {
    net = std::make_unique<ChordNetwork>(sim, cfg, seed);
    for (std::size_t i = 0; i < n; ++i) {
      net->add_node(std::string("n").append(std::to_string(i)));
    }
    net->build_static_ring();
    attach_apps();
  }

  void attach_apps() {
    for (Key id : net->alive_ids()) {
      if (apps.contains(id)) continue;
      apps[id] = std::make_unique<TestApp>(id, recorder);
      net->node(id)->set_app(apps[id].get());
    }
  }

  ChordNode& node_covering(Key key) {
    return *net->node(net->oracle_successor(key));
  }

  /// Checks the exact static-topology invariants against the oracle.
  void expect_converged_ring() {
    const std::vector<Key> ids = net->alive_ids();
    const std::size_t n = ids.size();
    for (std::size_t i = 0; i < n; ++i) {
      const ChordNode& node = *net->node(ids[i]);
      if (n == 1) continue;
      ASSERT_TRUE(node.predecessor().has_value()) << "node " << ids[i];
      EXPECT_EQ(*node.predecessor(), ids[(i + n - 1) % n])
          << "pred of " << ids[i];
      ASSERT_FALSE(node.successor_list().empty());
      EXPECT_EQ(node.successor_list().front(), ids[(i + 1) % n])
          << "succ of " << ids[i];
    }
  }

  sim::Simulator sim;
  std::unique_ptr<ChordNetwork> net;
  Recorder recorder;
  std::map<Key, std::unique_ptr<TestApp>> apps;
};

// ---------------------------------------------------------------------------
// FingerTable / LocationCache units
// ---------------------------------------------------------------------------

// A ring whose every id is taken cannot take one more node: add_node
// asserts instead of re-salting the name forever.
TEST(ChordRingFullDeathTest, AddNodeToAFullRingAsserts) {
  sim::Simulator sim;
  ChordConfig cfg;
  cfg.ring = RingParams{2};
  ChordNetwork net(sim, cfg, 1);
  for (int i = 0; i < 4; ++i) {
    net.add_node(std::string("n").append(std::to_string(i)));
  }
  EXPECT_DEATH(net.add_node("n4"), "ring full");
}

TEST(FingerTableTest, StartsFollowPowersOfTwo) {
  const RingParams ring{6};
  FingerTable ft(ring, 10);
  EXPECT_EQ(ft.size(), 6u);
  EXPECT_EQ(ft.start(0), 11u);
  EXPECT_EQ(ft.start(1), 12u);
  EXPECT_EQ(ft.start(5), (10u + 32u) % 64u);
}

TEST(FingerTableTest, DistinctNodesSortedByDistanceAndDeduped) {
  const RingParams ring{6};
  FingerTable ft(ring, 60);
  ft.set(0, 62);
  ft.set(1, 62);
  ft.set(2, 3);
  ft.set(3, 20);
  ft.set(4, 60);  // self: must be dropped
  const auto nodes = ft.distinct_nodes();
  EXPECT_EQ(nodes, (std::vector<Key>{62, 3, 20}));
}

TEST(FingerTableTest, EvictRemovesAllEntries) {
  const RingParams ring{6};
  FingerTable ft(ring, 0);
  ft.set(0, 5);
  ft.set(1, 5);
  ft.set(2, 9);
  ft.evict(5);
  EXPECT_FALSE(ft.get(0).has_value());
  EXPECT_FALSE(ft.get(1).has_value());
  EXPECT_EQ(ft.get(2), std::optional<Key>(9));
}

TEST(LocationCacheTest, FindOwnerUsesCoveredRange) {
  const RingParams ring{8};
  LocationCache cache(ring, 8);
  cache.insert(/*node=*/100, /*range_lo=*/90);  // covers (90, 100]
  EXPECT_EQ(cache.find_owner(95), std::optional<Key>(100));
  EXPECT_EQ(cache.find_owner(100), std::optional<Key>(100));
  EXPECT_FALSE(cache.find_owner(90).has_value());
  EXPECT_FALSE(cache.find_owner(101).has_value());
}

TEST(LocationCacheTest, LruEviction) {
  const RingParams ring{8};
  LocationCache cache(ring, 2);
  cache.insert(10, 5);
  cache.insert(20, 15);
  cache.insert(30, 25);  // evicts 10
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.find_owner(7).has_value());
  EXPECT_TRUE(cache.find_owner(18).has_value());
  EXPECT_TRUE(cache.find_owner(28).has_value());
}

TEST(LocationCacheTest, HitRefreshesLruPosition) {
  const RingParams ring{8};
  LocationCache cache(ring, 2);
  cache.insert(10, 5);
  cache.insert(20, 15);
  EXPECT_TRUE(cache.find_owner(8).has_value());  // touch 10
  cache.insert(30, 25);                          // evicts 20, not 10
  EXPECT_TRUE(cache.find_owner(8).has_value());
  EXPECT_FALSE(cache.find_owner(18).has_value());
}

TEST(LocationCacheTest, EvictAndZeroCapacity) {
  const RingParams ring{8};
  LocationCache cache(ring, 4);
  cache.insert(10, 5);
  cache.evict(10);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find_owner(8).has_value());

  LocationCache disabled(ring, 0);
  disabled.insert(10, 5);
  EXPECT_EQ(disabled.size(), 0u);
}

// ---------------------------------------------------------------------------
// Static topology
// ---------------------------------------------------------------------------

TEST(ChordStaticTest, RingInvariantsHold) {
  Harness h(32);
  h.expect_converged_ring();
}

TEST(ChordStaticTest, FingersMatchOracle) {
  Harness h(32);
  for (Key id : h.net->alive_ids()) {
    const ChordNode& node = *h.net->node(id);
    const FingerTable& ft = node.finger_table();
    for (std::size_t i = 0; i < ft.size(); ++i) {
      ASSERT_TRUE(ft.get(i).has_value());
      EXPECT_EQ(*ft.get(i), h.net->oracle_successor(ft.start(i)))
          << "node " << id << " finger " << i;
    }
  }
}

TEST(ChordStaticTest, OracleSuccessorWraps) {
  Harness h(4);
  const auto ids = h.net->alive_ids();
  // A key beyond the last node wraps to the first.
  EXPECT_EQ(h.net->oracle_successor(ids.back() + 1), ids.front());
  EXPECT_EQ(h.net->oracle_successor(ids.front()), ids.front());
}

TEST(ChordStaticTest, SingleNodeCoversEverything) {
  Harness h(1);
  ChordNode& only = h.net->alive_node(0);
  for (Key k = 0; k < h.net->ring().size(); k += 997) {
    EXPECT_TRUE(only.covers(k));
  }
}

// ---------------------------------------------------------------------------
// Unicast routing
// ---------------------------------------------------------------------------

TEST(ChordRoutingTest, DeliversAtOracleSuccessor) {
  Harness h(64);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    ChordNode& src = h.net->alive_node(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->alive_count()) - 1)));
    src.send(key, std::make_shared<TestPayload>(i));
  }
  h.sim.run();
  ASSERT_EQ(h.recorder.unicast.size(), 200u);
  for (const UnicastDelivery& d : h.recorder.unicast) {
    EXPECT_EQ(d.node, h.net->oracle_successor(d.key))
        << "key " << d.key << " delivered at wrong node";
  }
}

TEST(ChordRoutingTest, HopCountBoundedByLogN) {
  ChordConfig cfg;
  cfg.location_cache_size = 0;  // pure finger routing
  cfg.owner_feedback = false;
  Harness h(128, cfg);
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    h.net->alive_node(0).send(key, std::make_shared<TestPayload>(i));
  }
  h.sim.run();
  const metrics::Histogram& stat =
      h.net->registry().histogram("chord.route_hops");
  ASSERT_EQ(stat.count(), 300u);
  // Chord guarantee: O(log n) hops; with perfect fingers, <= log2(n)+1.
  EXPECT_LE(stat.max(), 8.0);  // log2(128) = 7
  EXPECT_GT(stat.mean(), 1.0);
}

TEST(ChordRoutingTest, SelfCoveredKeySelfDeliversWithoutHops) {
  Harness h(16);
  ChordNode& node = h.net->alive_node(3);
  node.send(node.id(), std::make_shared<TestPayload>(1));
  h.sim.run();
  ASSERT_EQ(h.recorder.unicast.size(), 1u);
  EXPECT_EQ(h.recorder.unicast[0].node, node.id());
  EXPECT_EQ(h.net->traffic().hops(MessageClass::kPublish), 0u);
}

TEST(ChordRoutingTest, LocationCacheShortensRepeatRoutes) {
  ChordConfig cfg;
  cfg.location_cache_size = 128;
  cfg.owner_feedback = true;
  Harness h(128, cfg);
  ChordNode& src = h.net->alive_node(0);
  const Key key = h.net->ring().sub(src.id(), 1);  // far side of the ring

  src.send(key, std::make_shared<TestPayload>(1));
  h.sim.run();
  const metrics::Histogram first =
      h.net->registry().histogram("chord.route_hops");
  ASSERT_EQ(first.count(), 1u);
  const double first_hops = first.max();

  src.send(key, std::make_shared<TestPayload>(2));
  h.sim.run();
  const metrics::Histogram& second =
      h.net->registry().histogram("chord.route_hops");
  ASSERT_EQ(second.count(), 2u);
  const double second_hops = second.sum() - first_hops;
  if (first_hops > 1.0) {
    // Owner feedback lets the second route go direct.
    EXPECT_EQ(second_hops, 1.0);
  }
}

TEST(ChordRoutingTest, ManyRoutesAverageBelowLogNWithCache) {
  ChordConfig cfg;
  cfg.location_cache_size = 128;
  Harness h(100, cfg);
  Rng rng(3);
  // Warm phase + measured phase from one busy node.
  for (int i = 0; i < 600; ++i) {
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    h.net->alive_node(5).send(key, std::make_shared<TestPayload>(i));
  }
  h.sim.run();
  const metrics::Histogram& stat =
      h.net->registry().histogram("chord.route_hops");
  ASSERT_EQ(stat.count(), 600u);
  // log2(100) ≈ 6.6; the cache should pull the average well below it
  // (the paper reports ~2.5 at n=500, §5.1).
  EXPECT_LT(stat.mean(), 4.0);
}

TEST(ChordTraceTest, RouteHopSpansCarryHopsSoFar) {
  // Every forwarding step records the hops taken so far: a route of h
  // hops emits route-hop spans with hops 0..h-1, and the spans of all
  // routes add up to the publish hops on the wire.
  Harness h(64);
  metrics::TraceSink sink(1.0);
  h.net->set_trace_sink(&sink);
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    auto payload = std::make_shared<TestPayload>(i);
    payload->trace = {sink.maybe_start_trace(), 0};
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    h.net->alive_node(static_cast<std::size_t>(rng.uniform_int(0, 63)))
        .send(key, std::move(payload));
  }
  h.sim.run();

  std::map<std::uint64_t, std::vector<std::uint64_t>> hops_by_trace;
  for (const metrics::Span& s : sink.spans()) {
    if (s.kind == metrics::SpanKind::kRouteHop) {
      hops_by_trace[s.trace_id].push_back(s.b);
    }
  }
  std::uint64_t total_hops = 0;
  for (auto& [trace, hops] : hops_by_trace) {
    std::sort(hops.begin(), hops.end());
    for (std::size_t i = 0; i < hops.size(); ++i) {
      EXPECT_EQ(hops[i], i) << "trace " << trace;
    }
    total_hops += hops.size();
  }
  EXPECT_GT(hops_by_trace.size(), 50u);
  EXPECT_EQ(total_hops, h.net->traffic().hops(MessageClass::kPublish));
}

// ---------------------------------------------------------------------------
// m-cast (Figure 4)
// ---------------------------------------------------------------------------

std::vector<Key> key_range(Key lo, std::uint64_t count, RingParams ring) {
  std::vector<Key> keys;
  keys.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) keys.push_back(ring.add(lo, i));
  return keys;
}

TEST(ChordMcastTest, DeliversToExactlyCoveringNodesOnce) {
  Harness h(48);
  const RingParams ring = h.net->ring();
  const std::vector<Key> targets = key_range(1000, 2000, ring);

  h.net->alive_node(7).m_cast(targets, std::make_shared<TestPayload>(1));
  h.sim.run();

  // Expected: each target key delivered exactly once at its oracle
  // successor; each node at most one m-cast delivery.
  std::map<Key, std::vector<Key>> by_node;
  for (Key k : targets) by_node[h.net->oracle_successor(k)].push_back(k);

  std::set<Key> seen_nodes;
  std::size_t keys_delivered = 0;
  for (const McastDelivery& d : h.recorder.mcast) {
    EXPECT_TRUE(seen_nodes.insert(d.node).second)
        << "node " << d.node << " received the m-cast twice";
    ASSERT_TRUE(by_node.contains(d.node));
    std::vector<Key> expected = by_node[d.node];
    std::vector<Key> got = d.keys;
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "covered-key set mismatch at " << d.node;
    keys_delivered += got.size();
  }
  EXPECT_EQ(seen_nodes.size(), by_node.size());
  EXPECT_EQ(keys_delivered, targets.size());
}

// An application that answers every first-generation m-cast delivery by
// issuing a new m-cast from inside the upcall. A non-initiator hop makes
// that upcall synchronously, in the middle of its own partition, so the
// nested m-cast runs while the outer hop still has branches to send.
struct ReentrantLog {
  std::vector<McastDelivery> deliveries;
  std::map<int, KeyRange> targets;  // tag -> the run it was sent to
  int next_tag = 1000;              // second-generation tags
};

class ReentrantApp final : public overlay::OverlayApp {
 public:
  ReentrantApp(overlay::OverlayNode& node, ReentrantLog& log)
      : node_(node), log_(log) {}

  void on_deliver(Key, const PayloadPtr&) override {}
  void on_deliver_mcast(std::span<const Key> covered,
                        const PayloadPtr& payload) override {
    const auto* p = dynamic_cast<const TestPayload*>(payload.get());
    ASSERT_NE(p, nullptr);
    log_.deliveries.push_back(
        {node_.id(), {covered.begin(), covered.end()}, p->tag});
    // Answer first-generation deliveries only, and at most 200 of them:
    // a broken data plane that re-delivers must fail, not run away.
    if (p->tag >= 1000 || log_.next_tag >= 1200) return;
    const RingParams ring = node_.ring();
    const int tag = log_.next_tag++;
    const Key lo = ring.add(covered.back(), 997 * static_cast<Key>(tag));
    const KeyRange run{lo, ring.add(lo, 300 + 37 * (tag % 9))};
    log_.targets[tag] = run;
    node_.m_cast_runs({run}, std::make_shared<TestPayload>(tag));
  }
  PayloadPtr export_state(Key, Key, bool) override { return nullptr; }
  void import_state(const PayloadPtr&) override {}

 private:
  overlay::OverlayNode& node_;
  ReentrantLog& log_;
};

TEST(ChordMcastTest, McastIssuedFromTheUpcallDeliversEveryKeyOnce) {
  Harness h(48);
  const RingParams ring = h.net->ring();
  ReentrantLog log;
  std::vector<std::unique_ptr<ReentrantApp>> apps;
  for (const Key id : h.net->alive_ids()) {
    apps.push_back(std::make_unique<ReentrantApp>(*h.net->node(id), log));
    h.net->node(id)->set_app(apps.back().get());
  }
  // First generation: wide runs from three initiators, one wrapping.
  const std::vector<std::pair<std::size_t, KeyRange>> first = {
      {5, {1000, 2400}}, {20, {ring.sub(0, 500), 700}}, {33, {6000, 6900}}};
  for (std::size_t i = 0; i < first.size(); ++i) {
    const int tag = static_cast<int>(i + 1);
    log.targets[tag] = first[i].second;
    h.net->alive_node(first[i].first)
        .m_cast_runs({first[i].second}, std::make_shared<TestPayload>(tag));
  }
  h.sim.run();

  ASSERT_GT(log.next_tag, 1000 + static_cast<int>(first.size()));
  EXPECT_LT(log.next_tag, 1200);
  for (const auto& [tag, run] : log.targets) {
    std::map<Key, int> seen;
    std::set<Key> nodes;
    for (const McastDelivery& d : log.deliveries) {
      if (d.tag != tag) continue;
      EXPECT_TRUE(nodes.insert(d.node).second)
          << "tag " << tag << ": node " << d.node << " delivered twice";
      for (const Key k : d.keys) {
        EXPECT_TRUE(run.contains(ring, k)) << "tag " << tag << " key " << k;
        EXPECT_EQ(h.net->oracle_successor(k), d.node)
            << "tag " << tag << " key " << k;
        ++seen[k];
      }
    }
    EXPECT_EQ(seen.size(), run.size(ring)) << "tag " << tag;
    for (const auto& [k, n] : seen) {
      EXPECT_EQ(n, 1) << "tag " << tag << " key " << k;
    }
  }
}

TEST(ChordMcastTest, WrappingRange) {
  Harness h(16);
  const RingParams ring = h.net->ring();
  const std::vector<Key> targets = key_range(ring.sub(0, 100), 200, ring);
  h.net->alive_node(3).m_cast(targets, std::make_shared<TestPayload>(2));
  h.sim.run();
  std::size_t total = 0;
  for (const McastDelivery& d : h.recorder.mcast) total += d.keys.size();
  EXPECT_EQ(total, targets.size());
}

TEST(ChordMcastTest, WrappingRangeAndDuplicates) {
  // Every key of a range across the ring's wrap point, listed twice:
  // each key is delivered once, and each covering node is reached once.
  Harness h(16);
  const RingParams ring = h.net->ring();
  std::vector<Key> targets;
  for (const Key k : key_range(ring.sub(0, 100), 300, ring)) {
    targets.push_back(k);
    targets.push_back(k);
  }
  h.net->alive_node(3).m_cast(targets, std::make_shared<TestPayload>(2));
  h.sim.run();
  std::size_t total = 0;
  std::set<Key> seen;
  for (const McastDelivery& d : h.recorder.mcast) {
    EXPECT_TRUE(seen.insert(d.node).second) << "node " << d.node;
    total += d.keys.size();
  }
  EXPECT_EQ(total, 300u);
}

TEST(ChordMcastTest, DuplicateAndSingletonKeys) {
  Harness h(8);
  ChordNode& src = h.net->alive_node(0);
  const Key k = h.net->ring().midpoint(src.id(), h.net->alive_node(4).id());
  src.m_cast({k, k, k}, std::make_shared<TestPayload>(3));
  h.sim.run();
  ASSERT_EQ(h.recorder.mcast.size(), 1u);
  EXPECT_EQ(h.recorder.mcast[0].keys, std::vector<Key>{k});
  EXPECT_EQ(h.recorder.mcast[0].node, h.net->oracle_successor(k));
}

TEST(ChordMcastTest, InitiatorCoversSomeTargets) {
  Harness h(8);
  ChordNode& src = h.net->alive_node(2);
  // One key we cover ourselves + one far key.
  const Key own = src.id();
  const Key far = h.net->ring().add(src.id(), h.net->ring().size() / 2);
  src.m_cast({own, far}, std::make_shared<TestPayload>(4));
  h.sim.run();
  std::set<Key> nodes;
  for (const auto& d : h.recorder.mcast) nodes.insert(d.node);
  EXPECT_TRUE(nodes.contains(src.id()));
  EXPECT_TRUE(nodes.contains(h.net->oracle_successor(far)));
}

TEST(ChordMcastTest, MessageComplexityIsLogNPlusRange) {
  ChordConfig cfg;
  cfg.location_cache_size = 0;
  Harness h(64, cfg);
  const RingParams ring = h.net->ring();
  // A range covering ~16 of 64 nodes.
  const std::vector<Key> targets = key_range(0, ring.size() / 4, ring);
  std::size_t nodes_in_range = 0;
  for (Key id : h.net->alive_ids()) {
    if (id < ring.size() / 4) ++nodes_in_range;
  }
  h.net->alive_node(40).m_cast(targets, std::make_shared<TestPayload>(5));
  h.sim.run();
  const std::uint64_t hops = h.net->traffic().hops(MessageClass::kPublish);
  // O(log n + N_range): the log term covers the initial finger fan-out
  // plus per-level delegation relays (a small multiple of log2 n = 6).
  EXPECT_LE(hops, nodes_in_range + 4 * 6);
  EXPECT_GE(hops, nodes_in_range > 0 ? nodes_in_range - 1 : 0);
}

TEST(ChordMcastTest, DilationIsLogarithmic) {
  ChordConfig cfg;
  cfg.location_cache_size = 0;
  Harness h(64, cfg);
  const RingParams ring = h.net->ring();
  const std::vector<Key> targets = key_range(0, ring.size() / 2, ring);
  h.net->alive_node(10).m_cast(targets, std::make_shared<TestPayload>(6));
  h.sim.run();
  // Fixed 50 ms per hop: the last delivery must happen within
  // O(log n) hops' worth of time.
  EXPECT_LE(h.sim.now(), sim::ms(50) * 8);
}

// ---------------------------------------------------------------------------
// chain_cast (conservative unicast baseline)
// ---------------------------------------------------------------------------

TEST(ChordChainTest, DeliversSameSetAsMcast) {
  Harness h(32);
  const RingParams ring = h.net->ring();
  const std::vector<Key> targets = key_range(500, 1500, ring);

  h.net->alive_node(3).chain_cast(targets, std::make_shared<TestPayload>(7));
  h.sim.run();

  std::map<Key, std::vector<Key>> by_node;
  for (Key k : targets) by_node[h.net->oracle_successor(k)].push_back(k);

  std::set<Key> seen;
  std::size_t total = 0;
  for (const McastDelivery& d : h.recorder.mcast) {
    EXPECT_TRUE(seen.insert(d.node).second);
    total += d.keys.size();
  }
  EXPECT_EQ(seen.size(), by_node.size());
  EXPECT_EQ(total, targets.size());
}

TEST(ChordChainTest, DilationIsLinearInRangeNodes) {
  ChordConfig cfg;
  cfg.location_cache_size = 0;
  Harness h(64, cfg);
  const RingParams ring = h.net->ring();
  const std::vector<Key> targets = key_range(0, ring.size() / 2, ring);
  std::size_t nodes_in_range = 0;
  for (Key id : h.net->alive_ids()) {
    if (id < ring.size() / 2) ++nodes_in_range;
  }
  h.net->alive_node(10).chain_cast(targets,
                                   std::make_shared<TestPayload>(8));
  h.sim.run();
  // The walk visits range nodes sequentially: completion time must be at
  // least nodes_in_range - 1 hops (versus O(log n) for m-cast).
  EXPECT_GE(h.sim.now(), sim::ms(50) * (nodes_in_range - 1));
}

// ---------------------------------------------------------------------------
// Neighbor sends
// ---------------------------------------------------------------------------

TEST(ChordNeighborTest, SuccessorAndPredecessorDelivery) {
  Harness h(8);
  ChordNode& node = h.net->alive_node(2);
  node.send_to_successor(
      std::make_shared<TestPayload>(1, MessageClass::kCollect));
  node.send_to_predecessor(
      std::make_shared<TestPayload>(2, MessageClass::kCollect));
  h.sim.run();
  ASSERT_EQ(h.recorder.unicast.size(), 2u);
  std::map<int, Key> by_tag;
  for (const auto& d : h.recorder.unicast) by_tag[d.tag] = d.node;
  EXPECT_EQ(by_tag[1], node.successor_id());
  EXPECT_EQ(by_tag[2], node.predecessor_id());
  EXPECT_EQ(h.net->traffic().hops(MessageClass::kCollect), 2u);
}

// ---------------------------------------------------------------------------
// Dynamic membership
// ---------------------------------------------------------------------------

ChordConfig maintenance_config() {
  ChordConfig cfg;
  cfg.stabilize_period = sim::sec(5);
  return cfg;
}

TEST(ChordJoinTest, JoinConvergesAndTransfersCoverage) {
  Harness h(16, maintenance_config());
  h.net->start_maintenance_all();

  ChordNode& joiner = h.net->join_node("late-arrival", h.net->alive_ids()[0]);
  h.attach_apps();
  h.sim.run_until(sim::sec(60));

  h.expect_converged_ring();
  // The joiner must now own (pred, id]: a message routed to its id from a
  // third node must be delivered by the joiner.
  ChordNode& other = h.net->alive_node(0);
  h.recorder.unicast.clear();
  other.send(joiner.id(), std::make_shared<TestPayload>(42));
  h.sim.run_until(h.sim.now() + sim::sec(5));
  ASSERT_FALSE(h.recorder.unicast.empty());
  EXPECT_EQ(h.recorder.unicast.back().node, joiner.id());
}

TEST(ChordJoinTest, ManySequentialJoins) {
  Harness h(8, maintenance_config());
  h.net->start_maintenance_all();
  for (int i = 0; i < 8; ++i) {
    h.net->join_node(std::string("j").append(std::to_string(i)),
                     h.net->alive_ids()[0]);
    h.attach_apps();
    h.sim.run_until(h.sim.now() + sim::sec(30));
  }
  h.sim.run_until(h.sim.now() + sim::sec(60));
  EXPECT_EQ(h.net->alive_count(), 16u);
  h.expect_converged_ring();
}

TEST(ChordLeaveTest, GracefulLeaveRepairsRingAndMovesState) {
  Harness h(16, maintenance_config());
  h.net->start_maintenance_all();

  const std::vector<Key> ids = h.net->alive_ids();
  const Key leaver = ids[5];
  const Key succ = ids[6];
  h.apps[leaver]->state = {1, 2, 3};

  h.net->leave_gracefully(leaver);
  h.sim.run_until(sim::sec(60));

  EXPECT_EQ(h.net->alive_count(), 15u);
  h.expect_converged_ring();
  EXPECT_EQ(h.apps[succ]->state, (std::vector<int>{1, 2, 3}));

  // Keys previously covered by the leaver now route to its successor.
  h.recorder.unicast.clear();
  h.net->alive_node(0).send(leaver, std::make_shared<TestPayload>(9));
  h.sim.run_until(h.sim.now() + sim::sec(5));
  ASSERT_FALSE(h.recorder.unicast.empty());
  EXPECT_EQ(h.recorder.unicast.back().node, succ);
}

TEST(ChordCrashTest, RingHealsThroughSuccessorLists) {
  Harness h(16, maintenance_config());
  h.net->start_maintenance_all();
  h.sim.run_until(sim::sec(20));

  const std::vector<Key> ids = h.net->alive_ids();
  h.net->crash(ids[3]);
  h.sim.run_until(sim::sec(120));

  EXPECT_EQ(h.net->alive_count(), 15u);
  h.expect_converged_ring();

  // Routing to the dead node's keys lands at its successor.
  h.recorder.unicast.clear();
  h.net->alive_node(10).send(ids[3], std::make_shared<TestPayload>(13));
  h.sim.run_until(h.sim.now() + sim::sec(5));
  ASSERT_FALSE(h.recorder.unicast.empty());
  EXPECT_EQ(h.recorder.unicast.back().node, h.net->oracle_successor(ids[3]));
}

TEST(ChordCrashTest, MultipleSimultaneousCrashes) {
  ChordConfig cfg = maintenance_config();
  cfg.successor_list_size = 6;
  Harness h(24, cfg);
  h.net->start_maintenance_all();
  h.sim.run_until(sim::sec(20));

  const std::vector<Key> ids = h.net->alive_ids();
  h.net->crash(ids[4]);
  h.net->crash(ids[5]);  // two adjacent nodes at once
  h.net->crash(ids[12]);
  h.sim.run_until(sim::sec(240));

  EXPECT_EQ(h.net->alive_count(), 21u);
  h.expect_converged_ring();
}

TEST(ChordEdgeTest, TwoNodeRingRoutesBothWays) {
  Harness h(2);
  const auto ids = h.net->alive_ids();
  ChordNode& a = *h.net->node(ids[0]);
  EXPECT_EQ(a.successor_id(), ids[1]);
  EXPECT_EQ(a.predecessor_id(), ids[1]);
  // Keys on both arcs route to the right owner.
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    a.send(key, std::make_shared<TestPayload>(i));
  }
  h.sim.run();
  ASSERT_EQ(h.recorder.unicast.size(), 50u);
  for (const auto& d : h.recorder.unicast) {
    EXPECT_EQ(d.node, h.net->oracle_successor(d.key));
  }
}

TEST(ChordEdgeTest, TwoNodeMcastCoversWholeRing) {
  Harness h(2);
  const RingParams ring = h.net->ring();
  std::vector<Key> all;
  for (Key k = 0; k < ring.size(); k += 64) all.push_back(k);
  h.net->alive_node(0).m_cast(all, std::make_shared<TestPayload>(1));
  h.sim.run();
  std::size_t total = 0;
  std::set<Key> nodes;
  for (const auto& d : h.recorder.mcast) {
    EXPECT_TRUE(nodes.insert(d.node).second);
    total += d.keys.size();
  }
  EXPECT_EQ(nodes.size(), 2u);
  EXPECT_EQ(total, all.size());
}

TEST(ChordEdgeTest, McastReroutesAroundDeadCandidate) {
  // Crash one of the source's fingers, let stabilization repair the
  // ring, then m-cast: the dead candidate must be evicted at transmit
  // time and its keys re-assigned, with the crashed node's own keys
  // delivered by its (repaired) successor.
  Harness h(24, maintenance_config());
  h.net->start_maintenance_all();
  h.sim.run_until(sim::sec(20));
  ChordNode& src = h.net->alive_node(0);
  const auto fingers = src.finger_table().distinct_nodes();
  ASSERT_GE(fingers.size(), 3u);
  const Key victim = fingers[fingers.size() / 2];
  h.net->crash(victim);
  h.sim.run_until(sim::sec(120));  // let successor lists repair coverage

  const RingParams ring = h.net->ring();
  std::vector<Key> targets = key_range(0, ring.size() / 2, ring);
  h.recorder.mcast.clear();
  src.m_cast(targets, std::make_shared<TestPayload>(9));
  h.sim.run_until(h.sim.now() + sim::sec(10));

  std::map<Key, std::size_t> expected;
  for (Key k : targets) expected[h.net->oracle_successor(k)] += 1;
  std::size_t total = 0;
  std::set<Key> seen;
  for (const auto& d : h.recorder.mcast) {
    EXPECT_TRUE(seen.insert(d.node).second);
    EXPECT_NE(d.node, victim);
    total += d.keys.size();
  }
  // Every key whose owner is alive must be delivered exactly once.
  EXPECT_EQ(total, targets.size());
  EXPECT_EQ(seen.size(), expected.size());
}

TEST(ChordEdgeTest, RouteSurvivesDeadNextHop) {
  Harness h(24);
  ChordNode& src = h.net->alive_node(2);
  const auto fingers = src.finger_table().distinct_nodes();
  const Key victim = fingers[fingers.size() - 1];  // farthest finger
  h.net->crash(victim);
  // Route to a key just past the dead finger: the first candidate fails
  // at transmit time and the route must fall back and still arrive.
  const Key key = h.net->ring().add(victim, 1);
  src.send(key, std::make_shared<TestPayload>(4));
  h.sim.run();
  ASSERT_EQ(h.recorder.unicast.size(), 1u);
  EXPECT_EQ(h.recorder.unicast[0].node, h.net->oracle_successor(key));
}

TEST(ChordMcastTest, ConnectionBoundPreserved) {
  // §4.3.1: the m-cast "preserves the log n limit on the number of
  // neighbors that each node has to maintain connections with" — every
  // node only ever transmits to its fingers/successor, never to
  // arbitrary peers. Verified by delegating a whole-ring multicast and
  // checking each sender's distinct destinations against its tables.
  Harness h(64);
  const RingParams ring = h.net->ring();
  std::vector<Key> all_keys(ring.size());
  for (Key k = 0; k < ring.size(); ++k) all_keys[k] = k;

  // A whole-ring m-cast: every node covers part of the target set and
  // must *deliver* exactly once (Figure 4's at-most-once guarantee).
  // Message count exceeds n - 1 only by boundary relay hops (a node can
  // additionally relay a segment that starts just past its own range),
  // staying within the O(N + log n) budget.
  h.net->alive_node(0).m_cast(all_keys, std::make_shared<TestPayload>(1));
  h.sim.run();

  std::set<Key> nodes;
  std::size_t keys_covered = 0;
  for (const McastDelivery& d : h.recorder.mcast) {
    EXPECT_TRUE(nodes.insert(d.node).second);
    keys_covered += d.keys.size();
  }
  EXPECT_EQ(nodes.size(), 64u);
  EXPECT_EQ(keys_covered, ring.size());
  const std::uint64_t hops =
      h.net->traffic().hops(overlay::MessageClass::kPublish);
  EXPECT_GE(hops, 63u);
  EXPECT_LE(hops, 2 * 63u);
}

TEST(ChordEdgeTest, SingleNodeSelfDelivers) {
  // Alone in the ring, a node covers every key: a send and an m-cast
  // come back to it as upcalls, and nothing touches the wire.
  Harness h(1);
  ChordNode& only = h.net->alive_node(0);
  only.send(1234, std::make_shared<TestPayload>(1));
  only.m_cast({1, 2, 3}, std::make_shared<TestPayload>(2));
  h.sim.run();
  ASSERT_EQ(h.recorder.unicast.size(), 1u);
  EXPECT_EQ(h.recorder.unicast[0].key, 1234u);
  ASSERT_EQ(h.recorder.mcast.size(), 1u);
  EXPECT_EQ(h.recorder.mcast[0].keys, (std::vector<Key>{1, 2, 3}));
  EXPECT_EQ(h.net->traffic().total_hops(), 0u);
}

TEST(ChordEdgeTest, EmptyMcastIsNoOp) {
  Harness h(4);
  h.net->alive_node(0).m_cast({}, std::make_shared<TestPayload>(1));
  h.net->alive_node(0).chain_cast({}, std::make_shared<TestPayload>(2));
  h.sim.run();
  EXPECT_TRUE(h.recorder.mcast.empty());
  EXPECT_EQ(h.net->traffic().total_hops(), 0u);
}

TEST(ChordNetworkTest, AliveNodeIndexesInIdOrderAndStaysFastAtScale) {
  // Regression: alive_node(i) used to walk a std::map with std::advance,
  // making every dense-index pick O(n) — the workload drivers sit on this
  // path, so large-ring benches degraded quadratically. The alive set is
  // now a sorted vector with O(1) indexing.
  sim::Simulator sim;
  ChordConfig cfg;
  cfg.ring = RingParams{24};
  ChordNetwork net(sim, cfg, 1);
  const std::size_t kNodes = 8'192;
  for (std::size_t i = 0; i < kNodes; ++i) {
    net.add_node_with_id(static_cast<Key>(i * 7 + 3),
                         std::string("n").append(std::to_string(i)));
  }

  // Dense indexing agrees with the sorted id list, including after a
  // membership change in the middle of the range.
  const std::vector<Key> ids = net.alive_ids();
  ASSERT_EQ(ids.size(), kNodes);
  for (std::size_t i : {std::size_t{0}, kNodes / 3, kNodes - 1}) {
    EXPECT_EQ(net.alive_node(i).id(), ids[i]);
  }
  net.crash(ids[kNodes / 2]);
  ASSERT_EQ(net.alive_count(), kNodes - 1);
  EXPECT_EQ(net.alive_node(kNodes / 2).id(), ids[kNodes / 2 + 1]);

  // ~3M picks: O(1) finishes in well under a second; the old O(n) walk
  // (~12 billion iterator steps here) blows any sane budget.
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sum = 0;
  for (std::uint64_t round = 0; round < 400; ++round) {
    for (std::size_t i = 0; i < kNodes - 1; ++i) {
      sum += net.alive_node(i).id();
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(sum, 0u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2'000);
}

// ---------------------------------------------------------------------------
// Liveness and partitions at the wire: which transmissions the network
// refuses (the sender evicts the peer and tries the next one) and which
// in-flight messages it drops on arrival.
// ---------------------------------------------------------------------------

std::uint64_t counter(const Harness& h, const std::string& name) {
  return h.net->registry().counter_value(name);
}

TEST(ChordNetworkTest, SendToUnknownIdIsRefused) {
  Harness h(8);
  ChordNode& a = h.net->alive_node(1);
  const Key succ = a.successor_id();
  const Key unknown = h.net->ring().add(a.id(), 1);
  ASSERT_EQ(h.net->node(unknown), nullptr);
  // Put an id no node owns at the head of the successor list.
  std::vector<Key> succs = a.successor_list();
  succs.insert(succs.begin(), unknown);
  std::vector<Key> fingers;
  for (std::size_t i = 0; i < a.finger_table().size(); ++i) {
    fingers.push_back(*a.finger_table().get(i));
  }
  a.install_state(a.predecessor(), succs, fingers);

  a.send_to_successor(std::make_shared<TestPayload>(1, MessageClass::kCollect));
  h.sim.run();
  // Refused without a hop; the next successor took the message.
  EXPECT_EQ(counter(h, "chord.send_to_dead"), 1u);
  EXPECT_EQ(a.successor_id(), succ);
  ASSERT_EQ(h.recorder.unicast.size(), 1u);
  EXPECT_EQ(h.recorder.unicast[0].node, succ);
  EXPECT_EQ(h.net->traffic().hops(MessageClass::kCollect), 1u);
}

TEST(ChordNetworkTest, SendToCrashedIdIsRefusedAndEvictsPeer) {
  Harness h(8);
  ChordNode& a = h.net->alive_node(2);
  const Key dead = a.successor_id();
  const Key next = a.successor_list().at(1);
  h.net->crash(dead);

  a.send_to_successor(std::make_shared<TestPayload>(2, MessageClass::kCollect));
  h.sim.run();
  EXPECT_EQ(counter(h, "chord.send_to_dead"), 1u);
  const auto& succs = a.successor_list();
  EXPECT_EQ(std::find(succs.begin(), succs.end(), dead), succs.end());
  const auto fingers = a.finger_table().distinct_nodes();
  EXPECT_EQ(std::find(fingers.begin(), fingers.end(), dead), fingers.end());
  ASSERT_EQ(h.recorder.unicast.size(), 1u);
  EXPECT_EQ(h.recorder.unicast[0].node, next);
  EXPECT_EQ(h.net->traffic().hops(MessageClass::kCollect), 1u);
}

TEST(ChordNetworkTest, DepartedLameDuckRefusesDataButTakesAcks) {
  // Acks flow at zero loss, so every reliable send either is acked within
  // one round trip or shows up as a retransmission.
  ChordConfig cfg;
  cfg.force_reliable = true;
  Harness h(8, cfg);
  const std::vector<Key> ids = h.net->alive_ids();
  const Key pred = ids[2];
  const Key leaver = ids[3];
  const Key heir = ids[4];
  h.net->leave_gracefully(leaver);
  ASSERT_EQ(h.net->node(leaver)->pending_send_count(), 2u);  // both notices

  // The predecessor has not heard of the departure yet: its data send to
  // the lame duck is refused and goes to the next successor instead.
  h.net->node(pred)->send_to_successor(
      std::make_shared<TestPayload>(3, MessageClass::kCollect));
  EXPECT_EQ(counter(h, "chord.send_to_dead"), 1u);
  h.sim.run();
  ASSERT_EQ(h.recorder.unicast.size(), 1u);
  EXPECT_EQ(h.recorder.unicast[0].node, heir);
  // The lame duck still took the acks of its leave notices: nothing was
  // retransmitted and its pending sends drained.
  EXPECT_EQ(h.net->node(leaver)->pending_send_count(), 0u);
  EXPECT_EQ(counter(h, "chord.retransmits"), 0u);
  EXPECT_EQ(counter(h, "chord.send_failed"), 0u);
}

TEST(ChordNetworkTest, InFlightMessageToCrashedNodeIsNotDelivered) {
  Harness h(8);
  ChordNode& a = h.net->alive_node(1);
  const Key succ = a.successor_id();
  a.send_to_successor(std::make_shared<TestPayload>(4, MessageClass::kCollect));
  h.net->crash(succ);  // after the send, before the arrival
  h.sim.run();
  EXPECT_TRUE(h.recorder.unicast.empty());
  EXPECT_EQ(h.net->traffic().hops(MessageClass::kCollect), 1u);  // charged
  EXPECT_EQ(counter(h, "chord.send_to_dead"), 0u);
}

TEST(ChordNetworkTest, RefusedPartitionSendTicksPartitionRefused) {
  Harness h(8);
  ChordNode& a = h.net->alive_node(1);
  const Key next = a.successor_list().at(1);
  // `a` and its second successor on one side, everyone else (its first
  // successor included) on the other.
  h.net->set_partition({{a.id(), next}});

  a.send_to_successor(std::make_shared<TestPayload>(5, MessageClass::kCollect));
  h.sim.run();
  EXPECT_EQ(counter(h, "chord.net.partition_refused"), 1u);
  EXPECT_EQ(counter(h, "chord.net.partition_dropped"), 0u);
  EXPECT_EQ(counter(h, "chord.send_to_dead"), 1u);
  ASSERT_EQ(h.recorder.unicast.size(), 1u);
  EXPECT_EQ(h.recorder.unicast[0].node, next);
}

TEST(ChordNetworkTest, PartitionCutInFlightTicksPartitionDropped) {
  Harness h(8);
  ChordNode& a = h.net->alive_node(1);
  a.send_to_successor(std::make_shared<TestPayload>(6, MessageClass::kCollect));
  h.net->set_partition({{a.id()}});  // after the send, before the arrival
  h.sim.run();
  EXPECT_EQ(counter(h, "chord.net.partition_dropped"), 1u);
  EXPECT_EQ(counter(h, "chord.net.partition_refused"), 0u);
  EXPECT_TRUE(h.recorder.unicast.empty());

  // Healed, the same send arrives again.
  h.net->heal_partition();
  a.send_to_successor(std::make_shared<TestPayload>(7, MessageClass::kCollect));
  h.sim.run();
  ASSERT_EQ(h.recorder.unicast.size(), 1u);
  EXPECT_EQ(h.recorder.unicast[0].node, a.successor_id());
  EXPECT_EQ(counter(h, "chord.net.partition_dropped"), 1u);
}

TEST(ChordMaintenanceTest, StabilizationFixesManuallyBrokenRing) {
  Harness h(12, maintenance_config());
  // Degrade: give one node a wrong (but alive) successor.
  const std::vector<Key> ids = h.net->alive_ids();
  ChordNode& victim = *h.net->node(ids[2]);
  victim.install_state(ids[1], {ids[7]}, std::vector<Key>(13, ids[7]));
  h.net->start_maintenance_all();
  h.sim.run_until(sim::sec(120));
  h.expect_converged_ring();
}

}  // namespace
}  // namespace cbps::chord
