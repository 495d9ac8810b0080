// Tests for the Pastry-style prefix-routing overlay, and the portability
// proof: the whole CB-pub/sub layer running unchanged on top of it
// (paper §3.1 footnote 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cbps/metrics/trace.hpp"
#include "cbps/pastry/pastry.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/node.hpp"
#include "cbps/workload/generator.hpp"

namespace cbps::pastry {
namespace {

using overlay::MessageClass;
using overlay::PayloadPtr;

struct TestPayload final : overlay::Payload {
  explicit TestPayload(int t) : tag(t) {}
  MessageClass message_class() const override {
    return MessageClass::kPublish;
  }
  int tag;
};

struct Delivery {
  Key node;
  std::vector<Key> keys;
};

class RecordingApp final : public overlay::OverlayApp {
 public:
  RecordingApp(Key node, std::vector<Delivery>& sink)
      : node_(node), sink_(sink) {}
  void on_deliver(Key key, const PayloadPtr&) override {
    sink_.push_back({node_, {key}});
  }
  void on_deliver_mcast(std::span<const Key> covered,
                        const PayloadPtr&) override {
    sink_.push_back({node_, {covered.begin(), covered.end()}});
  }
  PayloadPtr export_state(Key, Key, bool) override { return nullptr; }
  void import_state(const PayloadPtr&) override {}

 private:
  Key node_;
  std::vector<Delivery>& sink_;
};

class PastryHarness {
 public:
  explicit PastryHarness(std::size_t n, PastryConfig cfg = {}) {
    net = std::make_unique<PastryNetwork>(sim, cfg, 5);
    for (std::size_t i = 0; i < n; ++i) {
      net->add_node(std::string("p").append(std::to_string(i)));
    }
    net->build_static_ring();
    for (Key id : net->ids()) {
      apps.push_back(std::make_unique<RecordingApp>(id, deliveries));
      net->node(id)->set_app(apps.back().get());
    }
  }

  sim::Simulator sim;
  std::unique_ptr<PastryNetwork> net;
  std::vector<Delivery> deliveries;
  std::vector<std::unique_ptr<RecordingApp>> apps;
};

// A ring whose every id is taken cannot take one more node: add_node
// asserts instead of re-salting the name forever.
TEST(PastryRingFullDeathTest, AddNodeToAFullRingAsserts) {
  sim::Simulator sim;
  PastryConfig cfg;
  cfg.ring = RingParams{2};
  PastryNetwork net(sim, cfg, 1);
  for (int i = 0; i < 4; ++i) {
    net.add_node(std::string("p").append(std::to_string(i)));
  }
  EXPECT_DEATH(net.add_node("p4"), "ring full");
}

TEST(PastryTopologyTest, LeafSetsMatchRingOrder) {
  PastryHarness h(32);
  const auto ids = h.net->ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const PastryNode& node = *h.net->node(ids[i]);
    EXPECT_EQ(node.predecessor_id(), ids[(i + ids.size() - 1) % ids.size()]);
    EXPECT_EQ(node.successor_id(), ids[(i + 1) % ids.size()]);
    EXPECT_EQ(node.leaf_successors().size(), 4u);
  }
}

TEST(PastryTopologyTest, RoutingTablePrefixInvariant) {
  PastryHarness h(64);
  const RingParams ring = h.net->ring();
  for (Key id : h.net->ids()) {
    const PastryNode& node = *h.net->node(id);
    for (unsigned r = 0; r < ring.bits(); ++r) {
      const auto entry = node.routing_table()[r];
      if (!entry) continue;
      // Shares exactly r leading bits: identical above bit r, different
      // at bit r.
      const unsigned low_bits = ring.bits() - r - 1;
      EXPECT_EQ(*entry >> (low_bits + 1), id >> (low_bits + 1));
      EXPECT_NE((*entry >> low_bits) & 1, (id >> low_bits) & 1);
    }
  }
}

TEST(PastryRoutingTest, DeliversAtOracleSuccessor) {
  PastryHarness h(64);
  Rng rng(3);
  std::vector<Key> targets;
  for (int i = 0; i < 300; ++i) {
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    targets.push_back(key);
    h.net->node_at(static_cast<std::size_t>(rng.uniform_int(0, 63)))
        .send(key, std::make_shared<TestPayload>(i));
  }
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), targets.size());
  for (const Delivery& d : h.deliveries) {
    ASSERT_EQ(d.keys.size(), 1u);
    EXPECT_EQ(d.node, h.net->oracle_successor(d.keys[0]));
  }
}

TEST(PastryRoutingTest, HopCountLogarithmic) {
  PastryHarness h(128);
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    h.net->node_at(0).send(key, std::make_shared<TestPayload>(i));
  }
  h.sim.run();
  const metrics::Histogram& stat =
      h.net->registry().histogram("pastry.route_hops");
  ASSERT_EQ(stat.count(), 300u);
  // Binary prefix routing resolves >= 1 bit per hop: <= m = 13 always,
  // and on average about log2(128) = 7.
  EXPECT_LE(stat.max(), 13.0);
  EXPECT_LT(stat.mean(), 8.0);
}

TEST(PastryTraceTest, RouteHopSpansCarryHopsSoFar) {
  // Every forwarding step records the hops taken so far, the convention
  // the shared data plane keeps for every overlay: a route of h hops
  // emits route-hop spans with hops 0..h-1.
  PastryHarness h(64);
  metrics::TraceSink sink(1.0);
  h.net->set_trace_sink(&sink);
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    auto payload = std::make_shared<TestPayload>(i);
    payload->trace = {sink.maybe_start_trace(), 0};
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    h.net->node_at(static_cast<std::size_t>(rng.uniform_int(0, 63)))
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

TEST(PastryMcastTest, DeliversToExactlyCoveringNodesOnce) {
  PastryHarness h(48);
  const RingParams ring = h.net->ring();
  std::vector<Key> targets;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    targets.push_back(ring.wrap(1000 + i));
  }
  h.net->node_at(7).m_cast(targets, std::make_shared<TestPayload>(1));
  h.sim.run();

  std::map<Key, std::set<Key>> expected;
  for (Key k : targets) expected[h.net->oracle_successor(k)].insert(k);

  std::set<Key> seen;
  std::size_t total = 0;
  for (const Delivery& d : h.deliveries) {
    EXPECT_TRUE(seen.insert(d.node).second)
        << "node " << d.node << " received the m-cast twice";
    EXPECT_EQ(std::set<Key>(d.keys.begin(), d.keys.end()),
              expected[d.node]);
    total += d.keys.size();
  }
  EXPECT_EQ(seen.size(), expected.size());
  EXPECT_EQ(total, targets.size());
}

TEST(PastryMcastTest, WrappingRangeAndDuplicates) {
  PastryHarness h(16);
  const RingParams ring = h.net->ring();
  std::vector<Key> targets;
  for (std::uint64_t i = 0; i < 300; ++i) {
    targets.push_back(ring.wrap(ring.max_key() - 100 + i));
    targets.push_back(ring.wrap(ring.max_key() - 100 + i));  // dup
  }
  h.net->node_at(3).m_cast(targets, std::make_shared<TestPayload>(2));
  h.sim.run();
  std::size_t total = 0;
  std::set<Key> seen;
  for (const Delivery& d : h.deliveries) {
    EXPECT_TRUE(seen.insert(d.node).second);
    total += d.keys.size();
  }
  EXPECT_EQ(total, 300u);
}

TEST(PastryChainTest, DeliversSameCoverage) {
  PastryHarness h(32);
  const RingParams ring = h.net->ring();
  std::vector<Key> targets;
  for (std::uint64_t i = 0; i < 1000; ++i) targets.push_back(ring.wrap(i));
  h.net->node_at(5).chain_cast(targets, std::make_shared<TestPayload>(3));
  h.sim.run();
  std::size_t total = 0;
  for (const Delivery& d : h.deliveries) total += d.keys.size();
  EXPECT_EQ(total, targets.size());
}

TEST(PastryNeighborTest, NeighborSends) {
  PastryHarness h(8);
  PastryNode& n = h.net->node_at(2);
  n.send_to_successor(std::make_shared<TestPayload>(1));
  n.send_to_predecessor(std::make_shared<TestPayload>(2));
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 2u);
  std::set<Key> nodes;
  for (const auto& d : h.deliveries) nodes.insert(d.node);
  EXPECT_TRUE(nodes.contains(n.successor_id()));
  EXPECT_TRUE(nodes.contains(n.predecessor_id()));
}

TEST(PastryEdgeTest, TwoNodeRing) {
  PastryHarness h(2);
  const auto ids = h.net->ids();
  PastryNode& a = *h.net->node(ids[0]);
  EXPECT_EQ(a.successor_id(), ids[1]);
  EXPECT_EQ(a.predecessor_id(), ids[1]);
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(h.net->ring().max_key())));
    a.send(key, std::make_shared<TestPayload>(i));
  }
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 40u);
  for (const Delivery& d : h.deliveries) {
    EXPECT_EQ(d.node, h.net->oracle_successor(d.keys[0]));
  }
}

TEST(PastryEdgeTest, SingleNodeSelfDelivers) {
  PastryHarness h(1);
  PastryNode& only = h.net->node_at(0);
  only.send(1234, std::make_shared<TestPayload>(1));
  only.m_cast({1, 2, 3}, std::make_shared<TestPayload>(2));
  h.sim.run();
  std::size_t total = 0;
  for (const Delivery& d : h.deliveries) total += d.keys.size();
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(h.net->traffic().total_hops(), 0u);
}

// ---------------------------------------------------------------------------
// Portability: the full CB-pub/sub layer on Pastry
// ---------------------------------------------------------------------------

struct PastryPubSubParam {
  pubsub::MappingKind kind;
  pubsub::PubSubConfig::Transport transport;
  const char* name;
};

class PastryPubSubTest : public ::testing::TestWithParam<PastryPubSubParam> {
};

TEST_P(PastryPubSubTest, EndToEndExactlyOnce) {
  const PastryPubSubParam param = GetParam();
  sim::Simulator sim;
  PastryConfig cfg;
  cfg.ring = RingParams{12};
  PastryNetwork net(sim, cfg, 9);
  for (int i = 0; i < 32; ++i) {
    net.add_node(std::string("pp").append(std::to_string(i)));
  }
  net.build_static_ring();

  const pubsub::Schema schema = pubsub::Schema::uniform(3, 99'999);
  auto mapping =
      pubsub::make_mapping(param.kind, schema, cfg.ring);

  pubsub::PubSubConfig pcfg;
  pcfg.sub_transport = param.transport;
  pcfg.pub_transport = param.transport;

  std::vector<std::unique_ptr<pubsub::PubSubNode>> nodes;
  const std::vector<Key> ids = net.ids();
  for (Key id : ids) {
    nodes.push_back(std::make_unique<pubsub::PubSubNode>(
        *net.node(id), sim, *mapping, pcfg));
  }

  pubsub::DeliveryChecker checker;
  for (auto& n : nodes) {
    n->set_notify_sink([&](Key subscriber, const pubsub::Notification& nf) {
      checker.on_notify(subscriber, nf, sim.now());
    });
  }

  workload::WorkloadParams wp;
  wp.matching_probability = 0.7;
  wp.nonselective_range_frac = 0.10;
  workload::WorkloadGenerator gen(schema, wp, 777);

  std::vector<pubsub::SubscriptionPtr> active;
  SubscriptionId next_sub = 1;
  EventId next_event = 1;
  for (int round = 0; round < 25; ++round) {
    const auto node_idx = static_cast<std::size_t>(
        gen.rng().uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
    auto sub = std::make_shared<pubsub::Subscription>();
    sub->id = next_sub++;
    sub->subscriber = ids[node_idx];
    sub->constraints = gen.make_constraints();
    nodes[node_idx]->subscribe(sub);
    checker.on_subscribe(sub, sim.now(), sim::kSimTimeNever);
    active.push_back(sub);
    sim.run_until(sim.now() + sim::sec(3));

    for (int e = 0; e < 2; ++e) {
      auto event = std::make_shared<pubsub::Event>();
      event->id = next_event++;
      event->values = gen.make_event_values(active);
      const auto pub_idx = static_cast<std::size_t>(gen.rng().uniform_int(
          0, static_cast<std::int64_t>(ids.size()) - 1));
      checker.on_publish(event, sim.now());
      nodes[pub_idx]->publish(std::move(event));
      sim.run_until(sim.now() + sim::sec(1));
    }
  }
  sim.run();

  const auto report = checker.verify();
  EXPECT_GT(report.expected, 0u);
  EXPECT_TRUE(report.ok())
      << param.name << ": missing=" << report.missing
      << " dup=" << report.duplicates << " spurious=" << report.spurious
      << (report.issues.empty() ? "" : "\n  " + report.issues[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Portability, PastryPubSubTest,
    ::testing::Values(
        PastryPubSubParam{pubsub::MappingKind::kAttributeSplit,
                          pubsub::PubSubConfig::Transport::kUnicast,
                          "m1_unicast"},
        PastryPubSubParam{pubsub::MappingKind::kKeySpaceSplit,
                          pubsub::PubSubConfig::Transport::kMulticast,
                          "m2_mcast"},
        PastryPubSubParam{pubsub::MappingKind::kSelectiveAttribute,
                          pubsub::PubSubConfig::Transport::kMulticast,
                          "m3_mcast"},
        PastryPubSubParam{pubsub::MappingKind::kSelectiveAttribute,
                          pubsub::PubSubConfig::Transport::kChain,
                          "m3_chain"}),
    [](const ::testing::TestParamInfo<PastryPubSubParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace cbps::pastry
