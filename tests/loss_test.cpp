// Tests for message-loss fault injection (sim::LossModel) and the
// hop-by-hop ack/retry reliability layer: the loss model itself, the
// Chord transport mechanics (retransmission, duplicate suppression,
// retry-budget exhaustion, zero-overhead gating), and end-to-end
// exactly-once pub/sub delivery under loss and churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"

namespace cbps {
namespace {

using overlay::MessageClass;
using overlay::PayloadPtr;

// ---------------------------------------------------------------------------
// LossModel unit behavior
// ---------------------------------------------------------------------------

TEST(UniformLossTest, BoundaryRatesAreDeterministic) {
  Rng rng(11);
  sim::UniformLoss never(0.0);
  sim::UniformLoss always(1.0);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_FALSE(never.drop(rng));
    EXPECT_TRUE(always.drop(rng));
  }
}

TEST(UniformLossTest, RateIsHonoredStatistically) {
  Rng rng(12);
  sim::UniformLoss loss(0.3);
  const int kDraws = 100'000;
  int dropped = 0;
  for (int i = 0; i < kDraws; ++i) dropped += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(dropped) / kDraws, 0.3, 0.01);
}

// ---------------------------------------------------------------------------
// Transport scaffolding
// ---------------------------------------------------------------------------

struct TagPayload final : overlay::Payload {
  explicit TagPayload(int t) : tag(t) {}
  MessageClass message_class() const override {
    return MessageClass::kPublish;
  }
  int tag;
};

struct TagDelivery {
  Key node;
  std::vector<Key> keys;  // one entry for unicast, the segment for m-cast
  int tag;
};

class TagApp final : public overlay::OverlayApp {
 public:
  TagApp(Key node, std::vector<TagDelivery>& sink)
      : node_(node), sink_(sink) {}

  void on_deliver(Key key, const PayloadPtr& payload) override {
    const auto* p = dynamic_cast<const TagPayload*>(payload.get());
    ASSERT_NE(p, nullptr);
    sink_.push_back({node_, {key}, p->tag});
  }
  void on_deliver_mcast(std::span<const Key> covered,
                        const PayloadPtr& payload) override {
    const auto* p = dynamic_cast<const TagPayload*>(payload.get());
    ASSERT_NE(p, nullptr);
    sink_.push_back({node_, {covered.begin(), covered.end()}, p->tag});
  }
  PayloadPtr export_state(Key, Key, bool) override { return nullptr; }
  void import_state(const PayloadPtr&) override {}

 private:
  Key node_;
  std::vector<TagDelivery>& sink_;
};

class ChordLossHarness {
 public:
  explicit ChordLossHarness(std::size_t n, chord::ChordConfig cfg,
                            std::uint64_t seed = 1) {
    net = std::make_unique<chord::ChordNetwork>(sim, cfg, seed);
    for (std::size_t i = 0; i < n; ++i) {
      net->add_node(std::string("n").append(std::to_string(i)));
    }
    net->build_static_ring();
    ids = net->alive_ids();
    for (Key id : ids) {
      apps.push_back(std::make_unique<TagApp>(id, deliveries));
      net->node(id)->set_app(apps.back().get());
    }
  }

  std::uint64_t counter(const std::string& name) const {
    return net->registry().counter_value(name);
  }

  /// Node by dense index, in id order.
  chord::ChordNode& node(std::size_t i) { return *net->node(ids.at(i)); }

  /// Hand `msg` to node `to` as if it arrived from `from`.
  void inject(Key to, Key from, overlay::NeighborMsg msg) {
    net->node(to)->receive(chord::Envelope{from, false, 0, std::move(msg)});
  }

  std::size_t pending_total() const {
    std::size_t total = 0;
    for (Key id : ids) total += net->node(id)->pending_send_count();
    return total;
  }

  sim::Simulator sim;
  std::unique_ptr<chord::ChordNetwork> net;
  std::vector<Key> ids;  // sorted
  std::vector<TagDelivery> deliveries;
  std::vector<std::unique_ptr<TagApp>> apps;
};

// ---------------------------------------------------------------------------
// Ack/retry mechanics
// ---------------------------------------------------------------------------

TEST(ChordLossTest, DropsAreCountedPerMessageClass) {
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.5;
  ChordLossHarness h(16, cfg, 2);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Key key = static_cast<Key>(rng.uniform_int(
        0, static_cast<std::int64_t>(h.net->ring().max_key())));
    h.net->alive_node(static_cast<std::size_t>(rng.uniform_int(0, 15)))
        .send(key, std::make_shared<TagPayload>(i));
  }
  h.sim.run();

  const std::uint64_t lost = h.counter("chord.net.lost");
  EXPECT_GT(lost, 0u);
  EXPECT_GT(h.counter("chord.net.lost.publish"), 0u);
  // Only application routes (publish) and their acks (control) hit the
  // wire here; the per-class counters must account for every drop.
  EXPECT_EQ(lost, h.counter("chord.net.lost.publish") +
                      h.counter("chord.net.lost.control"));
  EXPECT_GT(h.counter("chord.retransmits"), 0u);
  EXPECT_EQ(h.pending_total(), 0u);
}

TEST(ChordLossTest, AckRetryRecoversEveryUnicastAtModerateLoss) {
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.05;
  ChordLossHarness h(64, cfg, 4);
  Rng rng(5);
  const int kSends = 200;
  std::vector<Key> targets;
  for (int i = 0; i < kSends; ++i) {
    const Key key = static_cast<Key>(rng.uniform_int(
        0, static_cast<std::int64_t>(h.net->ring().max_key())));
    targets.push_back(key);
    h.net->alive_node(static_cast<std::size_t>(rng.uniform_int(0, 63)))
        .send(key, std::make_shared<TagPayload>(i));
  }
  h.sim.run();

  // Exactly-once: every send arrives despite drops (retries recover
  // them), and no retransmit surfaces twice (receiver-side dedup).
  ASSERT_EQ(h.deliveries.size(), static_cast<std::size_t>(kSends));
  std::set<int> tags;
  for (const TagDelivery& d : h.deliveries) {
    EXPECT_TRUE(tags.insert(d.tag).second) << "tag " << d.tag << " twice";
    ASSERT_EQ(d.keys.size(), 1u);
    EXPECT_EQ(d.node, h.net->oracle_successor(d.keys[0]));
    EXPECT_EQ(d.keys[0], targets[static_cast<std::size_t>(d.tag)]);
  }
  EXPECT_GT(h.counter("chord.net.lost"), 0u);
  EXPECT_GT(h.counter("chord.retransmits"), 0u);
  // A lost ack forces a retransmit of an already-delivered message; the
  // receiver must swallow it (and re-ack) rather than re-deliver.
  EXPECT_GT(h.counter("chord.dup_suppressed"), 0u);
  EXPECT_EQ(h.counter("chord.send_failed"), 0u);
  EXPECT_EQ(h.pending_total(), 0u);
}

TEST(ChordLossTest, McastUnderLossCoversEveryTargetExactlyOnce) {
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.05;
  ChordLossHarness h(32, cfg, 6);
  const RingParams ring = h.net->ring();
  std::vector<Key> targets;
  for (std::uint64_t i = 0; i < 500; ++i) targets.push_back(ring.wrap(i * 11));
  h.node(3).m_cast(targets, std::make_shared<TagPayload>(1));
  h.sim.run();

  std::map<Key, std::set<Key>> expected;
  for (Key k : targets) expected[h.net->oracle_successor(k)].insert(k);

  std::set<Key> seen;
  std::size_t total = 0;
  for (const TagDelivery& d : h.deliveries) {
    EXPECT_TRUE(seen.insert(d.node).second)
        << "node " << d.node << " received the m-cast twice";
    EXPECT_EQ(std::set<Key>(d.keys.begin(), d.keys.end()), expected[d.node]);
    total += d.keys.size();
  }
  EXPECT_EQ(seen.size(), expected.size());
  EXPECT_EQ(total, targets.size());
  EXPECT_GT(h.counter("chord.net.lost"), 0u);
  EXPECT_EQ(h.counter("chord.send_failed"), 0u);
  EXPECT_EQ(h.pending_total(), 0u);
}

// App with actual state, for exercising the graceful-leave handover.
struct IntBagPayload final : overlay::Payload {
  explicit IntBagPayload(std::vector<int> i) : items(std::move(i)) {}
  MessageClass message_class() const override {
    return MessageClass::kStateTransfer;
  }
  std::vector<int> items;
};

class IntBagApp final : public overlay::OverlayApp {
 public:
  void on_deliver(Key, const PayloadPtr&) override {}
  void on_deliver_mcast(std::span<const Key>, const PayloadPtr&) override {}
  PayloadPtr export_state(Key, Key, bool remove) override {
    std::vector<int> out = state;
    if (remove) state.clear();
    return std::make_shared<IntBagPayload>(std::move(out));
  }
  void import_state(const PayloadPtr& payload) override {
    const auto* bag = dynamic_cast<const IntBagPayload*>(payload.get());
    ASSERT_NE(bag, nullptr);
    state.insert(state.end(), bag->items.begin(), bag->items.end());
  }
  std::vector<int> state;
};

TEST(ChordLossTest, GracefulLeaveHandsOverStateDespiteHeavyLoss) {
  // Regression: the leave handover (PredLeaveMsg) used to be fire-and-
  // forget, so one dropped message silently destroyed the leaver's
  // whole rendezvous state. It is now ack-eligible, and the leaver
  // lingers as a lame duck retransmitting it until acked.
  sim::Simulator sim;
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.6;
  cfg.max_retries = 20;
  chord::ChordNetwork net(sim, cfg, 13);
  for (int i = 0; i < 8; ++i) {
    net.add_node(std::string("n").append(std::to_string(i)));
  }
  net.build_static_ring();
  std::map<Key, IntBagApp> apps;
  for (Key id : net.alive_ids()) net.node(id)->set_app(&apps[id]);

  const std::vector<Key> ids = net.alive_ids();
  const Key leaver = ids[2];
  const Key heir = ids[3];
  apps[leaver].state = {1, 2, 3};
  net.leave_gracefully(leaver);
  sim.run();

  EXPECT_EQ(apps[heir].state, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(net.node(leaver)->pending_send_count(), 0u);  // drained
  EXPECT_EQ(net.registry().counter_value("chord.send_failed"), 0u);
}

TEST(ChordLossTest, RetryBudgetExhaustionCountsFailedSend) {
  chord::ChordConfig cfg;
  cfg.loss_rate = 1.0;  // black hole: nothing ever arrives
  cfg.max_retries = 3;
  ChordLossHarness h(2, cfg, 7);
  // Key owned by the peer, so the send must cross the (dead) wire.
  h.node(0).send(h.ids[1], std::make_shared<TagPayload>(1));
  h.sim.run();

  EXPECT_TRUE(h.deliveries.empty());
  EXPECT_EQ(h.counter("chord.retransmits"), 3u);
  EXPECT_EQ(h.counter("chord.send_failed"), 1u);
  EXPECT_EQ(h.counter("chord.net.lost"), 4u);  // original + 3 retries
  EXPECT_EQ(h.pending_total(), 0u);  // budget spent => entry dropped
}

TEST(ChordLossTest, ZeroLossRateKeepsReliabilityLayerDisarmed) {
  // At loss 0 the reliability machinery must be completely inert: no
  // acks, no timers, no parked sends — and therefore the retry knobs
  // must not change a single transmitted message.
  auto run = [](chord::ChordConfig cfg) {
    ChordLossHarness h(24, cfg, 8);
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
      const Key key = static_cast<Key>(rng.uniform_int(
          0, static_cast<std::int64_t>(h.net->ring().max_key())));
      h.node(static_cast<std::size_t>(rng.uniform_int(0, 23)))
          .send(key, std::make_shared<TagPayload>(i));
    }
    h.sim.run();
    EXPECT_EQ(h.counter("chord.net.lost"), 0u);
    EXPECT_EQ(h.counter("chord.retransmits"), 0u);
    EXPECT_EQ(h.counter("chord.dup_suppressed"), 0u);
    EXPECT_EQ(h.pending_total(), 0u);
    std::vector<std::pair<Key, int>> log;
    for (const TagDelivery& d : h.deliveries) log.emplace_back(d.node, d.tag);
    return std::make_pair(log, h.net->traffic().total_hops());
  };

  chord::ChordConfig plain;
  chord::ChordConfig tweaked;
  tweaked.max_retries = 50;
  tweaked.retry_base = sim::ms(1);
  const auto a = run(plain);
  const auto b = run(tweaked);
  EXPECT_EQ(a.first, b.first);    // identical deliveries, in order
  EXPECT_EQ(a.second, b.second);  // identical wire traffic
}

// ---------------------------------------------------------------------------
// Duplicate suppression: the per-link window against a seen-set
// ---------------------------------------------------------------------------

/// One arrival at a receiver: the sender and the id it stamped.
struct Arrival {
  Key from;
  std::uint64_t seq;
};

/// A seeded arrival stream from `senders`, each numbering its sends
/// 1..kIds: some ids never arrive (lost for good), most arrive in
/// order, some late (reordered behind later ids), some two or more
/// times (retransmissions whose ack was lost), and the senders' streams
/// interleave at random.
std::vector<Arrival> arrival_stream(const std::vector<Key>& senders,
                                    std::uint64_t seed) {
  constexpr std::uint64_t kIds = 400;
  Rng rng(seed);
  std::vector<std::vector<Arrival>> per_sender;
  for (Key from : senders) {
    std::vector<std::pair<double, std::uint64_t>> timed;  // (time, id)
    for (std::uint64_t seq = 1; seq <= kIds; ++seq) {
      if (rng.bernoulli(0.05)) continue;
      const double t = static_cast<double>(seq) +
                       (rng.bernoulli(0.2) ? rng.uniform_real(0, 25) : 0);
      timed.emplace_back(t, seq);
      while (rng.bernoulli(0.15)) {
        timed.emplace_back(t + rng.uniform_real(0, 40), seq);
      }
    }
    std::stable_sort(timed.begin(), timed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    per_sender.emplace_back();
    for (const auto& [_, seq] : timed) per_sender.back().push_back({from, seq});
  }
  std::vector<Arrival> out;
  std::vector<std::size_t> next(per_sender.size(), 0);
  for (std::size_t left = senders.size(); left > 0;) {
    const auto s = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(per_sender.size()) - 1));
    if (next[s] == per_sender[s].size()) continue;
    out.push_back(per_sender[s][next[s]++]);
    if (next[s] == per_sender[s].size()) --left;
  }
  return out;
}

TEST(ChordLossTest, DedupWindowMatchesASeenSet) {
  // The receiver must accept or suppress every arrival exactly as a set
  // of every (sender, id) it has processed would — the window is only a
  // compact encoding of that set.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ChordLossHarness h(5, chord::ChordConfig{}, seed);
    const Key receiver = h.ids[0];
    const std::vector<Key> senders(h.ids.begin() + 1, h.ids.end());
    std::set<std::pair<Key, std::uint64_t>> seen;
    std::map<Key, std::uint64_t> highest;
    std::uint64_t duplicates = 0;
    std::size_t step = 0;
    for (const Arrival& a : arrival_stream(senders, seed)) {
      const std::size_t before = h.deliveries.size();
      h.inject(receiver, a.from,
               overlay::NeighborMsg{std::make_shared<TagPayload>(0), a.seq});
      const bool want = seen.insert({a.from, a.seq}).second;
      ASSERT_EQ(h.deliveries.size() > before, want)
          << "seed " << seed << " step " << step << ": sender " << a.from
          << " id " << a.seq;
      duplicates += want ? 0 : 1;
      highest[a.from] = std::max(highest[a.from], a.seq);
      ++step;
    }
    h.sim.run();  // the acks reach senders that are waiting for none
    EXPECT_GT(duplicates, 100u);
    EXPECT_EQ(h.counter("chord.dup_suppressed"), duplicates);
    // The window keeps exactly the ids missing below each highest id.
    std::size_t missing = 0;
    for (const auto& [from, top] : highest) {
      for (std::uint64_t seq = 1; seq < top; ++seq) {
        missing += seen.contains({from, seq}) ? 0 : 1;
      }
    }
    EXPECT_GT(missing, 0u);
    EXPECT_EQ(h.net->node(receiver)->dedup_state_size(), missing);
  }
}

TEST(ChordLossTest, RefusedSendGivesItsIdBack) {
  // A send the network refuses never reaches the peer, so the link takes
  // its id back: the next send to that peer reuses it, and the peer's
  // window is not left with a hole that nothing can fill.
  chord::ChordConfig cfg;
  cfg.force_reliable = true;
  ChordLossHarness h(2, cfg);
  const Key a = h.ids[0];
  const Key b = h.ids[1];
  h.node(0).send_to_successor(std::make_shared<TagPayload>(0));  // id 1
  h.sim.run();
  h.net->set_partition({{a}, {b}});
  h.node(0).send_to_successor(std::make_shared<TagPayload>(1));  // refused
  h.sim.run();
  EXPECT_EQ(h.counter("chord.net.partition_refused"), 1u);
  h.net->heal_partition();
  // `a` evicted `b`; hearing from it again puts it back as successor.
  h.node(1).send_to_successor(std::make_shared<TagPayload>(2));
  h.sim.run();
  h.node(0).send_to_successor(std::make_shared<TagPayload>(3));  // id 2
  h.sim.run();
  std::vector<std::pair<Key, int>> got;
  for (const TagDelivery& d : h.deliveries) got.emplace_back(d.node, d.tag);
  const std::vector<std::pair<Key, int>> want = {{b, 0}, {a, 1}, {a, 2},
                                                 {b, 3}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(h.counter("chord.dup_suppressed"), 0u);
  EXPECT_EQ(h.net->node(b)->dedup_state_size(), 0u);
}

TEST(ChordLossTest, DedupStateStaysSmallOverALossyLink) {
  // 10 000 reliable hops from one node to the other over a link that
  // drops a fifth of the data and a fifth of the acks. A seen-set would
  // hold 10 000 ids; the window holds only the ids that never arrived,
  // and an id can only stay missing if its send exhausted its retries.
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.2;
  ChordLossHarness h(2, cfg, 4);
  constexpr int kHops = 10'000;
  for (int i = 0; i < kHops; ++i) {
    h.node(0).send_to_successor(std::make_shared<TagPayload>(i));
    if (i % 100 == 99) h.sim.run();
  }
  h.sim.run();
  const std::uint64_t failed = h.counter("chord.send_failed");
  EXPECT_LE(h.deliveries.size(), static_cast<std::size_t>(kHops));
  EXPECT_GE(h.deliveries.size() + failed, static_cast<std::size_t>(kHops));
  EXPECT_GT(h.counter("chord.dup_suppressed"), 100u);
  EXPECT_EQ(h.pending_total(), 0u);
  const std::size_t state = h.net->node(h.ids[1])->dedup_state_size();
  EXPECT_LE(state, failed);
  EXPECT_LE(state, 8u);
}

// ---------------------------------------------------------------------------
// End-to-end pub/sub under loss (and churn)
// ---------------------------------------------------------------------------

pubsub::SystemConfig lossy_config(std::size_t nodes, double loss_rate) {
  pubsub::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 3;
  cfg.chord.ring = RingParams{11};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.loss_rate = loss_rate;
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  return cfg;
}

TEST(LossIntegrationTest, StaticRingFivePercentLossIsExactlyOnce) {
  pubsub::PubSubSystem system(lossy_config(48, 0.05),
                              pubsub::Schema::uniform(3, 99'999));

  pubsub::DeliveryChecker checker;
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 19);
  workload::DriverParams dp;
  dp.max_subscriptions = 30;
  dp.max_publications = 150;
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();
  driver.run_to_completion();

  const auto report = checker.verify();
  ASSERT_GT(report.expected, 50u);
  EXPECT_TRUE(report.ok())
      << "missing=" << report.missing << " dup=" << report.duplicates
      << " spurious=" << report.spurious
      << (report.issues.empty() ? "" : "\n  " + report.issues[0]);

  const metrics::Registry& reg = system.network().registry();
  EXPECT_GT(reg.counter_value("chord.net.lost"), 0u);
  EXPECT_GT(reg.counter_value("chord.retransmits"), 0u);
  EXPECT_EQ(reg.counter_value("chord.send_failed"), 0u);
}

TEST(LossIntegrationTest, LossUnderChurnStaysExactlyOnce) {
  pubsub::PubSubSystem system(lossy_config(48, 0.05),
                              pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  pubsub::DeliveryChecker checker;
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 19);
  workload::DriverParams dp;
  dp.max_subscriptions = 30;
  dp.max_publications = 150;
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();

  workload::ChurnParams cp;
  cp.mean_interval_s = 40.0;
  cp.crash_fraction = 0.0;  // graceful only
  cp.min_nodes = 24;
  workload::ChurnDriver churn(system, cp, 21, [&driver](Key id) {
    for (const auto& sub : driver.active_subscriptions()) {
      if (sub->subscriber == id) return true;
    }
    return false;
  });
  churn.start();

  system.run_for(sim::sec(1'200));
  churn.stop();
  system.run_for(sim::sec(120));

  const auto report = checker.verify(sim::sec(10));
  ASSERT_GT(report.expected, 50u);
  EXPECT_EQ(report.missing, 0u)
      << (report.issues.empty() ? "" : report.issues[0]);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.spurious, 0u);
  EXPECT_GT(churn.events(), 10u);

  const metrics::Registry& reg = system.network().registry();
  EXPECT_GT(reg.counter_value("chord.net.lost"), 0u);
  EXPECT_GT(reg.counter_value("chord.retransmits"), 0u);
}

}  // namespace
}  // namespace cbps
