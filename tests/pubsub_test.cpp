// End-to-end tests of the CB-pub/sub layer: storage, matching,
// notification paths (immediate / buffered / collected), expiration,
// unsubscription, replication under crashes, and state handover across
// joins and leaves. Delivery correctness is checked by the
// DeliveryChecker oracle: every matching pair delivered exactly once, no
// spurious notifications.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cbps/common/rng.hpp"
#include "cbps/metrics/histogram.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/generator.hpp"

namespace cbps::pubsub {
namespace {

using Transport = PubSubConfig::Transport;

Schema small_schema() { return Schema::uniform(2, 9'999); }

SystemConfig small_config(MappingKind kind, std::size_t nodes = 24) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 7;
  cfg.chord.ring = RingParams{10};
  cfg.mapping = kind;
  return cfg;
}

// Wire a checker into a system: every notification is recorded.
void attach_checker(PubSubSystem& system, DeliveryChecker& checker) {
  system.set_notify_sink(
      [&system, &checker](Key subscriber, const Notification& n) {
        checker.on_notify(subscriber, n, system.sim().now());
      });
}

// ---------------------------------------------------------------------------
// SubscriptionStore
// ---------------------------------------------------------------------------

SubscriptionPtr store_sub(SubscriptionId id, Value lo, Value hi) {
  auto s = std::make_shared<Subscription>();
  s->id = id;
  s->subscriber = 1;
  s->constraints = {{0, {lo, hi}}};
  return s;
}

TEST(SubscriptionStoreTest, InsertDedupAndCounts) {
  SubscriptionStore store;
  EXPECT_TRUE(store.insert({store_sub(1, 0, 10), sim::kSimTimeNever, {}, false}));
  EXPECT_FALSE(store.insert({store_sub(1, 0, 10), sim::kSimTimeNever, {}, false}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.owned_size(), 1u);
  EXPECT_TRUE(store.insert({store_sub(2, 0, 10), sim::kSimTimeNever, {}, true}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.owned_size(), 1u);  // replica not counted
}

TEST(SubscriptionStoreTest, ReplicaUpgradesToOwned) {
  SubscriptionStore store;
  store.insert({store_sub(1, 0, 10), sim::kSimTimeNever, {}, true});
  EXPECT_EQ(store.owned_size(), 0u);
  store.insert({store_sub(1, 0, 10), sim::kSimTimeNever, {}, false});
  EXPECT_EQ(store.owned_size(), 1u);
  EXPECT_EQ(store.size(), 1u);
  // Owned records are never downgraded by replica inserts.
  store.insert({store_sub(1, 0, 10), sim::kSimTimeNever, {}, true});
  EXPECT_EQ(store.owned_size(), 1u);
}

TEST(SubscriptionStoreTest, ExpirySweepAndNextExpiry) {
  SubscriptionStore store;
  store.insert({store_sub(1, 0, 10), sim::sec(10), {}, false});
  store.insert({store_sub(2, 0, 10), sim::sec(5), {}, false});
  store.insert({store_sub(3, 0, 10), sim::kSimTimeNever, {}, false});
  EXPECT_EQ(store.next_expiry(), sim::sec(5));
  EXPECT_EQ(store.sweep_expired(sim::sec(5)), 1u);
  EXPECT_EQ(store.next_expiry(), sim::sec(10));
  EXPECT_EQ(store.sweep_expired(sim::sec(60)), 1u);
  EXPECT_EQ(store.next_expiry(), sim::kSimTimeNever);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SubscriptionStoreTest, RefreshUpdatesExpiryIndex) {
  SubscriptionStore store;
  store.insert({store_sub(1, 0, 10), sim::sec(5), {}, false});
  store.insert({store_sub(1, 0, 10), sim::sec(20), {}, false});
  EXPECT_EQ(store.next_expiry(), sim::sec(20));
  EXPECT_EQ(store.sweep_expired(sim::sec(10)), 0u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SubscriptionStoreTest, MatchSkipsExpired) {
  SubscriptionStore store;
  store.use_engine(MatchEngine::kBruteForce, small_schema());
  store.insert({store_sub(1, 0, 100), sim::sec(5), {}, false});
  Event e;
  e.id = 1;
  e.values = {50};
  EXPECT_EQ(store.match(e, sim::sec(1)).size(), 1u);
  EXPECT_EQ(store.match(e, sim::sec(5)).size(), 0u);  // expired, unswept
}

TEST(SubscriptionStoreTest, PeakTracksHighWaterMark) {
  SubscriptionStore store;
  store.insert({store_sub(1, 0, 10), sim::kSimTimeNever, {}, false});
  store.insert({store_sub(2, 0, 10), sim::kSimTimeNever, {}, false});
  store.remove(1);
  store.remove(2);
  EXPECT_EQ(store.owned_size(), 0u);
  EXPECT_EQ(store.peak_owned_size(), 2u);
}

// ---------------------------------------------------------------------------
// Basic pub/sub flow
// ---------------------------------------------------------------------------

TEST(PubSubBasicTest, SubscriberReceivesMatchingEvent) {
  PubSubSystem system(small_config(MappingKind::kSelectiveAttribute),
                      small_schema());
  std::vector<Notification> received;
  system.set_notify_sink([&](Key, const Notification& n) {
    received.push_back(n);
  });

  auto sub = system.subscribe(3, {{0, {100, 200}}, {1, {0, 9'999}}});
  system.run_for(sim::sec(5));
  system.publish(10, {150, 5'000});
  system.quiesce();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].subscription, sub->id);
  EXPECT_EQ(received[0].event->values, (std::vector<Value>{150, 5'000}));
}

TEST(PubSubBasicTest, NonMatchingEventIsSilent) {
  PubSubSystem system(small_config(MappingKind::kSelectiveAttribute),
                      small_schema());
  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });
  system.subscribe(3, {{0, {100, 200}}});
  system.run_for(sim::sec(5));
  system.publish(10, {201, 0});
  system.publish(11, {99, 9'999});
  system.quiesce();
  EXPECT_EQ(count, 0u);
}

TEST(PubSubBasicTest, MultipleSubscribersAllNotified) {
  PubSubSystem system(small_config(MappingKind::kKeySpaceSplit),
                      small_schema());
  std::vector<Key> notified;
  system.set_notify_sink([&](Key subscriber, const Notification&) {
    notified.push_back(subscriber);
  });
  for (std::size_t i = 0; i < 6; ++i) {
    system.subscribe(i, {{0, {1'000, 2'000}}});
  }
  system.run_for(sim::sec(5));
  system.publish(20, {1'500, 42});
  system.quiesce();
  EXPECT_EQ(notified.size(), 6u);
}

TEST(PubSubBasicTest, UnsubscribeStopsNotifications) {
  PubSubSystem system(small_config(MappingKind::kSelectiveAttribute),
                      small_schema());
  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });
  auto sub = system.subscribe(5, {{0, {0, 500}}});
  system.run_for(sim::sec(5));
  system.publish(1, {250, 1});
  system.run_for(sim::sec(5));
  EXPECT_EQ(count, 1u);
  system.unsubscribe(5, sub->id);
  system.run_for(sim::sec(5));
  system.publish(2, {250, 2});
  system.quiesce();
  EXPECT_EQ(count, 1u);
}

TEST(PubSubBasicTest, ExpirationActsAsUnsubscription) {
  PubSubSystem system(small_config(MappingKind::kSelectiveAttribute),
                      small_schema());
  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });
  system.subscribe(5, {{0, {0, 500}}}, /*ttl=*/sim::sec(30));
  system.run_for(sim::sec(5));
  system.publish(1, {100, 1});
  system.run_for(sim::sec(60));  // subscription expires at t=30
  EXPECT_EQ(count, 1u);
  system.publish(2, {100, 2});
  system.quiesce();
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(system.storage_stats().total_owned, 0u);
}

TEST(PubSubBasicTest, SubscriberOnOwnRendezvousNode) {
  // The subscriber can itself be a rendezvous for its subscription.
  PubSubSystem system(small_config(MappingKind::kAttributeSplit, 4),
                      small_schema());
  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });
  system.subscribe(0, {{0, {0, 9'999}}, {1, {0, 9'999}}});  // everything
  system.run_for(sim::sec(5));
  system.publish(0, {1, 1});
  system.quiesce();
  EXPECT_EQ(count, 1u);
}

// ---------------------------------------------------------------------------
// Randomized end-to-end correctness across the full config matrix
// ---------------------------------------------------------------------------

struct E2EParam {
  MappingKind kind;
  Transport sub_transport;
  Transport pub_transport;
  bool buffering;
  bool collecting;
  const char* name;
  MatchEngine engine = MatchEngine::kBruteForce;
};

class PubSubEndToEndTest : public ::testing::TestWithParam<E2EParam> {};

TEST_P(PubSubEndToEndTest, RandomWorkloadDeliversExactlyOnce) {
  const E2EParam p = GetParam();
  SystemConfig cfg;
  cfg.nodes = 32;
  cfg.seed = 99;
  cfg.chord.ring = RingParams{12};
  cfg.mapping = p.kind;
  cfg.pubsub.sub_transport = p.sub_transport;
  cfg.pubsub.pub_transport = p.pub_transport;
  cfg.pubsub.buffering = p.buffering;
  cfg.pubsub.collecting = p.collecting;
  cfg.pubsub.buffer_period = sim::sec(2);
  cfg.pubsub.match_engine = p.engine;

  const Schema schema = Schema::uniform(3, 99'999);
  PubSubSystem system(cfg, schema);
  DeliveryChecker checker;
  attach_checker(system, checker);

  workload::WorkloadParams wp;
  wp.matching_probability = 0.7;
  wp.nonselective_range_frac = 0.10;  // wide ranges -> multi-key SK
  workload::WorkloadGenerator gen(schema, wp, 1234);

  Rng& rng = gen.rng();
  // Interleave subscriptions and publications, checker-tracked.
  for (int round = 0; round < 30; ++round) {
    const auto node = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(system.node_count()) - 1));
    auto sub = system.subscribe(node, gen.make_constraints());
    checker.on_subscribe(sub, system.sim().now(), sim::kSimTimeNever);
    system.run_for(sim::sec(3));

    std::vector<SubscriptionPtr> active;
    active.push_back(sub);
    for (int e = 0; e < 3; ++e) {
      const auto pub_node = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(system.node_count()) - 1));
      const std::vector<Value> values = gen.make_event_values(active);
      const EventId id = system.publish(pub_node, values);
      auto event = std::make_shared<Event>();
      event->id = id;
      event->values = values;
      checker.on_publish(std::move(event), system.sim().now());
      system.run_for(sim::sec(1));
    }
  }
  system.quiesce();

  const DeliveryChecker::Report report = checker.verify();
  EXPECT_GT(report.expected, 0u);
  EXPECT_TRUE(report.ok()) << p.name << ": missing=" << report.missing
                           << " dup=" << report.duplicates
                           << " spurious=" << report.spurious
                           << " wrong=" << report.wrong_subscriber
                           << (report.issues.empty() ? ""
                                                     : "\n  " +
                                                           report.issues[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PubSubEndToEndTest,
    ::testing::Values(
        E2EParam{MappingKind::kAttributeSplit, Transport::kUnicast,
                 Transport::kUnicast, false, false, "m1_unicast"},
        E2EParam{MappingKind::kAttributeSplit, Transport::kMulticast,
                 Transport::kMulticast, false, false, "m1_mcast"},
        E2EParam{MappingKind::kAttributeSplit, Transport::kChain,
                 Transport::kUnicast, false, false, "m1_chain"},
        E2EParam{MappingKind::kKeySpaceSplit, Transport::kUnicast,
                 Transport::kUnicast, false, false, "m2_unicast"},
        E2EParam{MappingKind::kKeySpaceSplit, Transport::kMulticast,
                 Transport::kMulticast, false, false, "m2_mcast"},
        E2EParam{MappingKind::kSelectiveAttribute, Transport::kUnicast,
                 Transport::kUnicast, false, false, "m3_unicast"},
        E2EParam{MappingKind::kSelectiveAttribute, Transport::kMulticast,
                 Transport::kMulticast, false, false, "m3_mcast"},
        E2EParam{MappingKind::kSelectiveAttribute, Transport::kUnicast,
                 Transport::kUnicast, true, false, "m3_buffering"},
        E2EParam{MappingKind::kSelectiveAttribute, Transport::kUnicast,
                 Transport::kUnicast, true, true, "m3_buf_collect"},
        E2EParam{MappingKind::kAttributeSplit, Transport::kMulticast,
                 Transport::kUnicast, true, true, "m1_mcast_buf_collect"},
        E2EParam{MappingKind::kKeySpaceSplit, Transport::kUnicast,
                 Transport::kUnicast, true, false, "m2_buffering"},
        E2EParam{MappingKind::kSelectiveAttribute, Transport::kMulticast,
                 Transport::kMulticast, false, false, "m3_counting_index",
                 MatchEngine::kCountingIndex},
        E2EParam{MappingKind::kAttributeSplit, Transport::kUnicast,
                 Transport::kUnicast, true, true,
                 "m1_counting_buf_collect", MatchEngine::kCountingIndex}),
    [](const ::testing::TestParamInfo<E2EParam>& info) {
      return info.param.name;
    });

TEST(PubSubBasicTest, DisjunctionTreatedAsSeparateSubscriptions) {
  PubSubSystem system(small_config(MappingKind::kSelectiveAttribute),
                      small_schema());
  // Keyed by publishing event id: inter-publication notification order
  // depends on latency draws and is not part of the contract.
  std::map<EventId, std::set<SubscriptionId>> notified;
  system.set_notify_sink([&](Key, const Notification& n) {
    notified[n.event->id].insert(n.subscription);
  });
  // (a0 in [0,100]) OR (a0 in [5000,5100]) OR (a1 in [9000,9999]).
  const auto subs = system.subscribe_disjunction(
      4, {{{0, {0, 100}}}, {{0, {5'000, 5'100}}}, {{1, {9'000, 9'999}}}});
  ASSERT_EQ(subs.size(), 3u);
  system.run_for(sim::sec(5));

  const EventId e1 = system.publish(7, {50, 0});        // clause 1 only
  const EventId e2 = system.publish(8, {5'050, 9'500}); // clauses 2 and 3
  const EventId e3 = system.publish(9, {3'000, 0});     // none
  system.quiesce();
  // One notification per matching clause, per the paper's semantics.
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_EQ(notified[e1], (std::set<SubscriptionId>{subs[0]->id}));
  EXPECT_EQ(notified[e2],
            (std::set<SubscriptionId>{subs[1]->id, subs[2]->id}));
  EXPECT_FALSE(notified.contains(e3));
}

TEST(PubSubSystemTest, FanoutHistogramHasOneSamplePerPublish) {
  for (const MappingKind kind :
       {MappingKind::kAttributeSplit, MappingKind::kSelectiveAttribute}) {
    PubSubSystem system(small_config(kind), small_schema());
    Rng rng(3);
    constexpr std::size_t kPubs = 40;
    double keys = 0;
    for (std::size_t i = 0; i < kPubs; ++i) {
      Event e;
      e.values = {rng.uniform_int(0, 9'999), rng.uniform_int(0, 9'999)};
      e.id = system.publish(i % system.node_count(), e.values);
      keys += static_cast<double>(system.mapping().event_keys(e).size());
    }
    system.quiesce();
    const metrics::Histogram fanout = system.fanout_histogram();
    EXPECT_EQ(fanout.count(), kPubs) << to_string(kind);
    EXPECT_GE(keys, static_cast<double>(kPubs)) << to_string(kind);
    EXPECT_EQ(fanout.sum(), keys) << to_string(kind);
  }
}

TEST(SchemaTest, AttributeIndexLookup) {
  const Schema schema({{"price", {0, 100}}, {"volume", {0, 10}}});
  EXPECT_EQ(schema.attribute_index("price"), std::optional<std::size_t>(0));
  EXPECT_EQ(schema.attribute_index("volume"),
            std::optional<std::size_t>(1));
  EXPECT_FALSE(schema.attribute_index("nope").has_value());
}

TEST(PubSubRotationTest, RotatedMappingDeliversEndToEnd) {
  // The §4.2 "nearly static" epoch offset, live: the system works
  // identically with a rotated key space — only the rendezvous placement
  // moves.
  SystemConfig cfg = small_config(MappingKind::kSelectiveAttribute);
  cfg.mapping_options.rotation = 371;
  PubSubSystem system(cfg, small_schema());
  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });
  system.subscribe(3, {{0, {100, 200}}});
  system.run_for(sim::sec(5));
  system.publish(10, {150, 5'000});
  system.publish(11, {500, 5'000});  // no match
  system.quiesce();
  EXPECT_EQ(count, 1u);
}

// ---------------------------------------------------------------------------
// Buffering / collecting behavior
// ---------------------------------------------------------------------------

TEST(PubSubBufferingTest, NotificationsAreBatchedPerSubscriber) {
  SystemConfig cfg = small_config(MappingKind::kSelectiveAttribute);
  cfg.pubsub.buffering = true;
  cfg.pubsub.buffer_period = sim::sec(10);
  PubSubSystem system(cfg, small_schema());

  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });
  system.subscribe(2, {{0, {0, 200}}});
  system.run_for(sim::sec(5));
  // Three matching events in a burst: one batch, three notifications.
  system.publish(9, {10, 0});
  system.publish(9, {20, 0});
  system.publish(9, {30, 0});
  system.run_for(sim::sec(2));
  EXPECT_EQ(count, 0u);  // still buffered
  system.quiesce();
  EXPECT_EQ(count, 3u);

  // Exactly one NotifyMsg batch was sent by the rendezvous.
  std::uint64_t batches = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    batches += system.pubsub_node(i).notify_batches_sent();
  }
  EXPECT_EQ(batches, 1u);
}

TEST(PubSubBufferingTest, DelayStatReflectsBufferingCost) {
  auto run_delay = [](bool buffering) {
    SystemConfig cfg = small_config(MappingKind::kSelectiveAttribute);
    cfg.pubsub.buffering = buffering;
    cfg.pubsub.buffer_period = sim::sec(10);
    PubSubSystem system(cfg, small_schema());
    system.subscribe(2, {{0, {0, 500}}});
    system.run_for(sim::sec(5));
    system.publish(9, {100, 0});
    system.quiesce();
    return system.delay_histogram();
  };
  const metrics::Histogram immediate = run_delay(false);
  const metrics::Histogram buffered = run_delay(true);
  ASSERT_EQ(immediate.count(), 1u);
  ASSERT_EQ(buffered.count(), 1u);
  // Immediate: a couple of 50 ms hops. Buffered: + the 10 s period.
  EXPECT_LT(immediate.mean(), 1.0);
  EXPECT_GT(buffered.mean(), 10.0);
}

TEST(PubSubBufferingTest, BufferingDelaysButDelivers) {
  SystemConfig cfg = small_config(MappingKind::kSelectiveAttribute);
  cfg.pubsub.buffering = true;
  cfg.pubsub.buffer_period = sim::sec(7);
  PubSubSystem system(cfg, small_schema());
  sim::SimTime delivered_at = 0;
  system.set_notify_sink([&](Key, const Notification&) {
    delivered_at = system.sim().now();
  });
  system.subscribe(1, {{0, {500, 600}}});
  system.run_for(sim::sec(5));
  const sim::SimTime published_at = system.sim().now();
  system.publish(7, {550, 1});
  system.quiesce();
  EXPECT_GE(delivered_at, published_at + sim::sec(7));
}

TEST(PubSubCollectingTest, CollectTrafficFlowsAndAggregates) {
  // A wide single-attribute subscription spans a long key range; with
  // collecting on, matches from non-agent rendezvous travel as kCollect
  // neighbor hops and the agent emits the kNotify messages.
  SystemConfig cfg = small_config(MappingKind::kSelectiveAttribute, 32);
  cfg.pubsub.collecting = true;
  cfg.pubsub.buffer_period = sim::sec(2);
  PubSubSystem system(cfg, small_schema());

  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });
  // Range spanning half the domain -> half the ring -> many rendezvous.
  system.subscribe(3, {{0, {0, 5'000}}});
  system.run_for(sim::sec(5));
  for (int i = 0; i < 10; ++i) {
    system.publish(static_cast<std::size_t>(i), {i * 500, 7});
  }
  system.quiesce();
  EXPECT_EQ(count, 10u);
  EXPECT_GT(system.traffic().hops(overlay::MessageClass::kCollect), 0u);
}

// ---------------------------------------------------------------------------
// Replication & crash resilience (§4.1)
// ---------------------------------------------------------------------------

TEST(PubSubReplicationTest, CrashedRendezvousStateSurvives) {
  SystemConfig cfg = small_config(MappingKind::kKeySpaceSplit, 24);
  cfg.pubsub.replication_factor = 2;
  cfg.chord.stabilize_period = sim::sec(5);
  PubSubSystem system(cfg, small_schema());
  system.network().start_maintenance_all();

  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });

  // Both attributes tightly constrained: SK is a couple of keys held by
  // one or two nodes, so their replicas land on surviving successors.
  auto sub = system.subscribe(2, {{0, {4'000, 4'200}}, {1, {5'000, 5'100}}});
  system.run_for(sim::sec(10));

  // Find and crash the rendezvous node(s) storing the subscription —
  // but not the subscriber itself.
  std::vector<Key> to_crash;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const auto* rec = system.pubsub_node(i).store().find(sub->id);
    if (rec != nullptr && !rec->replica &&
        system.node_id(i) != sub->subscriber) {
      to_crash.push_back(system.node_id(i));
    }
  }
  ASSERT_FALSE(to_crash.empty());
  for (Key id : to_crash) system.network().crash(id);
  system.run_for(sim::sec(120));  // let the ring repair

  system.publish(5, {4'100, 5'050});
  system.run_for(sim::sec(30));
  EXPECT_EQ(count, 1u) << "replica should answer after the crash";
}

TEST(PubSubReplicationTest, UnsubscribeRemovesReplicas) {
  SystemConfig cfg = small_config(MappingKind::kKeySpaceSplit, 16);
  cfg.pubsub.replication_factor = 2;
  PubSubSystem system(cfg, small_schema());
  auto sub = system.subscribe(1, {{0, {100, 300}}, {1, {0, 9'999}}});
  system.run_for(sim::sec(10));
  EXPECT_GT(system.storage_stats().total_replicas, 0u);
  system.unsubscribe(1, sub->id);
  system.run_for(sim::sec(10));
  EXPECT_EQ(system.storage_stats().total_owned, 0u);
  EXPECT_EQ(system.storage_stats().total_replicas, 0u);
}

// ---------------------------------------------------------------------------
// State handover on join/leave
// ---------------------------------------------------------------------------

TEST(PubSubChurnTest, GracefulLeaveKeepsDelivering) {
  SystemConfig cfg = small_config(MappingKind::kSelectiveAttribute, 24);
  cfg.chord.stabilize_period = sim::sec(5);
  PubSubSystem system(cfg, small_schema());
  system.network().start_maintenance_all();

  std::uint64_t count = 0;
  system.set_notify_sink([&](Key, const Notification&) { ++count; });
  auto sub = system.subscribe(2, {{0, {7'000, 7'400}}});
  system.run_for(sim::sec(10));

  // Gracefully remove every rendezvous holding the subscription (except
  // the subscriber node itself).
  std::vector<Key> leavers;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const auto* rec = system.pubsub_node(i).store().find(sub->id);
    if (rec != nullptr && system.node_id(i) != sub->subscriber) {
      leavers.push_back(system.node_id(i));
    }
  }
  ASSERT_FALSE(leavers.empty());
  for (Key id : leavers) {
    system.network().leave_gracefully(id);
    system.run_for(sim::sec(30));
  }

  system.publish(5, {7'200, 123});
  system.run_for(sim::sec(30));
  EXPECT_EQ(count, 1u) << "state must have moved to the successors";
}

}  // namespace
}  // namespace cbps::pubsub
