// Tests for the fault-scenario engine: Gilbert–Elliott bursty loss,
// FaultScript parsing, adaptive (Jacobson/Karn) retransmission timeouts,
// scripted partition/heal with the post-heal invariant auditor, the
// ghost-delivery regression, membership-guard death tests, the `churn`
// directive against a hand-wired ChurnDriver, and the determinism of
// churn + fault runs across sweep worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/pubsub/audit.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "sweep.hpp"

namespace cbps {
namespace {

using workload::FaultDirective;
using workload::FaultScript;
using workload::FaultScriptRunner;

// ---------------------------------------------------------------------------
// Gilbert–Elliott loss model
// ---------------------------------------------------------------------------

TEST(GilbertElliottLossTest, StationaryStatisticsMatchTheory) {
  const double p = 0.05, q = 0.25, good = 0.01, bad = 0.8;
  sim::GilbertElliottLoss loss(p, q, good, bad);
  EXPECT_DOUBLE_EQ(loss.stationary_bad(), p / (p + q));
  EXPECT_DOUBLE_EQ(loss.mean_rate(),
                   loss.stationary_bad() * bad +
                       (1.0 - loss.stationary_bad()) * good);

  Rng rng(31);
  const int kDraws = 300'000;
  int dropped = 0;
  for (int i = 0; i < kDraws; ++i) dropped += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(dropped) / kDraws, loss.mean_rate(),
              0.01);
}

TEST(GilbertElliottLossTest, DropsAreBurstyComparedToUniform) {
  // With bad_loss = 1, a drop run lasts as long as the Bad state:
  // geometric with mean 1/q messages. A uniform model at the same mean
  // rate produces runs of mean 1/(1-rate) ~= 1.
  const double p = 0.01, q = 0.25;
  sim::GilbertElliottLoss ge(p, q, 0.0, 1.0);
  sim::UniformLoss uniform(ge.mean_rate());

  const auto mean_drop_run = [](sim::LossModel& m, std::uint64_t seed) {
    Rng rng(seed);
    int runs = 0, drops = 0;
    bool in_run = false;
    for (int i = 0; i < 300'000; ++i) {
      if (m.drop(rng)) {
        ++drops;
        if (!in_run) ++runs;
        in_run = true;
      } else {
        in_run = false;
      }
    }
    return runs == 0 ? 0.0 : static_cast<double>(drops) / runs;
  };

  const double ge_run = mean_drop_run(ge, 33);
  const double uniform_run = mean_drop_run(uniform, 34);
  EXPECT_NEAR(ge_run, 1.0 / q, 1.0);
  EXPECT_LT(uniform_run, 1.5);
  EXPECT_GT(ge_run, 2.0 * uniform_run);
}

// ---------------------------------------------------------------------------
// FaultScript parsing
// ---------------------------------------------------------------------------

TEST(FaultScriptTest, ParsesEveryDirectiveKind) {
  const char* text =
      "# robustness scenario\n"
      "partition at=10 heal=40 frac=0.4\n"
      "loss at=5 until=35 model=ge p=0.05 q=0.25 good=0.01 bad=0.8\n"
      "slow at=10 until=50 nodes=3 factor=8; crash_burst at=20 count=5 "
      "correlation=0.7\n"
      "churn at=5 until=90 interval=12.5 crash=1\n"
      "churn at=7 until=9\n";
  std::string error;
  const auto script = FaultScript::parse(text, &error);
  ASSERT_TRUE(script.has_value()) << error;
  ASSERT_EQ(script->directives.size(), 6u);

  const FaultDirective& part = script->directives[0];
  EXPECT_EQ(part.kind, FaultDirective::Kind::kPartition);
  EXPECT_EQ(part.at, sim::sec(10));
  EXPECT_EQ(part.until, sim::sec(40));
  EXPECT_DOUBLE_EQ(part.frac, 0.4);

  const FaultDirective& loss = script->directives[1];
  EXPECT_EQ(loss.kind, FaultDirective::Kind::kLoss);
  EXPECT_EQ(loss.loss_kind, FaultDirective::LossKind::kGilbertElliott);
  EXPECT_DOUBLE_EQ(loss.ge_p, 0.05);
  EXPECT_DOUBLE_EQ(loss.ge_q, 0.25);
  EXPECT_DOUBLE_EQ(loss.ge_good, 0.01);
  EXPECT_DOUBLE_EQ(loss.ge_bad, 0.8);

  const FaultDirective& slow = script->directives[2];
  EXPECT_EQ(slow.kind, FaultDirective::Kind::kSlow);
  EXPECT_EQ(slow.nodes, 3u);
  EXPECT_DOUBLE_EQ(slow.factor, 8.0);

  const FaultDirective& burst = script->directives[3];
  EXPECT_EQ(burst.kind, FaultDirective::Kind::kCrashBurst);
  EXPECT_EQ(burst.count, 5u);
  EXPECT_DOUBLE_EQ(burst.correlation, 0.7);
  EXPECT_EQ(burst.until, sim::kSimTimeNever);

  const FaultDirective& churn = script->directives[4];
  EXPECT_EQ(churn.kind, FaultDirective::Kind::kChurn);
  EXPECT_EQ(churn.at, sim::sec(5));
  EXPECT_EQ(churn.until, sim::sec(90));
  EXPECT_DOUBLE_EQ(churn.churn.mean_interval_s, 12.5);
  EXPECT_DOUBLE_EQ(churn.churn.crash_fraction, 1.0);

  // The join fraction is always ChurnParams'; crash defaults to it too.
  EXPECT_DOUBLE_EQ(churn.churn.join_fraction,
                   workload::ChurnParams{}.join_fraction);
  const FaultDirective& plain = script->directives[5];
  EXPECT_EQ(plain.kind, FaultDirective::Kind::kChurn);
  EXPECT_DOUBLE_EQ(plain.churn.crash_fraction,
                   workload::ChurnParams{}.crash_fraction);
}

TEST(FaultScriptTest, EmptyAndCommentOnlyInputsParseToEmptyScripts) {
  EXPECT_TRUE(FaultScript::parse("")->empty());
  EXPECT_TRUE(FaultScript::parse("  # nothing\n\n;;\n")->empty());
}

TEST(FaultScriptTest, RejectsMalformedInput) {
  const char* bad_inputs[] = {
      "explode at=3",                  // unknown directive
      "partition heal=40 frac=0.4",    // missing at
      "partition at=50 heal=40",       // heal before start
      "loss at=0 model=weird",         // unknown loss model
      "loss at=0 rate=1.5",            // probability out of range
      "partition at=1 foo=2",          // unknown key
      "partition at=1 frac",           // not key=value
      "slow at=2 factor=0.5",          // slowdown below 1 is a speedup
      "crash_burst at=1 count=0",      // empty burst
      "partition at=1 frac=1.0",       // cutting everyone is no partition
      "churn at=1 interval=10",        // churn without an end
      "churn at=1 until=9 interval=0",     // no mean inter-arrival
      "churn at=1 until=9 interval=-3",
      "churn at=1 until=9 interval=inf",
      "churn at=1 until=9 interval=1e-9",  // waits round to 0 us
      "churn at=1 until=9 join=0.5",       // the join fraction is fixed
      "churn at=1 until=9 crash=2",        // a probability
      "churn at=1 until=9 crash=-0.1",
      "churn at=1 until=9 crash=nan",
      // Values no SimTime or size_t holds (their casts are undefined).
      "crash_burst at=1e300 count=1",
      "loss at=inf rate=0.1",
      "loss at=nan rate=0.1",
      "churn at=1 until=1e300",
      "churn at=1 until=9 interval=1e300",
      // Past 10^9 s: the runner's follow-ups would wrap the clock.
      "partition at=1 heal=18446744073709 frac=0.3",
      "crash_burst at=1e10 count=1",
      "loss at=1 until=2e9 rate=0.1",
      "slow at=1 until=50 nodes=2 factor=inf",
      "slow at=1 until=50 nodes=2 factor=1e300",
      "slow at=1 until=50 nodes=1e30",
      "crash_burst at=1 count=1e30",
  };
  for (const char* text : bad_inputs) {
    std::string error;
    EXPECT_FALSE(FaultScript::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(FaultScriptTest, ReliableTransportOnlyWhenMessagesCanBeLost) {
  EXPECT_FALSE(FaultScript::parse("slow at=1 nodes=2 factor=4")
                   ->needs_reliable_transport());
  // Churn crashes cost rendezvous state, not messages.
  EXPECT_FALSE(FaultScript::parse("churn at=1 until=9 crash=1")
                   ->needs_reliable_transport());
  EXPECT_TRUE(FaultScript::parse("partition at=1 heal=5 frac=0.3")
                  ->needs_reliable_transport());
  EXPECT_TRUE(FaultScript::parse("loss at=1 rate=0.1")
                  ->needs_reliable_transport());
  EXPECT_TRUE(FaultScript::parse("crash_burst at=1 count=2")
                  ->needs_reliable_transport());
}

TEST(FaultScriptTest, AllClearTracksTheLatestFault) {
  EXPECT_EQ(FaultScript{}.all_clear_at(), 0u);
  const auto script = FaultScript::parse(
      "partition at=10 heal=40\n"
      "slow at=50 until=60 nodes=1\n"
      "crash_burst at=100 count=2\n");  // one-shot: clears at its start
  ASSERT_TRUE(script.has_value());
  EXPECT_EQ(script->all_clear_at(), sim::sec(100));
  // A persistent fault (no until) counts from its start; nothing later
  // ever clears it.
  EXPECT_EQ(FaultScript::parse("loss at=30 rate=0.1")->all_clear_at(),
            sim::sec(30));
  // Churn clears when it stops.
  EXPECT_EQ(FaultScript::parse("crash_burst at=100 count=2\n"
                               "churn at=20 until=150 interval=10")
                ->all_clear_at(),
            sim::sec(150));
}

// ---------------------------------------------------------------------------
// Adaptive retransmission (Jacobson/Karn RTO)
// ---------------------------------------------------------------------------

struct PingPayload final : overlay::Payload {
  overlay::MessageClass message_class() const override {
    return overlay::MessageClass::kPublish;
  }
};

class NullApp final : public overlay::OverlayApp {
 public:
  void on_deliver(Key, const overlay::PayloadPtr&) override { ++delivered; }
  void on_deliver_mcast(std::span<const Key>,
                        const overlay::PayloadPtr&) override {}
  overlay::PayloadPtr export_state(Key, Key, bool) override {
    return nullptr;
  }
  void import_state(const overlay::PayloadPtr&) override {}
  int delivered = 0;
};

struct RtoHarness {
  explicit RtoHarness(chord::ChordConfig cfg) {
    net = std::make_unique<chord::ChordNetwork>(sim, cfg, 17);
    net->add_node("a");
    net->add_node("b");
    net->build_static_ring();
    for (Key id : net->alive_ids()) net->node(id)->set_app(&app);
  }

  sim::Simulator sim;
  std::unique_ptr<chord::ChordNetwork> net;
  NullApp app;
};

TEST(AdaptiveRtoTest, ConvergesFromRetryBaseToTheLinkRtt) {
  chord::ChordConfig cfg;
  cfg.force_reliable = true;  // lossless, but acked: RTT samples flow
  RtoHarness h(cfg);
  const std::vector<Key> ids = h.net->alive_ids();

  // No traffic yet: the estimator has no sample, so the configured
  // retry_base is the timeout.
  EXPECT_EQ(h.net->node(ids[0])->current_rto(ids[1]), cfg.retry_base);

  // The default wire is a fixed 50 ms each way, so every clean sample is
  // a 100 ms RTT; SRTT locks to it and RTTVAR decays to ~0. The RTO must
  // leave retry_base and settle just above the true RTT (clamped below
  // by kRtoMin).
  for (int i = 0; i < 20; ++i) {
    h.net->node(ids[0])->send(ids[1], std::make_shared<PingPayload>());
    h.sim.run();
  }
  const sim::SimTime rto = h.net->node(ids[0])->current_rto(ids[1]);
  EXPECT_NE(rto, cfg.retry_base);
  EXPECT_GE(rto, chord::ChordNode::kRtoMin);
  EXPECT_LT(rto, sim::ms(150));
  EXPECT_EQ(h.app.delivered, 20);
}

TEST(AdaptiveRtoTest, KarnRuleIgnoresAcksOfRetransmittedSends) {
  // Drop exactly the first transmission: the message is delivered by its
  // retransmit, whose ack is ambiguous (which copy does it answer?), so
  // it must NOT feed the estimator — the RTO stays at retry_base.
  // Clones (the per-sender channels) share the counter so exactly the
  // first N transmissions anywhere are dropped, not N per sender.
  struct DropFirstN final : sim::LossModel {
    explicit DropFirstN(int n) : left(std::make_shared<int>(n)) {}
    bool drop(Rng&) override { return (*left)-- > 0; }
    std::unique_ptr<sim::LossModel> clone() const override {
      auto copy = std::make_unique<DropFirstN>(0);
      copy->left = left;
      return copy;
    }
    std::shared_ptr<int> left;
  };

  chord::ChordConfig cfg;
  cfg.force_reliable = true;
  RtoHarness h(cfg);
  const std::vector<Key> ids = h.net->alive_ids();
  h.net->set_loss_model(std::make_unique<DropFirstN>(1));

  h.net->node(ids[0])->send(ids[1], std::make_shared<PingPayload>());
  h.sim.run();

  EXPECT_EQ(h.app.delivered, 1);
  EXPECT_EQ(h.net->registry().counter_value("chord.retransmits"), 1u);
  EXPECT_EQ(h.net->node(ids[0])->current_rto(ids[1]), cfg.retry_base);
}

// ---------------------------------------------------------------------------
// Scripted partition / heal + invariant audit
// ---------------------------------------------------------------------------

pubsub::SystemConfig fault_config(std::size_t nodes,
                                  const FaultScript& script,
                                  std::size_t replication = 0) {
  pubsub::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 5;
  cfg.chord.ring = RingParams{11};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.force_reliable = script.needs_reliable_transport();
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.replication_factor = replication;
  return cfg;
}

TEST(FaultScenarioTest, PartitionSplitsTheRingAndHealRemergesIt) {
  const auto script = FaultScript::parse("partition at=20 heal=120 frac=0.4");
  ASSERT_TRUE(script.has_value());
  pubsub::PubSubSystem system(fault_config(32, *script),
                              pubsub::Schema::uniform(2, 999));
  system.network().start_maintenance_all();
  FaultScriptRunner runner(system, *script, 5);
  runner.start();

  // Mid-partition the two arcs have stabilized into separate sub-rings,
  // both of which disagree with the global membership oracle.
  system.run_for(sim::sec(80));
  EXPECT_EQ(runner.partitions_applied(), 1u);
  EXPECT_FALSE(pubsub::audit_ring(system.network()).ok());

  // After the heal, remembered-contact probing and stabilization must
  // re-merge the arcs into one oracle-consistent ring.
  system.run_for(sim::sec(50));  // now 10 s past the heal
  for (int i = 0; i < 40 && !pubsub::audit_ring(system.network()).ok();
       ++i) {
    system.run_for(sim::sec(10));
  }
  const pubsub::RingAuditReport report = pubsub::audit_ring(system.network());
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? ""
                                                     : report.issues[0]);
  EXPECT_EQ(report.nodes_audited, 32u);
}

TEST(FaultScenarioTest, PostHealDeliveryIsCompleteAndAuditClean) {
  // The acceptance scenario: subscribe (some mid-partition), cut 40% of
  // the ring off for 200 s while publishing through it, heal, and
  // require a clean system audit plus a post-heal delivery ratio of 1
  // with bounded duplicates.
  const auto script = FaultScript::parse("partition at=100 heal=300 frac=0.4");
  ASSERT_TRUE(script.has_value());
  pubsub::PubSubSystem system(fault_config(48, *script, /*replication=*/2),
                              pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  pubsub::DeliveryChecker checker;
  FaultScriptRunner runner(system, *script, 5);
  runner.set_delivery_checker(&checker);
  runner.start();

  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 19);
  workload::DriverParams dp;
  dp.max_subscriptions = 30;
  dp.max_publications = 120;
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();

  while (!driver.finished()) system.run_for(sim::sec(60));
  system.run_for(sim::sec(120));
  system.network().stop_maintenance_all();
  system.quiesce();

  const pubsub::SystemAuditReport audit = pubsub::audit_system(system);
  EXPECT_TRUE(audit.ok()) << (audit.issues.empty() ? "" : audit.issues[0]);

  // Post-heal window: publications after the script's last fault cleared
  // plus a few stabilization rounds must all deliver, exactly once.
  const sim::SimTime window =
      script->all_clear_at() + 8 * system.config().chord.stabilize_period;
  const auto report = checker.verify(sim::sec(15), window);
  ASSERT_GT(report.expected, 20u);
  EXPECT_EQ(report.missing, 0u)
      << (report.issues.empty() ? "" : report.issues[0]);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.spurious, 0u);
}

// ---------------------------------------------------------------------------
// Ghost-delivery regression
// ---------------------------------------------------------------------------

TEST(FaultScenarioTest, CrashedSubscriberReceivesNoGhostNotifications) {
  // Regression: a crashed rendezvous with buffering enabled used to keep
  // flushing its buffered notifications, so a subscriber could hear from
  // beyond the grave. The pub/sub layer is halted on crash; nothing may
  // surface at the dead node after the crash instant.
  pubsub::SystemConfig cfg;
  cfg.nodes = 24;
  cfg.seed = 7;
  cfg.chord.ring = RingParams{11};
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.buffering = true;
  cfg.pubsub.buffer_period = sim::sec(5);
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(2, 999));

  pubsub::DeliveryChecker checker;
  struct SinkEntry {
    Key subscriber;
    sim::SimTime when;
  };
  std::vector<SinkEntry> sink;
  system.set_notify_sink([&](Key subscriber, const pubsub::Notification& n) {
    sink.push_back({subscriber, system.sim().now()});
    checker.on_notify(subscriber, n, system.sim().now());
  });

  // Everyone subscribes to everything, so every node is both a
  // subscriber and (for some key) a rendezvous.
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    checker.on_subscribe(system.subscribe(i, {{0, {0, 999}}}),
                         system.sim().now(), sim::kSimTimeNever);
  }
  system.quiesce();
  system.run_for(sim::sec(10));  // clear the checker's grace window

  auto event = std::make_shared<pubsub::Event>();
  event->values = {123, 456};
  event->id = system.publish(0, event->values);
  checker.on_publish(event, system.sim().now());
  const std::size_t victim = 7;
  const Key victim_key = system.node_id(victim);
  const sim::SimTime crash_at = system.sim().now();
  system.crash_node(victim);
  checker.on_node_crashed(victim_key, crash_at);
  system.quiesce();

  std::size_t live_deliveries = 0;
  for (const SinkEntry& e : sink) {
    EXPECT_FALSE(e.subscriber == victim_key && e.when >= crash_at)
        << "ghost delivery at crashed node " << victim_key;
    if (e.subscriber != victim_key) ++live_deliveries;
  }
  // The event itself did flow to the survivors.
  EXPECT_GE(live_deliveries, 20u);

  // The oracle must not count the crashed subscriber as expected (its
  // subscription ends at the crash), and nothing it saw was a ghost.
  const auto report = checker.verify();
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? ""
                                                     : report.issues[0]);
  EXPECT_EQ(report.expected, 23u);  // 24 subscribers minus the victim
}

// ---------------------------------------------------------------------------
// Stored runs: every copy of a subscription carries SK(sub)
// ---------------------------------------------------------------------------

/// The SK runs a stored or handed-over record carries.
const std::vector<KeyRange>& runs_of(
    const pubsub::SubscriptionStore::Record& r) {
  return *r.runs;
}
const std::vector<KeyRange>& runs_of(const pubsub::StoredSubRecord& r) {
  return *r.runs;
}

/// Sits between a Chord node and its pub/sub layer and hands every record
/// the layer exports (join pull, predecessor adoption, graceful leave) to
/// `check` on its way out; everything else passes straight through.
class HandoverTap final : public overlay::OverlayApp {
 public:
  using Check = std::function<void(const pubsub::StoredSubRecord&)>;
  HandoverTap(pubsub::PubSubNode& node, Check check)
      : node_(node), check_(std::move(check)) {
    node_.overlay().set_app(this);
  }

  void on_deliver(Key key, const overlay::PayloadPtr& payload) override {
    node_.on_deliver(key, payload);
  }
  void on_deliver_mcast(std::span<const Key> covered,
                        const overlay::PayloadPtr& payload) override {
    node_.on_deliver_mcast(covered, payload);
  }
  overlay::PayloadPtr export_state(Key range_lo, Key range_hi,
                                   bool remove) override {
    overlay::PayloadPtr state = node_.export_state(range_lo, range_hi, remove);
    const pubsub::Message* msg = pubsub::message_of(*state);
    const auto* handed = msg == nullptr
                             ? nullptr
                             : std::get_if<pubsub::StateMsg>(msg);
    EXPECT_NE(handed, nullptr);
    if (handed != nullptr) {
      for (const auto& rec : handed->records) check_(rec);
    }
    return state;
  }
  void import_state(const overlay::PayloadPtr& state) override {
    node_.import_state(state);
  }

 private:
  pubsub::PubSubNode& node_;
  Check check_;
};

struct StoredRunsCase {
  const char* name;
  pubsub::MappingKind mapping;
  bool collecting;
};

class StoredRunsTest : public ::testing::TestWithParam<StoredRunsCase> {};

TEST_P(StoredRunsTest, EveryCopyCarriesItsSubscriptionsRuns) {
  // Replication 2, joins, a graceful leave and a correlated crash burst:
  // every path that stores, replicates, adopts, re-homes or hands over a
  // record runs. Whatever the path, a record's runs must be SK(sub).
  const auto script =
      FaultScript::parse("crash_burst at=200 count=4 correlation=0.6");
  ASSERT_TRUE(script.has_value());
  pubsub::SystemConfig cfg = fault_config(40, *script, /*replication=*/2);
  cfg.mapping = GetParam().mapping;
  cfg.pubsub.collecting = GetParam().collecting;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(3, 99'999));
  const pubsub::AkMapping& mapping = system.mapping();
  system.network().start_maintenance_all();

  std::size_t handed = 0;
  const auto check_handed = [&](const pubsub::StoredSubRecord& rec) {
    ++handed;
    EXPECT_EQ(runs_of(rec), mapping.subscription_ranges(*rec.sub))
        << "handed-over sub " << rec.sub->id;
  };
  std::vector<std::unique_ptr<HandoverTap>> taps;
  const auto tap = [&](std::size_t i) {
    taps.push_back(std::make_unique<HandoverTap>(system.pubsub_node(i),
                                                 check_handed));
  };
  for (std::size_t i = 0; i < system.node_count(); ++i) tap(i);

  std::size_t owned = 0;
  std::size_t replicas = 0;
  const auto check_stores = [&] {
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      if (!system.network().is_alive(system.node_id(i))) continue;
      system.pubsub_node(i).store().for_each(
          [&](const pubsub::SubscriptionStore::Record& rec) {
            ++(rec.replica ? replicas : owned);
            EXPECT_EQ(runs_of(rec), mapping.subscription_ranges(*rec.sub))
                << (rec.replica ? "replica" : "owned") << " sub "
                << rec.sub->id << " at node " << system.node_id(i);
          });
    }
  };

  FaultScriptRunner runner(system, *script, 5);
  runner.start();
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 23);
  std::vector<pubsub::SubscriptionPtr> active;
  for (std::size_t i = 0; i < 60; ++i) {
    active.push_back(system.subscribe((i * 7) % system.node_count(),
                                      gen.make_constraints()));
    system.run_for(sim::sec(1));
  }
  system.run_for(sim::sec(20));
  check_stores();

  for (const std::string name : {"joiner-a", "joiner-b", "joiner-c"}) {
    tap(system.join_node(name));
    system.run_for(sim::sec(15));
  }
  system.leave_node(3);
  system.run_for(sim::sec(60));
  check_stores();

  // Past the crash burst: adopt replicas, rebuild chains, publish.
  system.run_for(sim::sec(80));
  EXPECT_EQ(runner.crashes(), 4u);
  system.re_replicate_all();
  for (std::size_t i = 0; i < 40; ++i) {
    system.publish((i * 5) % system.node_count(),
                   gen.make_event_values(active));
    system.run_for(sim::sec(1));
  }
  system.run_for(sim::sec(30));
  system.network().stop_maintenance_all();
  system.quiesce();
  check_stores();

  EXPECT_GT(owned, 0u);
  EXPECT_GT(replicas, 0u);
  EXPECT_GT(handed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ReplicatedCrashBurst, StoredRunsTest,
    ::testing::Values(
        StoredRunsCase{"m1", pubsub::MappingKind::kAttributeSplit, false},
        StoredRunsCase{"m2", pubsub::MappingKind::kKeySpaceSplit, false},
        StoredRunsCase{"m3", pubsub::MappingKind::kSelectiveAttribute, false},
        StoredRunsCase{"m2_collecting", pubsub::MappingKind::kKeySpaceSplit,
                       true}),
    [](const ::testing::TestParamInfo<StoredRunsCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Membership guard death tests
// ---------------------------------------------------------------------------

using FaultGuardDeathTest = ::testing::Test;

TEST(FaultGuardDeathTest, DoubleRemovalIsRejected) {
  sim::Simulator sim;
  chord::ChordNetwork net(sim, chord::ChordConfig{}, 3);
  for (int i = 0; i < 3; ++i) {
    net.add_node(std::string("n").append(std::to_string(i)));
  }
  net.build_static_ring();
  const Key victim = net.alive_ids()[0];
  net.crash(victim);
  EXPECT_DEATH(net.crash(victim), "not alive");
  EXPECT_DEATH(net.leave_gracefully(victim), "not alive");
}

TEST(FaultGuardDeathTest, LastAliveNodeCannotBeRemoved) {
  sim::Simulator sim;
  chord::ChordNetwork net(sim, chord::ChordConfig{}, 3);
  net.add_node("only");
  net.build_static_ring();
  const Key only = net.alive_ids()[0];
  EXPECT_DEATH(net.crash(only), "last alive");
  EXPECT_DEATH(net.leave_gracefully(only), "last alive");
}

// ---------------------------------------------------------------------------
// The churn directive
// ---------------------------------------------------------------------------

pubsub::SystemConfig churn_system_config() {
  pubsub::SystemConfig cfg;
  cfg.nodes = 24;
  cfg.seed = 5;
  cfg.chord.ring = RingParams{11};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  return cfg;
}

// A `churn` directive is a ChurnDriver started at `at` and stopped at
// `until`, seeded from the runner's seed on its own stream, with half
// the ring as its floor and the runner's protected set: wiring that
// driver by hand must log the same joins, leaves and crashes, at the
// same times, on the same nodes.
TEST(ChurnDirectiveTest, ReproducesAHandWiredChurnDriver) {
  const auto is_protected = [](Key id) { return id % 5 == 0; };
  const auto script = FaultScript::parse(
      "slow at=40 until=300 nodes=2 factor=4\n"
      "churn at=60 until=900 interval=15 crash=0.5");
  ASSERT_TRUE(script.has_value());
  const pubsub::SystemConfig cfg = churn_system_config();

  pubsub::PubSubSystem scripted(cfg, pubsub::Schema::uniform(2, 999));
  scripted.network().start_maintenance_all();
  FaultScriptRunner runner(scripted, *script, 77, is_protected);
  runner.start();
  scripted.run_for(sim::sec(1'000));
  ASSERT_EQ(runner.churn_drivers().size(), 1u);
  const workload::ChurnDriver& driver = *runner.churn_drivers().front();
  const auto& got = driver.event_log();

  pubsub::PubSubSystem wired(cfg, pubsub::Schema::uniform(2, 999));
  wired.network().start_maintenance_all();
  FaultScript slow_only = *script;
  slow_only.directives.pop_back();
  FaultScriptRunner slow_runner(wired, slow_only, 77, is_protected);
  slow_runner.start();
  workload::ChurnParams params;
  params.mean_interval_s = 15;
  params.crash_fraction = 0.5;
  params.min_nodes = cfg.nodes / 2;
  workload::ChurnDriver churn(wired, params,
                              FaultScriptRunner::churn_seed(77, 1),
                              is_protected);
  wired.sim().schedule_at(sim::sec(60), [&churn] { churn.start(); });
  wired.sim().schedule_at(sim::sec(900), [&churn] { churn.stop(); });
  wired.run_for(sim::sec(1'000));
  const auto& want = churn.event_log();

  using Kind = workload::ChurnDriver::ChurnEvent::Kind;
  const auto count = [&got](Kind k) {
    return std::count_if(got.begin(), got.end(),
                         [k](const auto& e) { return e.kind == k; });
  };
  EXPECT_GT(count(Kind::kJoin), 0);
  EXPECT_GT(count(Kind::kLeave), 0);
  EXPECT_GT(count(Kind::kCrash), 0);
  EXPECT_EQ(driver.joins(), static_cast<std::uint64_t>(count(Kind::kJoin)));
  EXPECT_EQ(driver.leaves(),
            static_cast<std::uint64_t>(count(Kind::kLeave)));
  EXPECT_EQ(driver.crashes(),
            static_cast<std::uint64_t>(count(Kind::kCrash)));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].node, want[i].node) << i;
    EXPECT_EQ(got[i].at, want[i].at) << i;
    EXPECT_GE(got[i].at, sim::sec(60));
    EXPECT_LE(got[i].at, sim::sec(900));
    if (got[i].kind != Kind::kJoin) {
      EXPECT_FALSE(is_protected(got[i].node)) << i;
    }
  }
}

// stop_churn() ends a running churn process and keeps a later directive
// from starting one, so a run can drain its event queue.
TEST(ChurnDirectiveTest, StopChurnEndsEveryChurnProcess) {
  const auto script = FaultScript::parse(
      "churn at=10 until=5000 interval=5\n"
      "churn at=400 until=5000 interval=5");
  ASSERT_TRUE(script.has_value());
  pubsub::PubSubSystem system(churn_system_config(),
                              pubsub::Schema::uniform(2, 999));
  system.network().start_maintenance_all();
  FaultScriptRunner runner(system, *script, 3);
  runner.start();
  system.run_for(sim::sec(200));
  ASSERT_EQ(runner.churn_drivers().size(), 1u);
  runner.stop_churn();
  const std::size_t events = runner.churn_drivers().front()->events();
  system.run_for(sim::sec(600));
  EXPECT_EQ(runner.churn_drivers().size(), 1u);
  EXPECT_EQ(runner.churn_drivers().front()->events(), events);
}

// ---------------------------------------------------------------------------
// Determinism of churn + fault runs across sweep workers
// ---------------------------------------------------------------------------

struct ChurnFingerprint {
  std::vector<workload::ChurnDriver::ChurnEvent> log;
  std::uint64_t script_crashes = 0;
  std::uint64_t total_hops = 0;
};

bench::JsonFields json_fields(const ChurnFingerprint& r) {
  return {{"events", static_cast<double>(r.log.size())},
          {"total_hops", static_cast<double>(r.total_hops)}};
}

std::vector<ChurnFingerprint> run_churn_sweep(std::size_t jobs) {
  bench::Sweep<ChurnFingerprint> sweep("fault_determinism_test");
  bench::SweepOptions opts;
  opts.jobs = jobs;
  sweep.set_options(opts);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sweep.add("seed=" + std::to_string(seed), [seed] {
      const auto script = FaultScript::parse(
          "slow at=50 until=250 nodes=2 factor=4\n"
          "crash_burst at=150 count=2 correlation=0.5");
      pubsub::SystemConfig cfg;
      cfg.nodes = 24;
      cfg.seed = seed;
      cfg.chord.ring = RingParams{11};
      cfg.chord.stabilize_period = sim::sec(5);
      cfg.chord.force_reliable = script->needs_reliable_transport();
      cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
      pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(2, 999));
      system.network().start_maintenance_all();

      FaultScriptRunner runner(system, *script, seed);
      runner.start();
      workload::ChurnParams cp;
      cp.mean_interval_s = 30.0;
      cp.min_nodes = 12;
      workload::ChurnDriver churn(system, cp, seed * 31 + 7);
      churn.start();

      system.run_for(sim::sec(600));
      churn.stop();
      system.run_for(sim::sec(60));
      return ChurnFingerprint{churn.event_log(), runner.crashes(),
                              system.traffic().total_hops()};
    });
  }
  return sweep.run();
}

TEST(ChurnDeterminismTest, SameSeedIsIdenticalAcrossWorkerCounts) {
  const auto serial = run_churn_sweep(1);
  const auto parallel = run_churn_sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].log.size(), 4u);
    EXPECT_EQ(serial[i].script_crashes, parallel[i].script_crashes);
    EXPECT_EQ(serial[i].total_hops, parallel[i].total_hops);
    ASSERT_EQ(serial[i].log.size(), parallel[i].log.size());
    for (std::size_t e = 0; e < serial[i].log.size(); ++e) {
      EXPECT_EQ(serial[i].log[e].kind, parallel[i].log[e].kind);
      EXPECT_EQ(serial[i].log[e].node, parallel[i].log[e].node);
      EXPECT_EQ(serial[i].log[e].at, parallel[i].log[e].at);
    }
  }
}

}  // namespace
}  // namespace cbps
