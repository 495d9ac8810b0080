// Tests for the membership ChurnDriver and delivery under sustained
// churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"

namespace cbps::workload {
namespace {

pubsub::SystemConfig churn_config(std::size_t nodes = 32) {
  pubsub::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 3;
  cfg.chord.ring = RingParams{11};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  return cfg;
}

TEST(ChurnDriverTest, RespectsMinNodes) {
  pubsub::PubSubSystem system(churn_config(16),
                              pubsub::Schema::uniform(2, 999));
  system.network().start_maintenance_all();
  ChurnParams cp;
  cp.mean_interval_s = 10.0;
  cp.join_fraction = 0.0;  // removals only
  cp.crash_fraction = 0.0;
  cp.min_nodes = 12;
  ChurnDriver churn(system, cp, 7);
  churn.start();
  system.run_for(sim::sec(3'000));
  churn.stop();
  EXPECT_EQ(system.network().alive_count(), 12u);
  EXPECT_EQ(churn.leaves(), 4u);
  EXPECT_EQ(churn.crashes(), 0u);
}

TEST(ChurnDriverTest, ProtectedNodesSurvive) {
  pubsub::PubSubSystem system(churn_config(16),
                              pubsub::Schema::uniform(2, 999));
  system.network().start_maintenance_all();
  std::set<Key> precious{system.node_id(0), system.node_id(5),
                         system.node_id(11)};
  ChurnParams cp;
  cp.mean_interval_s = 10.0;
  cp.join_fraction = 0.0;
  cp.crash_fraction = 1.0;  // crashes only
  cp.min_nodes = 4;
  ChurnDriver churn(system, cp, 9,
                    [&](Key id) { return precious.contains(id); });
  churn.start();
  system.run_for(sim::sec(5'000));
  for (Key id : precious) {
    EXPECT_TRUE(system.network().is_alive(id)) << id;
  }
  EXPECT_GT(churn.crashes(), 0u);
}

TEST(ChurnDriverTest, MaxEventsStopsTheProcess) {
  pubsub::PubSubSystem system(churn_config(24),
                              pubsub::Schema::uniform(2, 999));
  system.network().start_maintenance_all();
  ChurnParams cp;
  cp.mean_interval_s = 5.0;
  cp.max_events = 6;
  ChurnDriver churn(system, cp, 11);
  churn.start();
  system.run_for(sim::sec(10'000));
  EXPECT_EQ(churn.events(), 6u);
}

TEST(ChurnDriverTest, JoinsGrowTheRing) {
  pubsub::PubSubSystem system(churn_config(16),
                              pubsub::Schema::uniform(2, 999));
  system.network().start_maintenance_all();
  ChurnParams cp;
  cp.mean_interval_s = 20.0;
  cp.join_fraction = 1.0;  // joins only
  cp.max_events = 5;
  ChurnDriver churn(system, cp, 13);
  churn.start();
  system.run_for(sim::sec(2'000));
  EXPECT_EQ(churn.joins(), 5u);
  EXPECT_EQ(system.network().alive_count(), 21u);
  EXPECT_EQ(system.node_count(), 21u);  // pub/sub layer attached to all
}

TEST(ChurnIntegrationTest, GracefulChurnBarelyDisturbsDelivery) {
  pubsub::PubSubSystem system(churn_config(48),
                              pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  pubsub::DeliveryChecker checker;
  WorkloadParams wp;
  wp.matching_probability = 0.8;
  WorkloadGenerator gen(system.schema(), wp, 19);
  DriverParams dp;
  dp.max_subscriptions = 30;
  dp.max_publications = 150;
  Driver driver(system, gen, dp, &checker);
  driver.start();

  ChurnParams cp;
  cp.mean_interval_s = 40.0;
  cp.crash_fraction = 0.0;  // graceful only
  cp.min_nodes = 24;
  ChurnDriver churn(system, cp, 21, [&driver](Key id) {
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
  EXPECT_GE(static_cast<double>(report.delivered),
            0.97 * static_cast<double>(report.expected))
      << "missing=" << report.missing
      << (report.issues.empty() ? "" : " first: " + report.issues[0]);
  EXPECT_EQ(report.spurious, 0u);
  EXPECT_GT(churn.events(), 10u);
}

// Each ChordNode caches its m-cast delegation candidates (distinct
// fingers plus the successor, by ring distance) and rebuilds them only
// when the finger table or the successor changed. Under churn,
// stabilization and m-cast subscriptions, the cached list must equal a
// fresh computation after every maintenance round.
TEST(ChurnIntegrationTest, McastCandidateCacheMatchesFreshList) {
  pubsub::PubSubSystem system(churn_config(32),
                              pubsub::Schema::uniform(2, 999));
  system.network().start_maintenance_all();
  WorkloadGenerator gen(system.schema(), WorkloadParams{}, 5);
  DriverParams dp;
  dp.max_subscriptions = 40;
  dp.max_publications = 40;
  Driver driver(system, gen, dp, nullptr);
  driver.start();
  ChurnParams cp;
  cp.mean_interval_s = 20.0;
  cp.min_nodes = 16;
  ChurnDriver churn(system, cp, 13);
  churn.start();

  const RingParams ring = system.network().ring();
  std::size_t checks = 0;
  for (int round = 0; round < 200; ++round) {
    system.run_for(churn_config().chord.stabilize_period);
    for (const Key id : system.network().alive_ids()) {
      chord::ChordNode& node = *system.network().node(id);
      std::vector<Key> fresh = node.finger_table().distinct_nodes();
      const std::vector<Key>& succs = node.successor_list();
      if (!succs.empty() &&
          std::find(fresh.begin(), fresh.end(), succs.front()) ==
              fresh.end()) {
        fresh.push_back(succs.front());
        std::sort(fresh.begin(), fresh.end(), [&](Key a, Key b) {
          return ring.distance(id, a) < ring.distance(id, b);
        });
      }
      ASSERT_EQ(node.mcast_candidates(), fresh)
          << "node " << id << " round " << round;
      ++checks;
    }
  }
  churn.stop();
  EXPECT_GT(churn.events(), 20u);
  EXPECT_GT(checks, 3000u);
}

}  // namespace
}  // namespace cbps::workload
