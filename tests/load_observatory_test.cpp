// Load-observatory integration tests.
//
// The observatory's whole value rests on two properties:
//   1. the emitted metrics JSON carries the hot-key tables and the
//      imbalance summary, and
//   2. the per-key sketch counts bracket the exact per-key load.
// Both are asserted here on a Zipf-centered workload (one selective
// attribute concentrates rendezvous traffic on popular values — the
// regime the observatory exists for). The suite carries the `obs`
// label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cbps/metrics/topk.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/workload/driver.hpp"
#include "harness.hpp"

using namespace cbps;

namespace {

bench::ExperimentConfig zipf_config() {
  bench::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.ring_bits = 10;
  cfg.seed = 17;
  cfg.subscriptions = 300;
  cfg.publications = 300;
  cfg.selective_attributes = 1;  // Zipf-centered rendezvous traffic
  return cfg;
}

// One PubSubSystem + Driver run; returns the ring-folded sketch set.
// `capacity` sized >= the whole key space makes every sketch exact
// (nothing is ever evicted), and the capacity cannot perturb the
// simulation — the sketches only observe it — so two runs differing
// only in capacity see the identical event stream.
pubsub::KeyLoad run_key_load(std::size_t capacity) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 48;
  cfg.chord.ring = RingParams{10};
  cfg.seed = 23;
  cfg.pubsub.key_topk_capacity = capacity;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(4, 1'000'000));

  workload::WorkloadParams wp;
  wp.selective.assign(4, false);
  wp.selective[0] = true;  // Zipf centers on the selective attribute
  workload::WorkloadGenerator gen(system.schema(), wp, 5);
  workload::DriverParams dp;
  dp.max_subscriptions = 250;
  dp.max_publications = 250;
  workload::Driver driver(system, gen, dp);
  driver.start();
  driver.run_to_completion();
  return system.key_load();
}

void expect_brackets(const metrics::TopK& sketch, const metrics::TopK& oracle,
                     const char* what) {
  ASSERT_EQ(sketch.total(), oracle.total()) << what;
  if (sketch.total() == 0) return;
  const std::uint64_t bound = sketch.total() / sketch.capacity();
  for (const auto& e : sketch.top(sketch.size())) {
    const std::uint64_t truth = oracle.find(e.key).count;
    EXPECT_LE(truth, e.count) << what << " key " << e.key;
    EXPECT_LE(e.count - e.error, truth) << what << " key " << e.key;
    EXPECT_LE(e.error, bound) << what << " key " << e.key;
  }
  // Every key whose exact load beats the space-saving bound is tracked.
  for (const auto& heavy : oracle.top(oracle.size())) {
    if (heavy.count > bound) {
      EXPECT_GT(sketch.find(heavy.key).count, 0u)
          << what << " lost heavy key " << heavy.key << " (" << heavy.count
          << " > " << bound << ")";
    }
  }
}

}  // namespace

// The acceptance oracle: run the identical workload with the sketches
// sized far beyond the distinct-key count (exact counting, error 0) and
// check the default-capacity sketches bracket those exact counts within
// the space-saving bound.
TEST(LoadObservatoryTest, SketchBracketsExactOracleOnZipfWorkload) {
  const pubsub::KeyLoad oracle = run_key_load(1u << 20);
  const pubsub::KeyLoad sketched = run_key_load(metrics::TopK::kDefaultCapacity);

  // The huge-capacity run never evicted: its error terms are all zero.
  for (const auto& e : oracle.match_calls.top(oracle.match_calls.size())) {
    ASSERT_EQ(e.error, 0u);
  }
  ASSERT_GT(oracle.match_calls.total(), 0u) << "workload produced no matches";

  expect_brackets(sketched.subs_stored, oracle.subs_stored, "subs_stored");
  expect_brackets(sketched.match_calls, oracle.match_calls, "match_calls");
  expect_brackets(sketched.match_units, oracle.match_units, "match_units");
  expect_brackets(sketched.notify_fanout, oracle.notify_fanout,
                  "notify_fanout");

  // Zipf skew must actually concentrate: the hottest key carries many
  // times the uniform per-key share of match traffic.
  const auto top1 = oracle.match_calls.top(1);
  ASSERT_FALSE(top1.empty());
  const double uniform_share =
      static_cast<double>(oracle.match_calls.total()) /
      static_cast<double>(oracle.match_calls.size());
  EXPECT_GT(static_cast<double>(top1.front().count), 5.0 * uniform_share)
      << "expected the hottest key well above the uniform per-key share";
}

// Notifications are charged to exactly one covered key each: the
// notify_fanout sketch total equals the delivered-notification count.
TEST(LoadObservatoryTest, NotifyFanoutChargesEachDeliveryOnce) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 32;
  cfg.chord.ring = RingParams{10};
  cfg.seed = 29;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(4, 1'000'000));
  workload::WorkloadGenerator gen(system.schema(), workload::WorkloadParams{},
                                  9);
  workload::DriverParams dp;
  dp.max_subscriptions = 150;
  dp.max_publications = 150;
  workload::Driver driver(system, gen, dp);
  driver.start();
  driver.run_to_completion();

  EXPECT_EQ(system.key_load().notify_fanout.total(),
            system.notifications_delivered());
}

// The full pipeline, end to end: a Zipf-centered run's --metrics-json
// output carries every observatory section — the hot-key tables and
// the imbalance summary.
TEST(LoadObservatoryTest, MetricsJsonCarriesEveryObservatorySection) {
  bench::ExperimentConfig cfg = zipf_config();
  cfg.metrics_json_path = ::testing::TempDir() + "load_obs.json";
  const bench::ExperimentResult r = bench::run_experiment(cfg);
  EXPECT_GT(r.notifications_delivered, 0u);
  EXPECT_GT(r.hot_key_top1_share, 0.0);

  std::ifstream in(cfg.metrics_json_path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  ASSERT_FALSE(doc.empty());
  for (const char* needle :
       {"\"hot_keys\"", "\"subs_stored\"", "\"match_calls\"",
        "\"match_units\"", "\"notify_fanout\"", "load_gini",
        "load_max_over_mean", "hot_key_top1_share"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "metrics JSON missing " << needle;
  }
  std::remove(cfg.metrics_json_path.c_str());
}

// The summary imbalance metrics agree with a hand-rolled Gini over the
// same per-node loads (sorted-rank formula).
TEST(LoadObservatoryTest, ImbalanceSummaryMatchesHandComputedGini) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 40;
  cfg.chord.ring = RingParams{10};
  cfg.seed = 31;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(4, 1'000'000));
  workload::WorkloadGenerator gen(system.schema(), workload::WorkloadParams{},
                                  3);
  workload::DriverParams dp;
  dp.max_subscriptions = 200;
  dp.max_publications = 100;
  workload::Driver driver(system, gen, dp);
  driver.start();
  driver.run_to_completion();

  std::vector<double> loads;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    loads.push_back(
        static_cast<double>(system.pubsub_node(i).key_load().total()));
  }
  std::sort(loads.begin(), loads.end());
  double sum = 0, weighted = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    sum += loads[i];
    weighted += static_cast<double>(i + 1) * loads[i];
  }
  ASSERT_GT(sum, 0.0);
  const double n = static_cast<double>(loads.size());
  const double gini = 2.0 * weighted / (n * sum) - (n + 1.0) / n;

  const pubsub::PubSubSystem::LoadImbalance imb = system.load_imbalance();
  EXPECT_NEAR(imb.gini, gini, 1e-12);
  EXPECT_DOUBLE_EQ(imb.max_over_mean, loads.back() / (sum / n));
  EXPECT_GE(imb.gini, 0.0);
  EXPECT_LT(imb.gini, 1.0);
}
