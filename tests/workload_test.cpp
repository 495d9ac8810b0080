// Tests of the §5.1 workload model: range-length distributions, center
// distributions, the paper's "0.6% most-restrictive-range" observation,
// matching-probability enforcement, and the Driver's arrival processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cbps/metrics/histogram.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/generator.hpp"

namespace cbps::workload {
namespace {

constexpr Value kAttrMax = 1'000'000;

pubsub::Schema paper_schema() { return pubsub::Schema::uniform(4, kAttrMax); }

TEST(WorkloadGeneratorTest, ConstraintsCoverEveryAttribute) {
  WorkloadGenerator gen(paper_schema(), {}, 1);
  const auto cs = gen.make_constraints();
  ASSERT_EQ(cs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cs[i].attribute, i);
    EXPECT_GE(cs[i].range.lo, 0);
    EXPECT_LE(cs[i].range.hi, kAttrMax);
  }
}

TEST(WorkloadGeneratorTest, NonSelectiveRangeAtMostThreePercent) {
  WorkloadGenerator gen(paper_schema(), {}, 2);
  metrics::Histogram widths;
  for (int i = 0; i < 2000; ++i) {
    for (const auto& c : gen.make_constraints()) {
      widths.add(static_cast<double>(c.range.width()));
    }
  }
  // Uniform in [1, 0.03 * 1e6]: max <= 30000ish, mean ≈ 15000.
  EXPECT_LE(widths.max(), 0.03 * kAttrMax + 2);
  EXPECT_NEAR(widths.mean(), 0.015 * kAttrMax, 0.002 * kAttrMax);
}

TEST(WorkloadGeneratorTest, SelectiveRangeAtMostPointOnePercent) {
  WorkloadParams wp;
  wp.selective = {true, false, false, false};
  WorkloadGenerator gen(paper_schema(), wp, 3);
  metrics::Histogram sel_widths;
  for (int i = 0; i < 2000; ++i) {
    const auto cs = gen.make_constraints();
    sel_widths.add(static_cast<double>(cs[0].range.width()));
  }
  EXPECT_LE(sel_widths.max(), 0.001 * kAttrMax + 2);
  EXPECT_NEAR(sel_widths.mean(), 0.0005 * kAttrMax, 0.0001 * kAttrMax);
}

TEST(WorkloadGeneratorTest, MostRestrictiveRangeMatchesPaperClaim) {
  // §5.1: with all attributes non-selective, the most restrictive of the
  // 4 constraints spans 0.6% of ATTR_MAX on average (min of 4 uniforms
  // over [0, 3%] has mean 3%/5).
  WorkloadGenerator gen(paper_schema(), {}, 4);
  metrics::Histogram min_widths;
  for (int i = 0; i < 5000; ++i) {
    const auto cs = gen.make_constraints();
    std::uint64_t best = ~std::uint64_t{0};
    for (const auto& c : cs) best = std::min(best, c.range.width());
    min_widths.add(static_cast<double>(best));
  }
  EXPECT_NEAR(min_widths.mean(), 0.006 * kAttrMax, 0.0008 * kAttrMax);
}

TEST(WorkloadGeneratorTest, SelectiveCentersAreZipfSkewed) {
  // Zipf governs *popularity*: a few distinct center values dominate,
  // but those values are spread over the domain (no positional pile-up).
  WorkloadParams wp;
  wp.selective = {true, false, false, false};
  WorkloadGenerator gen(paper_schema(), wp, 5);
  std::map<Value, int> center_freq;
  const int kSamples = 3000;
  for (int i = 0; i < kSamples; ++i) {
    const auto cs = gen.make_constraints();
    center_freq[(cs[0].range.lo + cs[0].range.hi) / 2]++;
  }
  int top = 0;
  Value top_center = 0;
  for (const auto& [center, freq] : center_freq) {
    if (freq > top) {
      top = freq;
      top_center = center;
    }
  }
  // The most popular center (Zipf rank 1, s=1 over 1e6: ~7% of mass)
  // repeats far more often than uniform sampling would allow...
  EXPECT_GT(top, kSamples / 30);
  // ...and popular centers are not clustered at the domain's low end.
  int low_centers = 0;
  for (const auto& [center, freq] : center_freq) {
    if (center <= kAttrMax / 100) low_centers += freq;
  }
  EXPECT_LT(low_centers, kSamples / 4);
  (void)top_center;
}

TEST(WorkloadGeneratorTest, NonSelectiveCentersRoughlyUniform) {
  WorkloadGenerator gen(paper_schema(), {}, 6);
  metrics::Histogram centers;
  for (int i = 0; i < 4000; ++i) {
    const auto cs = gen.make_constraints();
    centers.add(static_cast<double>((cs[1].range.lo + cs[1].range.hi) / 2));
  }
  EXPECT_NEAR(centers.mean(), kAttrMax / 2.0, kAttrMax / 40.0);
}

TEST(WorkloadGeneratorTest, MatchingValuesAlwaysMatch) {
  WorkloadGenerator gen(paper_schema(), {}, 7);
  for (int i = 0; i < 500; ++i) {
    pubsub::Subscription sub;
    sub.id = 1;
    sub.constraints = gen.make_constraints();
    pubsub::Event e;
    e.id = 1;
    e.values = gen.make_matching_values(sub);
    EXPECT_TRUE(sub.matches(e));
    EXPECT_TRUE(e.valid_for(gen.schema()));
  }
}

TEST(WorkloadGeneratorTest, MatchingProbabilityHonored) {
  WorkloadParams wp;
  wp.matching_probability = 0.5;
  WorkloadGenerator gen(paper_schema(), wp, 8);

  // A pool of active subscriptions.
  std::vector<pubsub::SubscriptionPtr> active;
  for (int i = 0; i < 20; ++i) {
    auto s = std::make_shared<pubsub::Subscription>();
    s->id = static_cast<SubscriptionId>(i + 1);
    s->constraints = gen.make_constraints();
    active.push_back(std::move(s));
  }

  int matched = 0;
  const int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    pubsub::Event e;
    e.id = 1;
    e.values = gen.make_event_values(active);
    const bool any = std::any_of(active.begin(), active.end(),
                                 [&](const pubsub::SubscriptionPtr& s) {
                                   return s->matches(e);
                                 });
    if (any) ++matched;
  }
  EXPECT_NEAR(static_cast<double>(matched) / kSamples, 0.5, 0.04);
}

TEST(WorkloadGeneratorTest, EmptyActiveSetFallsBackToRandom) {
  WorkloadParams wp;
  wp.matching_probability = 1.0;
  WorkloadGenerator gen(paper_schema(), wp, 9);
  const auto values = gen.make_event_values({});
  EXPECT_EQ(values.size(), 4u);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

pubsub::SystemConfig driver_system_config() {
  pubsub::SystemConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 11;
  cfg.chord.ring = RingParams{10};
  cfg.mapping = pubsub::MappingKind::kKeySpaceSplit;
  return cfg;
}

TEST(DriverTest, IssuesExactBudgets) {
  pubsub::PubSubSystem system(driver_system_config(),
                              pubsub::Schema::uniform(4, 9'999));
  WorkloadGenerator gen(system.schema(), {}, 21);
  DriverParams dp;
  dp.max_subscriptions = 20;
  dp.max_publications = 35;
  Driver driver(system, gen, dp);
  driver.start();
  driver.run_to_completion();
  EXPECT_EQ(driver.subscriptions_issued(), 20u);
  EXPECT_EQ(driver.publications_issued(), 35u);
  EXPECT_EQ(system.subscriptions_issued(), 20u);
  EXPECT_EQ(system.publications_issued(), 35u);
}

TEST(DriverTest, SubscriptionsArriveAtRegularRate) {
  pubsub::PubSubSystem system(driver_system_config(),
                              pubsub::Schema::uniform(4, 9'999));
  WorkloadGenerator gen(system.schema(), {}, 22);
  DriverParams dp;
  dp.sub_interval = sim::sec(5);
  dp.max_subscriptions = 10;
  dp.max_publications = 0;
  Driver driver(system, gen, dp);
  driver.start();
  system.run_for(sim::sec(26));
  EXPECT_EQ(driver.subscriptions_issued(), 5u);  // t = 5,10,15,20,25
  system.run_for(sim::sec(100));
  EXPECT_EQ(driver.subscriptions_issued(), 10u);
}

TEST(DriverTest, PoissonPublicationsApproximateMeanRate) {
  pubsub::PubSubSystem system(driver_system_config(),
                              pubsub::Schema::uniform(4, 9'999));
  WorkloadGenerator gen(system.schema(), {}, 23);
  DriverParams dp;
  dp.pub_mean_interval_s = 5.0;
  dp.max_subscriptions = 0;
  dp.max_publications = 100000;
  Driver driver(system, gen, dp);
  driver.start();
  system.run_for(sim::sec(5000));
  // ~1000 expected over 5000 s.
  EXPECT_NEAR(static_cast<double>(driver.publications_issued()), 1000.0,
              120.0);
}

TEST(DriverTest, ActiveSubscriptionsPrunedByTtl) {
  pubsub::PubSubSystem system(driver_system_config(),
                              pubsub::Schema::uniform(4, 9'999));
  WorkloadGenerator gen(system.schema(), {}, 24);
  DriverParams dp;
  dp.sub_interval = sim::sec(5);
  dp.sub_ttl = sim::sec(40);
  dp.max_subscriptions = 1000;
  dp.max_publications = 0;
  Driver driver(system, gen, dp);
  driver.start();
  system.run_for(sim::sec(300));
  // Steady state: ~40/5 = 8 active.
  EXPECT_NEAR(static_cast<double>(driver.active_subscriptions().size()),
              8.0, 2.0);
}

TEST(DriverTest, CheckerIntegratedRunIsCorrect) {
  pubsub::SystemConfig cfg = driver_system_config();
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(4, 9'999));
  WorkloadParams wp;
  wp.matching_probability = 0.8;
  WorkloadGenerator gen(system.schema(), wp, 25);
  pubsub::DeliveryChecker checker;
  DriverParams dp;
  dp.max_subscriptions = 15;
  dp.max_publications = 60;
  dp.sub_interval = sim::sec(5);
  Driver driver(system, gen, dp, &checker);
  driver.start();
  driver.run_to_completion();
  const auto report = checker.verify();
  EXPECT_GT(checker.publication_count(), 0u);
  EXPECT_TRUE(report.ok()) << "missing=" << report.missing
                           << " dup=" << report.duplicates
                           << " spurious=" << report.spurious;
  EXPECT_GT(report.expected, 0u);
}

}  // namespace
}  // namespace cbps::workload
