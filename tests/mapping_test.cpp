// Tests for the ak-mapping layer: the scaling hash, the Figure 3 worked
// example, per-mapping key-count formulas (§4.2), discretization
// (§4.3.3) and — most importantly — randomized property tests of the
// mapping intersection rule: e ∈ σ  ⇒  EK(e) ∩ SK(σ) ≠ ∅.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "cbps/common/rng.hpp"
#include "cbps/pubsub/mapping.hpp"
#include "cbps/workload/generator.hpp"

namespace cbps::pubsub {
namespace {

Subscription make_sub(std::vector<Constraint> cs, SubscriptionId id = 1,
                      Key subscriber = 0) {
  Subscription s;
  s.id = id;
  s.subscriber = subscriber;
  s.constraints = std::move(cs);
  return s;
}

Event make_event(std::vector<Value> values, EventId id = 1) {
  Event e;
  e.id = id;
  e.values = std::move(values);
  return e;
}

// ---------------------------------------------------------------------------
// ScalingHasher
// ---------------------------------------------------------------------------

TEST(ScalingHasherTest, MatchesPaperFormula) {
  // h(x) = x * 2^l / |Omega|, domain [0,7], l=2: h(x) = x/2.
  ScalingHasher h({0, 7}, 2);
  EXPECT_EQ(h.hash(0), 0u);
  EXPECT_EQ(h.hash(1), 0u);
  EXPECT_EQ(h.hash(4), 2u);
  EXPECT_EQ(h.hash(5), 2u);
  EXPECT_EQ(h.hash(6), 3u);
  EXPECT_EQ(h.hash(7), 3u);
}

TEST(ScalingHasherTest, MonotoneAndBounded) {
  ScalingHasher h({0, 1'000'000}, 13);
  std::uint64_t prev = 0;
  for (Value x = 0; x <= 1'000'000; x += 997) {
    const std::uint64_t v = h.hash(x);
    EXPECT_GE(v, prev);
    EXPECT_LT(v, 1u << 13);
    prev = v;
  }
}

TEST(ScalingHasherTest, ShiftedDomain) {
  ScalingHasher h({-100, 99}, 4);  // width 200, 16 buckets of 12.5
  EXPECT_EQ(h.hash(-100), 0u);
  EXPECT_EQ(h.hash(99), 15u);
}

TEST(ScalingHasherTest, HashSetContiguousWithoutDiscretization) {
  ScalingHasher h({0, 999}, 5);  // 32 keys over 1000 values
  const auto set = h.hash_set({100, 400});
  ASSERT_FALSE(set.empty());
  EXPECT_EQ(set.front(), h.hash(100));
  EXPECT_EQ(set.back(), h.hash(400));
  for (std::size_t i = 1; i < set.size(); ++i) {
    EXPECT_EQ(set[i], set[i - 1] + 1);
  }
  // ceil(r * 2^l / |Omega|)-ish: 301 * 32 / 1000 ≈ 9.6.
  EXPECT_NEAR(static_cast<double>(set.size()), 10.0, 1.0);
}

TEST(ScalingHasherTest, HashSetClampsToDomain) {
  ScalingHasher h({0, 99}, 4);
  EXPECT_TRUE(h.hash_set({200, 300}).empty());
  const auto set = h.hash_set({50, 500});
  EXPECT_EQ(set.back(), h.hash(99));
}

TEST(ScalingHasherTest, DiscretizationCoarsensKeys) {
  // Domain 1e6, l=13; a 30k range maps to ~246 keys raw but far fewer
  // with 1500-wide intervals (§4.3.3).
  ScalingHasher fine({0, 999'999}, 13);
  ScalingHasher coarse({0, 999'999}, 13, 1500);
  const ClosedInterval r{100'000, 130'000};
  const auto fine_keys = fine.hash_set(r);
  const auto coarse_keys = coarse.hash_set(r);
  EXPECT_GT(fine_keys.size(), 5 * coarse_keys.size());
  // Every value's coarse hash must be in the coarse key set (EK/SK
  // consistency).
  for (Value x = r.lo; x <= r.hi; x += 37) {
    EXPECT_TRUE(std::binary_search(coarse_keys.begin(), coarse_keys.end(),
                                   coarse.hash(x)));
  }
}

TEST(ScalingHasherTest, DiscretizedValuesShareIntervalKey) {
  ScalingHasher h({0, 999}, 8, 100);
  for (Value base = 0; base < 1000; base += 100) {
    const std::uint64_t k = h.hash(base);
    for (Value off = 1; off < 100; off += 13) {
      EXPECT_EQ(h.hash(base + off), k) << base << "+" << off;
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 3 worked example
// ---------------------------------------------------------------------------
//
// sigma = {a1 < 2, 3 < a2 < 7}, e = {a1 = 1, a2 = 6} over two attributes
// with |Omega_i| = 8.

class MappingFig3Test : public ::testing::Test {
 protected:
  Schema schema_ = Schema::uniform(2, 7);  // values 0..7
  Subscription sub_ = make_sub({{0, {0, 1}}, {1, {4, 6}}});
  Event event_ = make_event({1, 6});
};

TEST_F(MappingFig3Test, AttributeSplit) {
  // With the key space coinciding with the attribute space (m=3, so
  // h = identity): SK = H(c1) ∪ H(c2) = {0,1} ∪ {4,5,6}; EK ∈ SK.
  auto mapping = make_mapping(MappingKind::kAttributeSplit, schema_,
                              RingParams{3});
  EXPECT_EQ(mapping->subscription_keys(sub_),
            (std::vector<Key>{0, 1, 4, 5, 6}));
  // Figure 3(b): EK(e) = h(e.a1) = 1. EK hashes attribute (event id mod
  // d), so an even id picks a1.
  const Event even_id = make_event({1, 6}, 2);
  EXPECT_EQ(mapping->event_keys(even_id), std::vector<Key>{1});
}

TEST_F(MappingFig3Test, KeySpaceSplit) {
  // m=4, d=2 -> l=2: h(x) = x/2. H(c1) = {00}, H(c2) = {10, 11};
  // SK = {0010, 0011}; EK = h(1)∘h(6) = 00∘11 = 0011 (Figure 3(c)).
  auto mapping = make_mapping(MappingKind::kKeySpaceSplit, schema_,
                              RingParams{4});
  EXPECT_EQ(mapping->subscription_keys(sub_),
            (std::vector<Key>{0b0010, 0b0011}));
  EXPECT_EQ(mapping->event_keys(event_), std::vector<Key>{0b0011});
}

TEST_F(MappingFig3Test, SelectiveAttribute) {
  // c1 spans 2 of 8 values, c2 spans 3: attribute 0 is most selective,
  // so SK = H(c1) = {0, 1}; EK = {h(1), h(6)} = {1, 6}.
  auto mapping = make_mapping(MappingKind::kSelectiveAttribute, schema_,
                              RingParams{3});
  EXPECT_EQ(mapping->subscription_keys(sub_), (std::vector<Key>{0, 1}));
  EXPECT_EQ(mapping->event_keys(event_), (std::vector<Key>{1, 6}));
}

// ---------------------------------------------------------------------------
// Subscription helpers
// ---------------------------------------------------------------------------

TEST(SubscriptionTest, MatchesConjunction) {
  const Schema schema = Schema::uniform(3, 100);
  const Subscription s = make_sub({{0, {10, 20}}, {2, {50, 60}}});
  EXPECT_TRUE(s.matches(make_event({15, 99, 55})));
  EXPECT_FALSE(s.matches(make_event({15, 99, 61})));
  EXPECT_FALSE(s.matches(make_event({9, 99, 55})));
  // Unconstrained attribute 1 never filters.
  EXPECT_TRUE(s.matches(make_event({10, 0, 50})));
}

TEST(SubscriptionTest, ValidityChecks) {
  const Schema schema = Schema::uniform(2, 100);
  EXPECT_TRUE(make_sub({{0, {0, 100}}}).valid_for(schema));
  EXPECT_FALSE(make_sub({{2, {0, 10}}}).valid_for(schema));  // bad attr
  EXPECT_FALSE(
      make_sub({{0, {0, 101}}}).valid_for(schema));  // beyond domain
  EXPECT_FALSE(make_sub({{0, {0, 1}}, {0, {5, 6}}})
                   .valid_for(schema));  // duplicate attr
}

// Both structural checks, case by case. valid_for adds the domain bound
// on top of well_formed_for; everything else is rejected by both.
TEST(SubscriptionTest, ValidAndWellFormedVerdicts) {
  const Schema schema = Schema::uniform(3, 100);
  struct Case {
    const char* what;
    std::vector<Constraint> cs;
    bool well_formed;
    bool valid;
  };
  const Case cases[] = {
      {"empty conjunction", {}, true, true},
      {"one per attribute, any order",
       {{2, {0, 1}}, {0, {5, 6}}, {1, {0, 100}}}, true, true},
      {"duplicate attribute", {{0, {0, 1}}, {0, {5, 6}}}, false, false},
      {"non-adjacent duplicate",
       {{1, {0, 1}}, {2, {0, 1}}, {1, {7, 9}}}, false, false},
      {"attribute == dimensions()", {{3, {0, 10}}}, false, false},
      {"attribute far past dimensions()", {{0, {0, 1}}, {1000, {0, 1}}},
       false, false},
      {"range past the domain's top", {{0, {0, 101}}}, true, false},
      {"range below the domain's bottom", {{1, {-1, 5}}}, true, false},
      {"range disjoint from the domain", {{2, {200, 300}}}, true, false},
      {"more constraints than dimensions",
       {{0, {0, 1}}, {1, {0, 1}}, {2, {0, 1}}, {0, {0, 1}}}, false, false},
  };
  for (const Case& c : cases) {
    const Subscription s = make_sub(c.cs);
    EXPECT_EQ(s.well_formed_for(schema), c.well_formed) << c.what;
    EXPECT_EQ(s.valid_for(schema), c.valid) << c.what;
  }
}

TEST(SubscriptionTest, MostSelectiveAttribute) {
  const Schema schema = Schema::uniform(3, 999);
  EXPECT_EQ(make_sub({{0, {0, 499}}, {1, {0, 9}}, {2, {0, 99}}})
                .most_selective_attribute(schema),
            std::optional<std::size_t>(1));
  // Ties break to the lowest index.
  EXPECT_EQ(make_sub({{1, {0, 9}}, {2, {10, 19}}})
                .most_selective_attribute(schema),
            std::optional<std::size_t>(1));
  EXPECT_FALSE(make_sub({}).most_selective_attribute(schema).has_value());
}

TEST(SubscriptionTest, EqualityConstraintIsPoint) {
  const Schema schema = Schema::uniform(1, 999);
  const Subscription s = make_sub({{0, ClosedInterval::point(42)}});
  EXPECT_TRUE(s.matches(make_event({42})));
  EXPECT_FALSE(s.matches(make_event({43})));
  EXPECT_DOUBLE_EQ(s.selectivity(schema, 0), 1.0 / 1000.0);
}

// ---------------------------------------------------------------------------
// Paper §4.2 key-count behavior (paper workload parameters)
// ---------------------------------------------------------------------------

class MappingKeyCountTest : public ::testing::Test {
 protected:
  static constexpr Value kAttrMax = 1'000'000;
  Schema schema_ = Schema::uniform(4, kAttrMax);
  RingParams ring_{13};

  // A non-selective subscription: 3%-of-domain ranges on each attribute.
  Subscription nonselective_ = make_sub({{0, {100'000, 130'000}},
                                         {1, {200'000, 230'000}},
                                         {2, {300'000, 330'000}},
                                         {3, {400'000, 430'000}}});
  // Same but with one highly selective (0.1%) constraint.
  Subscription selective_ = make_sub({{0, {100'000, 100'999}},
                                      {1, {200'000, 230'000}},
                                      {2, {300'000, 330'000}},
                                      {3, {400'000, 430'000}}});
};

TEST_F(MappingKeyCountTest, AttributeSplitSumsPerAttributeRanges) {
  auto m = make_mapping(MappingKind::kAttributeSplit, schema_, ring_);
  // Each 30k range -> ~ceil(30001 * 8192 / 1e6+1) ≈ 246 keys; 4 attrs.
  const auto keys = m->subscription_keys(nonselective_);
  EXPECT_NEAR(static_cast<double>(keys.size()), 4 * 246.0, 30.0);
  // Publications map to exactly one key.
  EXPECT_EQ(m->event_keys(make_event({1, 2, 3, 4})).size(), 1u);
}

TEST_F(MappingKeyCountTest, KeySpaceSplitMapsToFewKeys) {
  auto m = make_mapping(MappingKind::kKeySpaceSplit, schema_, ring_);
  // l = 13/4 = 3 bits per attribute: a 3% range covers at most 2 of the
  // 8 fragments -> product stays tiny ("slightly over one key", §5.2).
  const auto keys = m->subscription_keys(nonselective_);
  EXPECT_GE(keys.size(), 1u);
  EXPECT_LE(keys.size(), 16u);
  EXPECT_EQ(m->event_keys(make_event({1, 2, 3, 4})).size(), 1u);
}

TEST_F(MappingKeyCountTest, SelectiveAttributeUsesMostSelectiveOnly) {
  auto m = make_mapping(MappingKind::kSelectiveAttribute, schema_, ring_);
  // Non-selective sub: smallest of the four ranges, here all 30k ->
  // ~246 keys; with the selective constraint -> ~8 keys.
  const auto ns = m->subscription_keys(nonselective_);
  EXPECT_NEAR(static_cast<double>(ns.size()), 246.0, 10.0);
  const auto sel = m->subscription_keys(selective_);
  EXPECT_LE(sel.size(), 10u);
  // Events map to d keys (4, minus collisions).
  const auto ek = m->event_keys(make_event({1, 250'000, 500'000, 750'000}));
  EXPECT_EQ(ek.size(), 4u);
}

TEST_F(MappingKeyCountTest, AttributeSplitRoughlyTenTimesSelective) {
  // §5.2: "The number of mapped keys per subscription was about ten
  // times higher for mapping 1 compared with mapping 3" under the
  // paper's workload. Check the ratio statistically.
  auto m1 = make_mapping(MappingKind::kAttributeSplit, schema_, ring_);
  auto m3 = make_mapping(MappingKind::kSelectiveAttribute, schema_, ring_);
  workload::WorkloadGenerator gen(schema_, {}, 99);
  double sum1 = 0, sum3 = 0;
  for (int i = 0; i < 200; ++i) {
    const Subscription s = make_sub(gen.make_constraints());
    sum1 += static_cast<double>(m1->subscription_keys(s).size());
    sum3 += static_cast<double>(m3->subscription_keys(s).size());
  }
  const double ratio = sum1 / sum3;
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 14.0);
}

TEST_F(MappingKeyCountTest, PartiallyDefinedSubscriptions) {
  // §4.2: Selective-Attribute is the least sensitive to subscriptions
  // constraining only some attributes.
  const Subscription partial = make_sub({{2, {300'000, 300'999}}});
  auto m1 = make_mapping(MappingKind::kAttributeSplit, schema_, ring_);
  auto m3 = make_mapping(MappingKind::kSelectiveAttribute, schema_, ring_);
  const auto k1 = m1->subscription_keys(partial);
  const auto k3 = m3->subscription_keys(partial);
  EXPECT_LE(k3.size(), 10u);
  // Attribute-Split must cover unconstrained attributes entirely.
  EXPECT_GT(k1.size(), 8000u);
}

// ---------------------------------------------------------------------------
// subscription_ranges (collecting support)
// ---------------------------------------------------------------------------

TEST(MappingRangesTest, ContiguousRunsCompress) {
  const Schema schema = Schema::uniform(2, 999'999);
  auto m = make_mapping(MappingKind::kSelectiveAttribute, schema,
                        RingParams{13});
  const Subscription s = make_sub({{0, {0, 30'000}}, {1, {0, 999'999}}});
  const auto ranges = m->subscription_ranges(s);
  ASSERT_EQ(ranges.size(), 1u);
  const auto keys = m->subscription_keys(s);
  EXPECT_EQ(ranges[0].lo, keys.front());
  EXPECT_EQ(ranges[0].hi, keys.back());
  EXPECT_EQ(ranges[0].size(RingParams{13}), keys.size());
}

TEST(MappingRangesTest, AttributeSplitYieldsOneRunPerAttribute) {
  const Schema schema = Schema::uniform(3, 999'999);
  auto m = make_mapping(MappingKind::kAttributeSplit, schema,
                        RingParams{13});
  const Subscription s = make_sub(
      {{0, {0, 20'000}}, {1, {400'000, 420'000}}, {2, {800'000, 820'000}}});
  const auto ranges = m->subscription_ranges(s);
  EXPECT_EQ(ranges.size(), 3u);
}

// ---------------------------------------------------------------------------
// The mapping intersection rule (property tests)
// ---------------------------------------------------------------------------

struct IntersectionParam {
  MappingKind kind;
  Value discretization;
  bool selective_attr;
};

class IntersectionRuleTest
    : public ::testing::TestWithParam<IntersectionParam> {};

TEST_P(IntersectionRuleTest, MatchingPairsAlwaysIntersect) {
  const IntersectionParam param = GetParam();
  const Schema schema = Schema::uniform(4, 1'000'000);
  const RingParams ring{13};
  MappingOptions opt;
  opt.discretization = param.discretization;
  auto mapping = make_mapping(param.kind, schema, ring, opt);

  workload::WorkloadParams wp;
  if (param.selective_attr) wp.selective = {true, false, false, false};
  workload::WorkloadGenerator gen(schema, wp, 4242);

  for (int iter = 0; iter < 500; ++iter) {
    Subscription sub = make_sub(gen.make_constraints(),
                                static_cast<SubscriptionId>(iter + 1));
    // Randomly drop constraints to cover partially-defined subscriptions.
    while (sub.constraints.size() > 1 && gen.rng().bernoulli(0.2)) {
      sub.constraints.pop_back();
    }
    const Event e = make_event(gen.make_matching_values(sub),
                               static_cast<EventId>(iter + 1));
    ASSERT_TRUE(sub.matches(e));

    const auto sk = mapping->subscription_keys(sub);
    const auto ek = mapping->event_keys(e);
    ASSERT_FALSE(sk.empty());
    ASSERT_FALSE(ek.empty());
    const bool intersects = std::any_of(ek.begin(), ek.end(), [&](Key k) {
      return std::binary_search(sk.begin(), sk.end(), k);
    });
    ASSERT_TRUE(intersects)
        << to_string(param.kind) << " violated the intersection rule for "
        << sub << " and " << e;

    // Exactly-once support: at least one EK key must pass should_notify,
    // and every passing key must be in SK.
    int responsible = 0;
    for (Key k : ek) {
      if (mapping->should_notify(sub, e, k)) {
        ++responsible;
        EXPECT_TRUE(std::binary_search(sk.begin(), sk.end(), k));
      }
    }
    ASSERT_GE(responsible, 1);
    if (param.kind == MappingKind::kSelectiveAttribute) {
      ASSERT_EQ(responsible, 1)
          << "selective-attribute must have a unique responsible key";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMappings, IntersectionRuleTest,
    ::testing::Values(
        IntersectionParam{MappingKind::kAttributeSplit, 1, false},
        IntersectionParam{MappingKind::kAttributeSplit, 1, true},
        IntersectionParam{MappingKind::kAttributeSplit, 1500, false},
        IntersectionParam{MappingKind::kKeySpaceSplit, 1, false},
        IntersectionParam{MappingKind::kKeySpaceSplit, 1, true},
        IntersectionParam{MappingKind::kKeySpaceSplit, 1500, false},
        IntersectionParam{MappingKind::kSelectiveAttribute, 1, false},
        IntersectionParam{MappingKind::kSelectiveAttribute, 1, true},
        IntersectionParam{MappingKind::kSelectiveAttribute, 1500, false},
        IntersectionParam{MappingKind::kSelectiveAttribute, 1500, true}),
    [](const ::testing::TestParamInfo<IntersectionParam>& info) {
      std::string name{to_string(info.param.kind)};
      std::replace(name.begin(), name.end(), '-', '_');
      name += info.param.discretization > 1 ? "_disc" : "_fine";
      name += info.param.selective_attr ? "_sel" : "_nosel";
      return name;
    });

TEST(MappingMiscTest, NonMatchingEventsUsuallyMissSubscription) {
  // Sanity: EK of a far-away event should not hit SK of a tight sub
  // (not a guarantee, but should hold for clearly disjoint values).
  const Schema schema = Schema::uniform(4, 1'000'000);
  auto m = make_mapping(MappingKind::kKeySpaceSplit, schema, RingParams{13});
  const Subscription s = make_sub(
      {{0, {0, 100}}, {1, {0, 100}}, {2, {0, 100}}, {3, {0, 100}}});
  const Event e = make_event({900'000, 900'000, 900'000, 900'000});
  const auto sk = m->subscription_keys(s);
  const auto ek = m->event_keys(e);
  EXPECT_FALSE(std::binary_search(sk.begin(), sk.end(), ek[0]));
}

TEST(MappingMiscTest, EventKeysSortedAndUnique) {
  const Schema schema = Schema::uniform(4, 1'000'000);
  Rng rng(5);
  for (MappingKind kind :
       {MappingKind::kAttributeSplit, MappingKind::kKeySpaceSplit,
        MappingKind::kSelectiveAttribute}) {
    auto m = make_mapping(kind, schema, RingParams{13});
    for (int i = 0; i < 50; ++i) {
      Event e = make_event({rng.uniform_int(0, 1'000'000),
                            rng.uniform_int(0, 1'000'000),
                            rng.uniform_int(0, 1'000'000),
                            rng.uniform_int(0, 1'000'000)},
                           static_cast<EventId>(i + 1));
      const auto ek = m->event_keys(e);
      EXPECT_TRUE(std::is_sorted(ek.begin(), ek.end()));
      EXPECT_EQ(std::adjacent_find(ek.begin(), ek.end()), ek.end());
      for (Key k : ek) EXPECT_LE(k, RingParams{13}.max_key());
    }
  }
}

// ---------------------------------------------------------------------------
// Key-space rotation (the "nearly static" hotspot adjustment of §4.2)
// ---------------------------------------------------------------------------

TEST(MappingRotationTest, RotationShiftsEveryKeyConsistently) {
  const Schema schema = Schema::uniform(2, 9'999);
  const RingParams ring{10};
  MappingOptions rotated;
  rotated.rotation = 300;
  auto base = make_mapping(MappingKind::kSelectiveAttribute, schema, ring);
  auto rot = make_mapping(MappingKind::kSelectiveAttribute, schema, ring,
                          rotated);

  const Subscription sub = make_sub({{0, {1'000, 1'400}}});
  const auto k0 = base->subscription_keys(sub);
  const auto k1 = rot->subscription_keys(sub);
  ASSERT_EQ(k0.size(), k1.size());
  for (std::size_t i = 0; i < k0.size(); ++i) {
    EXPECT_EQ(ring.add(k0[i], 300), k1[i]);
  }
  const Event e = make_event({1'200, 5'000});
  const auto e0 = base->event_keys(e);
  const auto e1 = rot->event_keys(e);
  ASSERT_EQ(e0.size(), e1.size());
  for (std::size_t i = 0; i < e0.size(); ++i) {
    EXPECT_EQ(ring.add(e0[i], 300), e1[i]);
  }
}

TEST(MappingRotationTest, IntersectionRuleHoldsUnderRotation) {
  const Schema schema = Schema::uniform(4, 1'000'000);
  const RingParams ring{13};
  workload::WorkloadGenerator gen(schema, {}, 808);
  for (const MappingKind kind :
       {MappingKind::kAttributeSplit, MappingKind::kKeySpaceSplit,
        MappingKind::kSelectiveAttribute}) {
    MappingOptions opt;
    opt.rotation = 4'321;
    auto m = make_mapping(kind, schema, ring, opt);
    for (int i = 0; i < 100; ++i) {
      const Subscription sub = make_sub(gen.make_constraints(),
                                        static_cast<SubscriptionId>(i + 1));
      const Event e = make_event(gen.make_matching_values(sub),
                                 static_cast<EventId>(i + 1));
      const auto sk = m->subscription_keys(sub);
      const auto ek = m->event_keys(e);
      int responsible = 0;
      for (Key k : ek) {
        if (m->should_notify(sub, e, k)) {
          ++responsible;
          EXPECT_TRUE(std::binary_search(sk.begin(), sk.end(), k));
        }
      }
      ASSERT_GE(responsible, 1) << to_string(kind);
    }
  }
}

TEST(MappingRotationTest, RotationRelocatesHotspot) {
  // The point of the adjustment: the same hot subscription region maps
  // to a disjoint set of keys after an epoch change.
  const Schema schema = Schema::uniform(1, 9'999);
  const RingParams ring{10};
  MappingOptions epoch1;
  epoch1.rotation = 512;  // half the ring
  auto m0 = make_mapping(MappingKind::kSelectiveAttribute, schema, ring);
  auto m1 = make_mapping(MappingKind::kSelectiveAttribute, schema, ring,
                         epoch1);
  const Subscription hot = make_sub({{0, {0, 200}}});
  const auto k0 = m0->subscription_keys(hot);
  const auto k1 = m1->subscription_keys(hot);
  for (Key k : k1) {
    EXPECT_FALSE(std::binary_search(k0.begin(), k0.end(), k));
  }
}

TEST(MappingRotationTest, RangesStayContiguousAcrossWrap) {
  const Schema schema = Schema::uniform(1, 9'999);
  const RingParams ring{10};
  MappingOptions opt;
  opt.rotation = 1'000;  // pushes high keys past 2^10
  auto m = make_mapping(MappingKind::kSelectiveAttribute, schema, ring, opt);
  const Subscription sub = make_sub({{0, {9'000, 9'999}}});
  const auto ranges = m->subscription_ranges(sub);
  ASSERT_EQ(ranges.size(), 1u);  // wrap-merged into one ring range
  const auto keys = m->subscription_keys(sub);
  EXPECT_EQ(ranges[0].size(ring), keys.size());
  for (Key k : keys) EXPECT_TRUE(ranges[0].contains(ring, k));
}

// ---------------------------------------------------------------------------
// subscription_ranges vs the key lists it replaced
// ---------------------------------------------------------------------------

// SK as the mappings computed it before they emitted runs: the union of
// per-attribute hash sets (M1), the product of fragment sets (M2) or the
// selective attribute's set (M3), sorted and deduplicated, then rotated
// and sorted again.
std::vector<Key> legacy_subscription_keys(MappingKind kind,
                                          const Schema& schema,
                                          RingParams ring,
                                          const MappingOptions& opt,
                                          const Subscription& sub) {
  const auto range = [&](std::size_t i) {
    const Constraint* c = sub.constraint_on(i);
    return c ? c->range : schema.domain(i);
  };
  const auto hash_set = [&](std::size_t i, unsigned bits) {
    return ScalingHasher(schema.domain(i), bits, opt.discretization)
        .hash_set(range(i));
  };
  std::vector<Key> keys;
  switch (kind) {
    case MappingKind::kAttributeSplit:
      for (std::size_t i = 0; i < schema.dimensions(); ++i) {
        for (const std::uint64_t h : hash_set(i, ring.bits())) {
          keys.push_back(h);
        }
      }
      break;
    case MappingKind::kKeySpaceSplit: {
      const auto d = static_cast<unsigned>(schema.dimensions());
      const unsigned frag = ring.bits() / d;
      const unsigned pad = ring.bits() - frag * d;
      keys = {0};
      for (std::size_t i = 0; i < schema.dimensions(); ++i) {
        std::vector<Key> next;
        for (const Key p : keys) {
          for (const std::uint64_t f : hash_set(i, frag)) {
            next.push_back((p << frag) | f);
          }
        }
        keys = std::move(next);
      }
      for (Key& k : keys) k <<= pad;
      break;
    }
    case MappingKind::kSelectiveAttribute:
      for (const std::uint64_t h :
           hash_set(sub.most_selective_attribute(schema).value_or(0),
                    ring.bits())) {
        keys.push_back(h);
      }
      break;
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (opt.rotation != 0) {
    for (Key& k : keys) k = ring.add(k, opt.rotation);
    std::sort(keys.begin(), keys.end());
  }
  return keys;
}

// The former subscription_ranges: maximal runs of a sorted key list, a
// run ending at 2^m - 1 merged into one starting at 0.
std::vector<KeyRange> legacy_ranges(RingParams ring,
                                    const std::vector<Key>& keys) {
  std::vector<KeyRange> runs;
  for (Key k : keys) {
    if (!runs.empty() && runs.back().hi + 1 == k) {
      runs.back().hi = k;
    } else {
      runs.push_back({k, k});
    }
  }
  if (runs.size() >= 2 && runs.front().lo == 0 &&
      runs.back().hi == ring.max_key()) {
    runs.front().lo = runs.back().lo;
    runs.pop_back();
  }
  return runs;
}

// Every mapping, with and without rotation and discretization, on random
// subscriptions (unconstrained, point, partial and domain-straddling
// constraints): subscription_ranges equals the compression of the old
// key list, and subscription_keys equals the old key list.
TEST(MappingRangesTest, RunsMatchCompressedLegacyKeys) {
  Rng rng(77);
  std::size_t checked = 0;
  for (const MappingKind kind :
       {MappingKind::kAttributeSplit, MappingKind::kKeySpaceSplit,
        MappingKind::kSelectiveAttribute}) {
    for (const unsigned bits : {8u, 11u, 13u}) {
      for (const Value width : {Value{1}, Value{7}, Value{60}}) {
        for (const bool rotate : {false, true}) {
          const RingParams ring{bits};
          const std::size_t d = 1 + static_cast<std::size_t>(
                                        rng.uniform_int(0, 3));
          const Schema schema =
              Schema::uniform(d, rng.bernoulli(0.5) ? 999 : 99'999);
          MappingOptions opt;
          opt.discretization = width;
          if (rotate) {
            opt.rotation = static_cast<Key>(rng.uniform_int(
                1, static_cast<std::int64_t>(ring.max_key())));
          }
          const auto mapping = make_mapping(kind, schema, ring, opt);
          for (int n = 0; n < 40; ++n) {
            Subscription sub;
            sub.id = 1;
            for (std::size_t a = 0; a < d; ++a) {
              if (rng.bernoulli(0.3)) continue;  // unconstrained
              const Value hi = schema.domain(a).hi;
              const Value lo = rng.uniform_int(-hi / 10, hi);
              // Reaches into the domain: M2 needs a fragment per attribute.
              const Value len = std::max(
                  -lo, rng.bernoulli(0.2) ? 0 : rng.uniform_int(0, hi / 3));
              sub.constraints.push_back({a, {lo, lo + len}});
            }
            const std::vector<Key> keys =
                legacy_subscription_keys(kind, schema, ring, opt, sub);
            SCOPED_TRACE(::testing::Message()
                         << to_string(kind) << " bits " << bits << " width "
                         << width << " rotation " << opt.rotation);
            EXPECT_EQ(mapping->subscription_ranges(sub),
                      legacy_ranges(ring, keys));
            EXPECT_EQ(mapping->subscription_keys(sub), keys);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 3u * 3u * 3u * 2u * 40u);
}

// ---------------------------------------------------------------------------
// String attributes (§3.2 footnote 2)
// ---------------------------------------------------------------------------

TEST(SchemaStringTest, HashedStringsLandInDomain) {
  const Schema schema({{"topic", {0, 999}}, {"price", {0, 10'000}}});
  for (const char* name : {"sports", "politics", "weather", ""}) {
    const Value v = schema.value_from_string(0, name);
    EXPECT_TRUE(schema.domain(0).contains(v)) << name;
  }
}

TEST(SchemaStringTest, DeterministicAndDiscriminating) {
  const Schema schema({{"topic", {0, 999'999}}});
  EXPECT_EQ(schema.value_from_string(0, "sports"),
            schema.value_from_string(0, "sports"));
  EXPECT_NE(schema.value_from_string(0, "sports"),
            schema.value_from_string(0, "politics"));
}

TEST(SchemaStringTest, EqualityConstraintOnHashedStringMatches) {
  const Schema schema({{"topic", {0, 999'999}}, {"price", {0, 1'000}}});
  const Value sports = schema.value_from_string(0, "sports");
  const Subscription sub =
      make_sub({{0, ClosedInterval::point(sports)}, {1, {100, 200}}});
  EXPECT_TRUE(sub.matches(make_event({sports, 150})));
  EXPECT_FALSE(sub.matches(
      make_event({schema.value_from_string(0, "politics"), 150})));
}

TEST(MappingMiscTest, DiscretizationReducesSubscriptionKeys) {
  // §4.3.3 / Figure 9(b): coarser discretization, fewer rendezvous keys.
  const Schema schema = Schema::uniform(4, 1'000'000);
  workload::WorkloadGenerator gen(schema, {}, 7);
  MappingOptions fine;
  MappingOptions disc10;
  disc10.discretization = 1500;  // 10% of the 15k mean range
  MappingOptions disc20;
  disc20.discretization = 3000;
  auto m_fine = make_mapping(MappingKind::kSelectiveAttribute, schema,
                             RingParams{13}, fine);
  auto m_10 = make_mapping(MappingKind::kSelectiveAttribute, schema,
                           RingParams{13}, disc10);
  auto m_20 = make_mapping(MappingKind::kSelectiveAttribute, schema,
                           RingParams{13}, disc20);
  double k_fine = 0, k_10 = 0, k_20 = 0;
  for (int i = 0; i < 100; ++i) {
    const Subscription s = make_sub(gen.make_constraints());
    k_fine += static_cast<double>(m_fine->subscription_keys(s).size());
    k_10 += static_cast<double>(m_10->subscription_keys(s).size());
    k_20 += static_cast<double>(m_20->subscription_keys(s).size());
  }
  EXPECT_GT(k_fine, k_10);
  EXPECT_GT(k_10, k_20);
}

}  // namespace
}  // namespace cbps::pubsub
