// Tests for the rendezvous matching engines: counting-index unit
// behaviour, covering/merging semantics, and differential properties
// driving every engine against the brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cbps/pubsub/counting_index.hpp"
#include "cbps/pubsub/covering_index.hpp"
#include "cbps/pubsub/store.hpp"
#include "cbps/workload/generator.hpp"

namespace cbps::pubsub {
namespace {

SubscriptionPtr make_sub(SubscriptionId id, std::vector<Constraint> cs) {
  auto s = std::make_shared<Subscription>();
  s->id = id;
  s->subscriber = 1;
  s->constraints = std::move(cs);
  return s;
}

Event make_event(std::vector<Value> values, EventId id = 1) {
  Event e;
  e.id = id;
  e.values = std::move(values);
  return e;
}

TEST(CountingIndexTest, SingleConstraintMatch) {
  const Schema schema = Schema::uniform(2, 999);
  CountingIndex index(schema, 16);
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {100, 200}}})));
  EXPECT_EQ(index.match(make_event({150, 0})),
            std::vector<SubscriptionId>{1});
  EXPECT_TRUE(index.match(make_event({201, 0})).empty());
  EXPECT_TRUE(index.match(make_event({99, 999})).empty());
}

TEST(CountingIndexTest, ConjunctionRequiresAllConstraints) {
  const Schema schema = Schema::uniform(3, 999);
  CountingIndex index(schema, 16);
  index.insert(make_sub(1, {{0, {0, 499}}, {2, {500, 999}}}));
  EXPECT_EQ(index.match(make_event({100, 7, 600})).size(), 1u);
  EXPECT_TRUE(index.match(make_event({100, 7, 499})).empty());
  EXPECT_TRUE(index.match(make_event({500, 7, 600})).empty());
}

TEST(CountingIndexTest, EmptyConstraintsMatchEverything) {
  const Schema schema = Schema::uniform(2, 999);
  CountingIndex index(schema, 16);
  index.insert(make_sub(7, {}));
  EXPECT_EQ(index.match(make_event({0, 999})),
            std::vector<SubscriptionId>{7});
  EXPECT_TRUE(index.remove(7));
  EXPECT_TRUE(index.match(make_event({0, 999})).empty());
}

TEST(CountingIndexTest, DuplicateInsertRejected) {
  const Schema schema = Schema::uniform(1, 99);
  CountingIndex index(schema, 4);
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {0, 50}}})));
  EXPECT_FALSE(index.insert(make_sub(1, {{0, {0, 50}}})));
  EXPECT_EQ(index.match(make_event({25})).size(), 1u);  // no double count
}

TEST(CountingIndexTest, RemoveUnknownReturnsFalse) {
  const Schema schema = Schema::uniform(1, 99);
  CountingIndex index(schema, 4);
  EXPECT_FALSE(index.remove(42));
}

TEST(CountingIndexTest, DomainBoundaryValues) {
  const Schema schema = Schema::uniform(1, 999);
  CountingIndex index(schema, 7);  // non-divisible bucket count
  index.insert(make_sub(1, {{0, {0, 0}}}));
  index.insert(make_sub(2, {{0, {999, 999}}}));
  index.insert(make_sub(3, {{0, {0, 999}}}));
  const auto at_lo = index.match(make_event({0}));
  EXPECT_EQ(std::set<SubscriptionId>(at_lo.begin(), at_lo.end()),
            (std::set<SubscriptionId>{1, 3}));
  const auto at_hi = index.match(make_event({999}));
  EXPECT_EQ(std::set<SubscriptionId>(at_hi.begin(), at_hi.end()),
            (std::set<SubscriptionId>{2, 3}));
}

TEST(CountingIndexTest, ShiftedDomain) {
  const Schema schema({{"t", {-100, 100}}});
  CountingIndex index(schema, 8);
  index.insert(make_sub(1, {{0, {-50, -10}}}));
  EXPECT_EQ(index.match(make_event({-30})).size(), 1u);
  EXPECT_TRUE(index.match(make_event({0})).empty());
}

TEST(CountingIndexTest, EquivalentToBruteForceOnRandomWorkload) {
  const Schema schema = Schema::uniform(4, 1'000'000);
  CountingIndex index(schema, 256);
  workload::WorkloadParams wp;
  wp.nonselective_range_frac = 0.10;
  workload::WorkloadGenerator gen(schema, wp, 31337);

  std::vector<SubscriptionPtr> subs;
  for (int i = 0; i < 400; ++i) {
    auto cs = gen.make_constraints();
    // Drop random constraints to cover partial subscriptions.
    while (cs.size() > 1 && gen.rng().bernoulli(0.3)) cs.pop_back();
    auto s = make_sub(static_cast<SubscriptionId>(i + 1), std::move(cs));
    index.insert(s);
    subs.push_back(std::move(s));
  }
  // Interleave removals.
  for (int i = 0; i < 100; ++i) {
    const auto pick = static_cast<std::size_t>(
        gen.rng().uniform_int(0, static_cast<std::int64_t>(subs.size()) - 1));
    index.remove(subs[pick]->id);
    subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  for (int trial = 0; trial < 300; ++trial) {
    Event e;
    e.id = static_cast<EventId>(trial + 1);
    if (trial % 2 == 0 && !subs.empty()) {
      const auto pick = static_cast<std::size_t>(gen.rng().uniform_int(
          0, static_cast<std::int64_t>(subs.size()) - 1));
      e.values = gen.make_matching_values(*subs[pick]);
    } else {
      e.values = gen.make_random_values();
    }

    std::set<SubscriptionId> expected;
    for (const auto& s : subs) {
      if (s->matches(e)) expected.insert(s->id);
    }
    const auto got_vec = index.match(e);
    const std::set<SubscriptionId> got(got_vec.begin(), got_vec.end());
    ASSERT_EQ(got, expected) << "trial " << trial;
    ASSERT_EQ(got_vec.size(), got.size()) << "duplicate ids reported";
  }
}

// The counting index as it was before bucket registration was batched:
// insert() registers every bucket entry at once. Kept as the reference
// for the batched index's match output, order included.
class EagerCountingIndex {
 public:
  EagerCountingIndex(const Schema& schema, std::size_t buckets)
      : schema_(schema), buckets_per_attribute_(buckets),
        buckets_(schema.dimensions(),
                 std::vector<std::vector<Entry>>(buckets)) {}

  bool insert(const SubscriptionPtr& sub) {
    if (subs_.contains(sub->id)) return false;
    std::uint32_t dense;
    if (!free_dense_.empty()) {
      dense = free_dense_.back();
      free_dense_.pop_back();
    } else {
      dense = static_cast<std::uint32_t>(dense_.size());
      dense_.emplace_back();
    }
    dense_[dense] = {sub->id,
                     static_cast<std::uint32_t>(sub->constraints.size())};
    subs_.emplace(sub->id, std::make_pair(sub, dense));
    if (!sub->satisfiable_for(schema_)) return true;
    if (sub->constraints.empty()) {
      match_all_.push_back(sub->id);
      return true;
    }
    for_each_bucket(*sub, [&](std::vector<Entry>& bucket,
                              const Constraint& c) {
      bucket.push_back({dense, c.range});
    });
    return true;
  }

  bool remove(SubscriptionId id) {
    const auto it = subs_.find(id);
    if (it == subs_.end()) return false;
    const auto [sub, dense] = it->second;
    subs_.erase(it);
    dense_[dense] = {};
    free_dense_.push_back(dense);
    if (!sub->satisfiable_for(schema_)) return true;
    if (sub->constraints.empty()) {
      std::erase(match_all_, id);
      return true;
    }
    for_each_bucket(*sub, [&](std::vector<Entry>& bucket, const Constraint&) {
      std::erase_if(bucket, [d = dense](const Entry& e) {
        return e.dense == d;
      });
    });
    return true;
  }

  std::vector<SubscriptionId> match(const Event& e) const {
    std::vector<std::uint32_t> count(dense_.size(), 0);
    std::vector<std::uint32_t> touched;
    for (std::size_t a = 0; a < schema_.dimensions(); ++a) {
      const Value v = e.values[a];
      if (!schema_.domain(a).contains(v)) continue;
      for (const Entry& entry : buckets_[a][bucket_of(a, v)]) {
        if (!entry.range.contains(v)) continue;
        if (count[entry.dense]++ == 0) touched.push_back(entry.dense);
      }
    }
    std::vector<SubscriptionId> out = match_all_;
    for (const std::uint32_t d : touched) {
      if (count[d] == dense_[d].second) out.push_back(dense_[d].first);
    }
    return out;
  }

 private:
  struct Entry {
    std::uint32_t dense;
    ClosedInterval range;
  };

  std::size_t bucket_of(std::size_t a, Value v) const {
    const ClosedInterval dom = schema_.domain(a);
    return static_cast<std::size_t>(
        static_cast<Uint128>(static_cast<std::uint64_t>(v - dom.lo)) *
        buckets_per_attribute_ / dom.width());
  }

  template <class Fn>
  void for_each_bucket(const Subscription& sub, Fn&& fn) {
    for (const Constraint& c : sub.constraints) {
      const ClosedInterval clamped =
          *c.range.intersect(schema_.domain(c.attribute));
      for (std::size_t b = bucket_of(c.attribute, clamped.lo);
           b <= bucket_of(c.attribute, clamped.hi); ++b) {
        fn(buckets_[c.attribute][b], c);
      }
    }
  }

  Schema schema_;
  std::size_t buckets_per_attribute_;
  std::vector<std::vector<std::vector<Entry>>> buckets_;
  std::vector<SubscriptionId> match_all_;
  std::map<SubscriptionId, std::pair<SubscriptionPtr, std::uint32_t>> subs_;
  std::vector<std::pair<SubscriptionId, std::uint32_t>> dense_;
  std::vector<std::uint32_t> free_dense_;
};

// Interleaved inserts (with constraint-free and unsatisfiable ones),
// removes, re-inserts of removed ids and matches — several operations
// often pass between two matches, so batches of pending registrations
// build up and mix with removals. Every match must return the eager
// index's ids in the eager index's order.
TEST(CountingIndexTest, BatchedRegistrationMatchesEagerOrder) {
  const Schema schema = Schema::uniform(3, 9'999);
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    workload::WorkloadParams wp;
    wp.nonselective_range_frac = 0.2;
    workload::WorkloadGenerator gen(schema, wp, seed);
    Rng& rng = gen.rng();
    CountingIndex batched(schema, 32);
    EagerCountingIndex eager(schema, 32);
    std::vector<SubscriptionPtr> live;
    std::vector<SubscriptionPtr> removed;
    SubscriptionId next_id = 1;
    std::size_t matches = 0;
    for (int step = 0; step < 3000; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.45 || live.empty()) {
        SubscriptionPtr s;
        if (!removed.empty() && rng.bernoulli(0.3)) {
          s = removed.back();  // re-insert a removed id
          removed.pop_back();
        } else {
          auto cs = gen.make_constraints();
          while (!cs.empty() && rng.bernoulli(0.3)) cs.pop_back();
          if (rng.bernoulli(0.05)) {  // unsatisfiable: outside the domain
            std::erase_if(cs, [](const Constraint& c) {
              return c.attribute == 0;
            });
            cs.push_back({0, {20'000, 20'001}});
          }
          s = make_sub(next_id++, std::move(cs));
        }
        ASSERT_EQ(batched.insert(s), eager.insert(s));
        ASSERT_FALSE(batched.insert(s));  // duplicate id, still pending
        live.push_back(std::move(s));
      } else if (roll < 0.65) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        ASSERT_EQ(batched.remove(live[pick]->id),
                  eager.remove(live[pick]->id));
        removed.push_back(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (roll < 0.80) {
        Event e;
        e.id = static_cast<EventId>(step + 1);
        e.values = !live.empty() && rng.bernoulli(0.5)
                       ? gen.make_matching_values(*live[static_cast<
                             std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(live.size()) - 1))])
                       : gen.make_random_values();
        std::vector<SubscriptionId> got;
        batched.match_into(e, got);
        ASSERT_EQ(got, eager.match(e)) << "seed " << seed << " step " << step;
        ++matches;
      }
      ASSERT_EQ(batched.size(), live.size());
      EXPECT_GT(batched.memory_bytes(), 0u);
    }
    EXPECT_GT(matches, 300u);
  }
}

// Regression: a constraint range disjoint from the schema domain used to
// dereference an empty std::optional in CountingIndex::insert. The
// subscription is unsatisfiable — every engine must hold it inert (never
// match, still removable) exactly like brute force never matches it.
TEST(CountingIndexTest, DomainDisjointConstraintIsInert) {
  const Schema schema({{"t", {0, 999}}, {"u", {0, 999}}});
  CountingIndex index(schema, 8);
  // Disjoint on attr 0 and valid on attr 1: no event can satisfy it.
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {2000, 3000}}, {1, {0, 999}}})));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.match(make_event({500, 500})).empty());
  EXPECT_FALSE(index.insert(make_sub(1, {{0, {2000, 3000}}})));
  EXPECT_TRUE(index.remove(1));
  EXPECT_EQ(index.size(), 0u);

  CoveringIndex covering(schema);
  EXPECT_TRUE(
      covering.insert(make_sub(2, {{0, {2000, 3000}}, {1, {0, 999}}})));
  EXPECT_EQ(covering.inert_count(), 1u);
  EXPECT_EQ(covering.stored_roots(), 0u);
  std::vector<SubscriptionId> out;
  covering.match_into(make_event({500, 500}), out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(covering.remove(2));
  EXPECT_EQ(covering.size(), 0u);
}

// Regression: a refresh (same id, new constraints) used to leave stale
// index entries and a stale stored pointer, so the indexed engines kept
// matching the old filter while brute force matched the new one.
TEST(StoreWithIndexTest, RefreshWithChangedConstraintsReindexes) {
  const Schema schema = Schema::uniform(1, 999);
  for (const MatchEngine engine :
       {MatchEngine::kBruteForce, MatchEngine::kCountingIndex,
        MatchEngine::kCoveringIndex}) {
    SubscriptionStore store;
    store.use_engine(engine, schema);
    store.insert({make_sub(1, {{0, {0, 100}}}), sim::kSimTimeNever, {},
                  false});
    // Re-subscription under the same id with a different filter.
    store.insert({make_sub(1, {{0, {500, 600}}}), sim::kSimTimeNever, {},
                  false});
    EXPECT_TRUE(store.match(make_event({50}), 0).empty())
        << "engine " << to_string(engine) << " matched stale constraints";
    const auto hits = store.match(make_event({550}), 0);
    ASSERT_EQ(hits.size(), 1u) << "engine " << to_string(engine);
    // The stored pointer must be the refreshed subscription, not the
    // original (a stale pointer reports the wrong constraint set to
    // collectors/state handover even when the id matches).
    EXPECT_EQ(hits[0]->sub->constraints[0].range, (ClosedInterval{500, 600}));
  }
}

TEST(CoveringIndexTest, NarrowerSubscriptionBecomesCoveredChild) {
  const Schema schema = Schema::uniform(2, 999);
  CoveringIndex index(schema);
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {100, 500}}})));
  EXPECT_TRUE(index.insert(make_sub(2, {{0, {200, 300}}, {1, {0, 10}}})));
  EXPECT_EQ(index.stored_roots(), 1u);
  EXPECT_EQ(index.covered_children(), 1u);
  EXPECT_EQ(index.size(), 2u);

  std::vector<SubscriptionId> out;
  index.match_into(make_event({250, 5}), out);
  EXPECT_EQ(std::set<SubscriptionId>(out.begin(), out.end()),
            (std::set<SubscriptionId>{1, 2}));
  out.clear();
  index.match_into(make_event({250, 500}), out);  // outside child's a1
  EXPECT_EQ(out, std::vector<SubscriptionId>{1});
  out.clear();
  index.match_into(make_event({150, 5}), out);  // outside child's a0
  EXPECT_EQ(out, std::vector<SubscriptionId>{1});
}

TEST(CoveringIndexTest, RemovingCovererPromotesChildren) {
  const Schema schema = Schema::uniform(1, 999);
  CoveringIndex index(schema);
  index.insert(make_sub(1, {{0, {0, 500}}}));
  index.insert(make_sub(2, {{0, {100, 200}}}));
  index.insert(make_sub(3, {{0, {150, 180}}}));
  EXPECT_EQ(index.stored_roots(), 1u);
  EXPECT_EQ(index.covered_children(), 2u);

  EXPECT_TRUE(index.remove(1));
  EXPECT_EQ(index.size(), 2u);
  // Children re-admitted: sub 3 is narrower than sub 2, so it re-covers.
  EXPECT_EQ(index.covered_children(), 1u);
  std::vector<SubscriptionId> out;
  index.match_into(make_event({160}), out);
  EXPECT_EQ(std::set<SubscriptionId>(out.begin(), out.end()),
            (std::set<SubscriptionId>{2, 3}));
  out.clear();
  index.match_into(make_event({400}), out);  // only the removed coverer
  EXPECT_TRUE(out.empty());
}

TEST(CoveringIndexTest, OneAttributeShiftMergesUnderUmbrella) {
  const Schema schema = Schema::uniform(2, 999);
  CoveringIndex index(schema);
  // Identical on a1, adjacent on a0: prime merging material.
  index.insert(make_sub(1, {{0, {100, 199}}, {1, {50, 60}}}));
  index.insert(make_sub(2, {{0, {200, 299}}, {1, {50, 60}}}));
  EXPECT_EQ(index.umbrella_count(), 1u);
  EXPECT_EQ(index.stored_roots(), 1u);  // just the umbrella
  EXPECT_EQ(index.covered_children(), 2u);

  std::vector<SubscriptionId> out;
  index.match_into(make_event({150, 55}), out);
  EXPECT_EQ(out, std::vector<SubscriptionId>{1});
  out.clear();
  index.match_into(make_event({250, 55}), out);
  EXPECT_EQ(out, std::vector<SubscriptionId>{2});
  out.clear();
  index.match_into(make_event({150, 70}), out);  // outside both on a1
  EXPECT_TRUE(out.empty());

  // Removing one member dissolves the umbrella back to a plain root.
  EXPECT_TRUE(index.remove(1));
  EXPECT_EQ(index.umbrella_count(), 0u);
  EXPECT_EQ(index.stored_roots(), 1u);
  EXPECT_EQ(index.covered_children(), 0u);
  out.clear();
  index.match_into(make_event({250, 55}), out);
  EXPECT_EQ(out, std::vector<SubscriptionId>{2});
}

TEST(CoveringIndexTest, MergeRespectsFalsePositiveBudget) {
  const Schema schema = Schema::uniform(1, 999'999);
  CoveringOptions opts;
  opts.merge_fp_budget = 0.25;
  CoveringIndex index(schema, opts);
  // Far apart: hull [0, 900009] would be ~99.998% uncovered — no merge.
  index.insert(make_sub(1, {{0, {0, 9}}}));
  index.insert(make_sub(2, {{0, {900'000, 900'009}}}));
  EXPECT_EQ(index.umbrella_count(), 0u);
  EXPECT_EQ(index.stored_roots(), 2u);
  // Adjacent: zero uncovered hull — merges.
  index.insert(make_sub(3, {{0, {10, 19}}}));
  EXPECT_EQ(index.umbrella_count(), 1u);
  std::vector<SubscriptionId> out;
  index.match_into(make_event({5}), out);
  EXPECT_EQ(out, std::vector<SubscriptionId>{1});
  out.clear();
  index.match_into(make_event({15}), out);
  EXPECT_EQ(out, std::vector<SubscriptionId>{3});
}

TEST(CoveringIndexTest, ReportsMemoryAndSupportsMatchAllRoots) {
  const Schema schema = Schema::uniform(2, 999);
  CoveringIndex index(schema);
  index.insert(make_sub(1, {}));  // matches everything, covers everything
  index.insert(make_sub(2, {{0, {10, 20}}}));
  EXPECT_EQ(index.stored_roots(), 1u);
  EXPECT_EQ(index.covered_children(), 1u);
  EXPECT_GT(index.memory_bytes(), 0u);
  std::vector<SubscriptionId> out;
  index.match_into(make_event({15, 0}), out);
  EXPECT_EQ(std::set<SubscriptionId>(out.begin(), out.end()),
            (std::set<SubscriptionId>{1, 2}));
  out.clear();
  index.match_into(make_event({500, 0}), out);
  EXPECT_EQ(out, std::vector<SubscriptionId>{1});
}

TEST(StoreWithIndexTest, MatchesLikeBruteForceStore) {
  const Schema schema = Schema::uniform(3, 9'999);
  workload::WorkloadGenerator gen(schema, {}, 5);

  SubscriptionStore brute;
  SubscriptionStore indexed;
  indexed.use_counting_index(schema, 64);
  EXPECT_EQ(brute.engine(), MatchEngine::kBruteForce);
  EXPECT_EQ(indexed.engine(), MatchEngine::kCountingIndex);

  for (int i = 0; i < 200; ++i) {
    auto s = make_sub(static_cast<SubscriptionId>(i + 1),
                      gen.make_constraints());
    const sim::SimTime expiry =
        (i % 3 == 0) ? sim::sec(static_cast<std::uint64_t>(i)) :
                       sim::kSimTimeNever;
    brute.insert({s, expiry, {}, false});
    indexed.insert({s, expiry, {}, false});
  }
  brute.sweep_expired(sim::sec(100));
  indexed.sweep_expired(sim::sec(100));
  ASSERT_EQ(brute.size(), indexed.size());

  for (int trial = 0; trial < 200; ++trial) {
    Event e;
    e.id = static_cast<EventId>(trial + 1);
    e.values = gen.make_random_values();
    auto ids_of = [](const std::vector<const SubscriptionStore::Record*>&
                         recs) {
      std::set<SubscriptionId> ids;
      for (const auto* r : recs) ids.insert(r->sub->id);
      return ids;
    };
    ASSERT_EQ(ids_of(brute.match(e, sim::sec(150))),
              ids_of(indexed.match(e, sim::sec(150))));
  }
}

// Differential property: drive random insert / refresh / remove /
// sweep_expired sequences through all three engines and assert they
// report identical match sets throughout. Brute force is the oracle;
// the indexed engines must never diverge from it (this is the test that
// pins both fixed divergence bugs and the covering engine's exactness).
TEST(MatchEngineDifferentialTest, EnginesAgreeUnderRandomChurn) {
  const Schema schema = Schema::uniform(3, 99'999);
  for (const std::uint64_t seed : {11u, 23u, 47u, 101u}) {
    workload::WorkloadParams wp;
    wp.nonselective_range_frac = 0.15;
    workload::WorkloadGenerator gen(schema, wp, seed);
    Rng& rng = gen.rng();

    SubscriptionStore brute;
    SubscriptionStore counting;
    SubscriptionStore covering;
    counting.use_counting_index(schema, 64);
    covering.use_covering_index(schema);
    SubscriptionStore* stores[] = {&brute, &counting, &covering};

    std::vector<SubscriptionPtr> live;
    sim::SimTime now = 0;
    SubscriptionId next_id = 1;

    auto random_constraints = [&] {
      auto cs = gen.make_constraints();
      while (cs.size() > 1 && rng.bernoulli(0.35)) cs.pop_back();
      if (rng.bernoulli(0.05)) {
        // Occasionally unsatisfiable: range disjoint from the domain.
        std::erase_if(cs,
                      [](const Constraint& c) { return c.attribute == 2; });
        cs.push_back({2, {200'000, 200'100}});
      }
      return cs;
    };

    for (int step = 0; step < 600; ++step) {
      now += sim::ms(100);
      const double roll = rng.uniform01();
      if (roll < 0.45 || live.empty()) {
        auto s = make_sub(next_id++, random_constraints());
        const sim::SimTime expiry = rng.bernoulli(0.3)
                                        ? now + sim::sec(5)
                                        : sim::kSimTimeNever;
        for (auto* st : stores) st->insert({s, expiry, {}, false});
        live.push_back(std::move(s));
      } else if (roll < 0.60) {
        // Refresh an existing id, usually with changed constraints.
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        auto s = std::make_shared<Subscription>();
        s->id = live[pick]->id;
        s->subscriber = live[pick]->subscriber;
        s->constraints = rng.bernoulli(0.8) ? random_constraints()
                                            : live[pick]->constraints;
        const sim::SimTime expiry = rng.bernoulli(0.5)
                                        ? now + sim::sec(5)
                                        : sim::kSimTimeNever;
        for (auto* st : stores) st->insert({s, expiry, {}, false});
        live[pick] = std::move(s);
      } else if (roll < 0.75) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        for (auto* st : stores) st->remove(live[pick]->id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (roll < 0.80) {
        const std::size_t swept = brute.sweep_expired(now);
        ASSERT_EQ(counting.sweep_expired(now), swept);
        ASSERT_EQ(covering.sweep_expired(now), swept);
      }

      Event e;
      e.id = static_cast<EventId>(step + 1);
      if (!live.empty() && rng.bernoulli(0.5)) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        if (live[pick]->satisfiable_for(schema)) {
          e.values = gen.make_matching_values(*live[pick]);
        } else {
          e.values = gen.make_random_values();
        }
      } else {
        e.values = gen.make_random_values();
      }

      auto ids_of = [](const std::vector<const SubscriptionStore::Record*>&
                           recs) {
        std::set<SubscriptionId> ids;
        for (const auto* r : recs) ids.insert(r->sub->id);
        return ids;
      };
      const auto expected = ids_of(brute.match(e, now));
      ASSERT_EQ(ids_of(counting.match(e, now)), expected)
          << "counting diverged at seed " << seed << " step " << step;
      ASSERT_EQ(ids_of(covering.match(e, now)), expected)
          << "covering diverged at seed " << seed << " step " << step;
    }
    // The engines' bookkeeping must agree on the logical population too.
    ASSERT_EQ(brute.size(), counting.size());
    ASSERT_EQ(brute.size(), covering.size());
    if (const auto* cov = covering.covering_index()) {
      ASSERT_EQ(cov->size(),
                cov->stored_roots() - cov->umbrella_count() +
                    cov->covered_children() + cov->inert_count());
    }
  }
}

}  // namespace
}  // namespace cbps::pubsub
