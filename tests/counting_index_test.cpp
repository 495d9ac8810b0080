// Tests for the rendezvous matching engines: counting-index unit
// behaviour, and differential properties driving the counting index
// against the brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cbps/pubsub/counting_index.hpp"
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

// Drives an index the way the store does: each live id holds a slot
// (freed slots are reused last-in first-out, else the table grows), the
// table keeps the subscription while the index has it registered, and
// matches come back as ids in the index's order.
class Indexed final : public SlotTable {
 public:
  Indexed(const Schema& schema, std::size_t buckets_per_attribute)
      : index_(*this, schema, buckets_per_attribute) {}

  const Subscription& at(std::uint32_t slot) const override {
    return *held_.at(slot);
  }

  /// Register `sub`; a live id offers its own slot again, which the index
  /// must reject.
  bool insert(SubscriptionPtr sub) {
    if (const auto it = slot_of_.find(sub->id); it != slot_of_.end()) {
      return index_.insert(it->second, *sub);
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(held_.size());
      held_.emplace_back();
    }
    slot_of_.emplace(sub->id, slot);
    held_[slot] = std::move(sub);
    return index_.insert(slot, *held_[slot]);
  }

  /// Remove `id`; an unknown id offers an unregistered slot, which the
  /// index must refuse.
  bool remove(SubscriptionId id) {
    const auto it = slot_of_.find(id);
    if (it == slot_of_.end()) {
      return index_.remove(free_.empty()
                               ? static_cast<std::uint32_t>(held_.size())
                               : free_.back());
    }
    const std::uint32_t slot = it->second;
    const bool removed = index_.remove(slot);
    slot_of_.erase(it);
    held_[slot].reset();
    free_.push_back(slot);
    return removed;
  }

  std::vector<SubscriptionId> match(const Event& e) const {
    std::vector<std::uint32_t> slots;
    index_.match_into(e, slots);
    std::vector<SubscriptionId> ids;
    for (const std::uint32_t slot : slots) ids.push_back(at(slot).id);
    return ids;
  }

  std::size_t size() const { return index_.size(); }
  const CountingIndex* operator->() const { return &index_; }

 private:
  CountingIndex index_;
  std::vector<SubscriptionPtr> held_;
  std::vector<std::uint32_t> free_;
  std::map<SubscriptionId, std::uint32_t> slot_of_;
};

TEST(CountingIndexTest, SingleConstraintMatch) {
  const Schema schema = Schema::uniform(2, 999);
  Indexed index(schema, 16);
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {100, 200}}})));
  EXPECT_EQ(index.match(make_event({150, 0})),
            std::vector<SubscriptionId>{1});
  EXPECT_TRUE(index.match(make_event({201, 0})).empty());
  EXPECT_TRUE(index.match(make_event({99, 999})).empty());
}

TEST(CountingIndexTest, ConjunctionRequiresAllConstraints) {
  const Schema schema = Schema::uniform(3, 999);
  Indexed index(schema, 16);
  index.insert(make_sub(1, {{0, {0, 499}}, {2, {500, 999}}}));
  EXPECT_EQ(index.match(make_event({100, 7, 600})).size(), 1u);
  EXPECT_TRUE(index.match(make_event({100, 7, 499})).empty());
  EXPECT_TRUE(index.match(make_event({500, 7, 600})).empty());
}

TEST(CountingIndexTest, EmptyConstraintsMatchEverything) {
  const Schema schema = Schema::uniform(2, 999);
  Indexed index(schema, 16);
  index.insert(make_sub(7, {}));
  EXPECT_EQ(index.match(make_event({0, 999})),
            std::vector<SubscriptionId>{7});
  EXPECT_TRUE(index.remove(7));
  EXPECT_TRUE(index.match(make_event({0, 999})).empty());
}

TEST(CountingIndexTest, DuplicateInsertRejected) {
  const Schema schema = Schema::uniform(1, 99);
  Indexed index(schema, 4);
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {0, 50}}})));
  EXPECT_FALSE(index.insert(make_sub(1, {{0, {0, 50}}})));
  EXPECT_EQ(index.match(make_event({25})).size(), 1u);  // no double count
}

TEST(CountingIndexTest, RemoveUnknownReturnsFalse) {
  const Schema schema = Schema::uniform(1, 99);
  Indexed index(schema, 4);
  EXPECT_FALSE(index.remove(42));
}

TEST(CountingIndexTest, DomainBoundaryValues) {
  const Schema schema = Schema::uniform(1, 999);
  Indexed index(schema, 7);  // non-divisible bucket count
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
  Indexed index(schema, 8);
  index.insert(make_sub(1, {{0, {-50, -10}}}));
  EXPECT_EQ(index.match(make_event({-30})).size(), 1u);
  EXPECT_TRUE(index.match(make_event({0})).empty());
}

TEST(CountingIndexTest, EquivalentToBruteForceOnRandomWorkload) {
  const Schema schema = Schema::uniform(4, 1'000'000);
  Indexed index(schema, 256);
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

// The counting algorithm as the index ran it before it registered each
// subscription under one pivot, batched registration and sized buckets
// to the contents: insert() registers every constraint in every bucket it
// spans, at once, into a fixed layout, and a match counts satisfied
// constraints per subscription. Kept as the reference for the index's
// match output, order included.
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
    Indexed batched(schema, 32);
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
        ASSERT_EQ(batched.match(e), eager.match(e)) << "seed " << seed << " step " << step;
        ++matches;
      }
      ASSERT_EQ(batched.size(), live.size());
      EXPECT_GT(batched->memory_bytes(), 0u);
    }
    EXPECT_GT(matches, 300u);
  }
}

// Content-sized buckets: every attribute starts on one bucket and splits
// its way up to the cap while subscriptions arrive, are removed and come
// back. After every step a match must return the eager index's ids in the
// eager index's order (the eager index sits on the cap layout all along),
// and each attribute must pass through every split level: 1, 2, 4, ...,
// then the cap itself (7 is not a power of two). A subscription registers
// on its lowest constrained attribute only, so the lowest constrained
// attribute cycles through all of them.
TEST(CountingIndexTest, ContentSizedGrowthMatchesEagerOrder) {
  const Schema schema = Schema::uniform(3, 9'999);
  const std::map<std::size_t, std::set<std::size_t>> levels = {
      {7, {1, 2, 4, 7}},
      {32, {1, 2, 4, 8, 16, 32}},
      {256, {1, 2, 4, 8, 16, 32, 64, 128, 256}},
  };
  for (const auto& [cap, expected_levels] : levels) {
    workload::WorkloadParams wp;
    wp.nonselective_range_frac = 0.2;
    workload::WorkloadGenerator gen(schema, wp, 1000 + cap);
    Rng& rng = gen.rng();
    Indexed index(schema, cap);
    EagerCountingIndex eager(schema, cap);
    // A fresh index holds no bucket headers, let alone cap x dimensions.
    EXPECT_LT(index->memory_bytes(), sizeof(std::vector<char>));
    std::vector<std::set<std::size_t>> seen(schema.dimensions());
    std::vector<SubscriptionPtr> live;
    std::vector<SubscriptionPtr> removed;
    SubscriptionId next_id = 1;
    for (int step = 0; step < 4500; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.7 || live.empty()) {
        SubscriptionPtr s;
        if (!removed.empty() && rng.bernoulli(0.3)) {
          s = removed.back();  // re-insert a removed id
          removed.pop_back();
        } else {
          auto cs = gen.make_constraints();
          const std::size_t lowest = next_id % schema.dimensions();
          cs.erase(cs.begin(),
                   cs.begin() + static_cast<std::ptrdiff_t>(lowest));
          while (cs.size() > 1 && rng.bernoulli(0.2)) cs.pop_back();
          s = make_sub(next_id++, std::move(cs));
        }
        ASSERT_EQ(index.insert(s), eager.insert(s));
        live.push_back(std::move(s));
      } else {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        ASSERT_EQ(index.remove(live[pick]->id), eager.remove(live[pick]->id));
        removed.push_back(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      Event e;
      e.id = static_cast<EventId>(step + 1);
      e.values = !live.empty() && rng.bernoulli(0.5)
                     ? gen.make_matching_values(*live[static_cast<
                           std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(live.size()) - 1))])
                     : gen.make_random_values();
      ASSERT_EQ(index.match(e), eager.match(e)) << "cap " << cap << " step " << step;
      for (std::size_t a = 0; a < schema.dimensions(); ++a) {
        if (const std::size_t n = index->bucket_count(a); n > 0) {
          seen[a].insert(n);
        }
      }
    }
    for (std::size_t a = 0; a < schema.dimensions(); ++a) {
      EXPECT_EQ(seen[a], expected_levels) << "cap " << cap << " attr " << a;
      EXPECT_EQ(index->bucket_count(a), cap);
    }
  }
}

// Generated differential test of pivot registration. Constraint lists
// come in shuffled attribute order with random attributes omitted
// (attribute 0 too, so every attribute serves as a pivot); ranges are
// degenerate, inside the domain, past either edge of it or wholly
// outside it; events sit inside, on the domain edges or outside the
// domain. Inserts, refreshes with changed constraints, removes and
// matches interleave. Every match must report the set brute force finds
// under the index's domain contract (a constraint never holds for a
// value outside its attribute's domain), in the eager index's order.
TEST(CountingIndexTest, PivotRegistrationAgreesWithOracles) {
  const Schema schema({{"a", {0, 999}},
                       {"b", {-500, 499}},
                       {"c", {0, 9}},
                       {"d", {1'000, 1'999}}});
  const std::size_t dims = schema.dimensions();
  const auto holds = [&](const Subscription& s, const Event& e) {
    return std::all_of(s.constraints.begin(), s.constraints.end(),
                       [&](const Constraint& c) {
                         const Value v = e.values[c.attribute];
                         return schema.domain(c.attribute).contains(v) &&
                                c.range.contains(v);
                       });
  };
  for (const std::uint64_t seed : {5u, 41u, 97u}) {
    Rng rng(seed);
    const auto range_on = [&](const ClosedInterval& dom) -> ClosedInterval {
      const auto w = static_cast<std::int64_t>(dom.width());
      const Value a = rng.uniform_int(dom.lo, dom.hi);
      const Value b = rng.uniform_int(dom.lo, dom.hi);
      const double roll = rng.uniform01();
      if (roll < 0.2) return ClosedInterval::point(a);
      if (roll < 0.35) return {dom.lo - rng.uniform_int(1, w), a};
      if (roll < 0.5) return {a, dom.hi + rng.uniform_int(1, w)};
      if (roll < 0.55) return {dom.lo - 1, dom.hi + 1};
      if (roll < 0.57) {  // wholly outside: the subscription is inert
        const Value lo = dom.hi + rng.uniform_int(1, 5);
        return {lo, lo + rng.uniform_int(0, 5)};
      }
      return {std::min(a, b), std::max(a, b)};
    };
    const auto constraints = [&] {
      std::vector<Constraint> cs;
      for (std::size_t attr = 0; attr < dims; ++attr) {
        if (rng.bernoulli(0.6)) {
          cs.push_back({attr, range_on(schema.domain(attr))});
        }
      }
      for (std::size_t i = cs.size(); i > 1; --i) {  // Fisher-Yates
        std::swap(cs[i - 1], cs[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(i) - 1))]);
      }
      return cs;
    };
    const auto value_on = [&](const ClosedInterval& dom) -> Value {
      const double roll = rng.uniform01();
      if (roll < 0.15) return dom.lo;
      if (roll < 0.3) return dom.hi;
      if (roll < 0.4) return dom.lo - rng.uniform_int(1, 3);
      if (roll < 0.5) return dom.hi + rng.uniform_int(1, 3);
      return rng.uniform_int(dom.lo, dom.hi);
    };
    Indexed index(schema, 16);
    EagerCountingIndex eager(schema, 16);
    std::vector<SubscriptionPtr> live;
    std::vector<std::size_t> pivots(dims, 0);
    SubscriptionId next_id = 1;
    std::size_t reported = 0;
    for (int step = 0; step < 4000; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.35 || live.empty()) {
        auto s = make_sub(next_id++, constraints());
        if (!s->constraints.empty()) {
          ++pivots[std::ranges::min_element(s->constraints, {},
                                            &Constraint::attribute)
                       ->attribute];
        }
        ASSERT_TRUE(index.insert(s));
        ASSERT_TRUE(eager.insert(s));
        live.push_back(std::move(s));
      } else if (roll < 0.5) {
        // Refresh: the same id under changed constraints, re-registered
        // the way the store does it (remove, then insert into the slot).
        auto& held = live[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1))];
        auto s = make_sub(held->id, constraints());
        ASSERT_TRUE(index.remove(held->id));
        ASSERT_TRUE(eager.remove(held->id));
        ASSERT_TRUE(index.insert(s));
        ASSERT_TRUE(eager.insert(s));
        held = std::move(s);
      } else if (roll < 0.65) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        ASSERT_TRUE(index.remove(live[pick]->id));
        ASSERT_TRUE(eager.remove(live[pick]->id));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Half the events aim at a live subscription's intervals.
        const Subscription* target =
            !live.empty() && rng.bernoulli(0.5)
                ? live[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(live.size()) - 1))].get()
                : nullptr;
        Event e;
        e.id = static_cast<EventId>(step + 1);
        for (std::size_t attr = 0; attr < dims; ++attr) {
          const Constraint* c = target ? target->constraint_on(attr) : nullptr;
          const auto in = c ? c->range.intersect(schema.domain(attr))
                            : std::nullopt;
          e.values.push_back(in && rng.bernoulli(0.9)
                                 ? value_on(*in)
                                 : value_on(schema.domain(attr)));
        }
        const auto got = index.match(e);
        ASSERT_EQ(got, eager.match(e)) << "seed " << seed << " step " << step;
        std::set<SubscriptionId> expected;
        for (const auto& s : live) {
          if (holds(*s, e)) expected.insert(s->id);
        }
        ASSERT_EQ(std::set<SubscriptionId>(got.begin(), got.end()), expected)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(got.size(), expected.size()) << "duplicate ids reported";
        reported += got.size();
      }
      ASSERT_EQ(index.size(), live.size());
    }
    for (std::size_t attr = 0; attr < dims; ++attr) {
      EXPECT_GT(pivots[attr], 50u) << "seed " << seed << " attr " << attr;
    }
    EXPECT_GT(reported, 500u) << "seed " << seed;
  }
}

// Regression: a constraint range disjoint from the schema domain used to
// dereference an empty std::optional in CountingIndex::insert. The
// subscription is unsatisfiable — the index must hold it inert (never
// match, still removable) exactly like brute force never matches it.
TEST(CountingIndexTest, DomainDisjointConstraintIsInert) {
  const Schema schema({{"t", {0, 999}}, {"u", {0, 999}}});
  Indexed index(schema, 8);
  // Disjoint on attr 0 and valid on attr 1: no event can satisfy it.
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {2000, 3000}}, {1, {0, 999}}})));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.match(make_event({500, 500})).empty());
  EXPECT_FALSE(index.insert(make_sub(1, {{0, {2000, 3000}}})));
  EXPECT_TRUE(index.remove(1));
  EXPECT_EQ(index.size(), 0u);
}

// Regression: a refresh (same id, new constraints) used to leave stale
// index entries and a stale stored pointer, so the counting index kept
// matching the old filter while brute force matched the new one.
TEST(StoreWithIndexTest, RefreshWithChangedConstraintsReindexes) {
  const Schema schema = Schema::uniform(1, 999);
  for (const MatchEngine engine :
       {MatchEngine::kBruteForce, MatchEngine::kCountingIndex}) {
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

TEST(StoreWithIndexTest, MatchesLikeBruteForceStore) {
  const Schema schema = Schema::uniform(3, 9'999);
  workload::WorkloadGenerator gen(schema, {}, 5);

  SubscriptionStore brute;
  brute.use_engine(MatchEngine::kBruteForce, schema);
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
    // Every fifth event leaves the domain on one attribute.
    if (trial % 5 == 0) {
      e.values[static_cast<std::size_t>(trial) % 3] =
          trial % 2 == 0 ? -1 : 10'000;
    }
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
// sweep_expired sequences through both engines and assert they report
// identical match sets throughout. Brute force is the oracle; the
// counting index must never diverge from it (this is the test that pins
// both fixed divergence bugs).
TEST(MatchEngineDifferentialTest, EnginesAgreeUnderRandomChurn) {
  const Schema schema = Schema::uniform(3, 99'999);
  for (const std::uint64_t seed : {11u, 23u, 47u, 101u}) {
    workload::WorkloadParams wp;
    wp.nonselective_range_frac = 0.15;
    workload::WorkloadGenerator gen(schema, wp, seed);
    Rng& rng = gen.rng();

    SubscriptionStore brute;
    brute.use_engine(MatchEngine::kBruteForce, schema);
    SubscriptionStore counting;
    counting.use_counting_index(schema, 64);
    SubscriptionStore* stores[] = {&brute, &counting};

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
      } else if (rng.bernoulli(0.1)) {
        // Straddling a domain edge: only the in-domain part can match.
        std::erase_if(cs,
                      [](const Constraint& c) { return c.attribute == 1; });
        cs.push_back({1, rng.bernoulli(0.5) ? ClosedInterval{-500, 20'000}
                                            : ClosedInterval{90'000, 150'000}});
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
      // Some events leave the domain on one attribute, inside or outside
      // a straddling constraint's range.
      if (rng.bernoulli(0.2)) {
        const Value outside[] = {-1, -400, 100'000, 120'000, 200'050};
        e.values[static_cast<std::size_t>(rng.uniform_int(0, 2))] =
            outside[rng.uniform_int(0, 4)];
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
    }
    // The engines' bookkeeping must agree on the logical population too.
    ASSERT_EQ(brute.size(), counting.size());
  }
}

}  // namespace
}  // namespace cbps::pubsub
