// Tests for the rendezvous store's slot table: the FlatIdMap id -> slot
// map against std::unordered_map; generated store scripts (inserts,
// replica inserts, refreshes, upgrades, removals and expiry sweeps) that
// drive every match engine against a plain reference model (an ordered
// id map plus Subscription::matches), with each engine's raw match order
// pinned by a committed per-script digest, as is each index's footprint
// and bucket layout; the refresh that drops a Subscription's last owner
// before its bucket entries are registered; and the size of a record,
// which shares its SK runs instead of owning a copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cbps/common/flat_id_map.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/pubsub/store.hpp"

namespace cbps {
namespace {

// ---------------------------------------------------------------------------
// FlatIdMap: the store's id -> slot map
// ---------------------------------------------------------------------------

// Every key of `want` is found with its slot, and the sizes agree.
void expect_same(const FlatIdMap& map,
                 const std::unordered_map<std::uint64_t, std::uint32_t>& want) {
  EXPECT_EQ(map.size(), want.size());
  for (const auto& [id, slot] : want) EXPECT_EQ(map.find(id), slot) << id;
}

TEST(FlatIdMapTest, RandomScriptsAgreeWithUnorderedMap) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    Rng rng(seed);
    // Narrow id ranges force re-inserts and long probe runs; wide ones
    // spread over the whole 64-bit space.
    const std::int64_t range =
        seed % 2 == 0 ? 64 : std::numeric_limits<std::int64_t>::max();
    FlatIdMap map;
    std::unordered_map<std::uint64_t, std::uint32_t> want;
    for (int step = 0; step < 20'000; ++step) {
      const auto id = static_cast<std::uint64_t>(rng.uniform_int(0, range));
      const double roll = rng.uniform01();
      if (roll < 0.5) {
        const auto [it, fresh] =
            want.emplace(id, static_cast<std::uint32_t>(step));
        ASSERT_EQ(map.emplace(id, static_cast<std::uint32_t>(step)),
                  std::make_pair(it->second, fresh))
            << "seed " << seed;
      } else if (roll < 0.8) {
        const auto it = want.find(id);
        const std::uint32_t slot =
            it == want.end() ? FlatIdMap::kNone : it->second;
        if (it != want.end()) want.erase(it);
        ASSERT_EQ(map.erase(id), slot) << "seed " << seed;
      } else {
        const auto it = want.find(id);
        ASSERT_EQ(map.find(id),
                  it == want.end() ? FlatIdMap::kNone : it->second);
      }
      ASSERT_EQ(map.size(), want.size());
      ASSERT_LE(2 * map.size(), map.capacity());
    }
    expect_same(map, want);
  }
}

TEST(FlatIdMapTest, GrowsByDoublingAndKeepsEveryEntry) {
  FlatIdMap map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.find(7), FlatIdMap::kNone);
  EXPECT_EQ(map.erase(7), FlatIdMap::kNone);
  std::unordered_map<std::uint64_t, std::uint32_t> want;
  std::size_t capacity = 0;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const std::uint64_t id = std::uint64_t{i} * 0x10000 + 3;  // strided ids
    ASSERT_TRUE(map.emplace(id, i).second);
    want.emplace(id, i);
    if (map.capacity() != capacity) {
      // Power-of-two growth, never more than half full.
      EXPECT_TRUE(capacity == 0 ? map.capacity() == 16
                                : map.capacity() == 2 * capacity);
      capacity = map.capacity();
      expect_same(map, want);
    }
  }
  EXPECT_LE(2 * map.size(), map.capacity());
  expect_same(map, want);
}

TEST(FlatIdMapTest, EraseAcrossTheWrapAround) {
  // Ids whose probe runs start at the last entry of a 16-entry table, and
  // one that starts at entry 0: inserted in this order they fill entries
  // 15, 0, 1 and 2, so the probe run wraps past the end of the table.
  std::vector<std::uint64_t> at_end;
  std::uint64_t at_start = 0;
  for (std::uint64_t id = 1; at_end.size() < 3 || at_start == 0; ++id) {
    const std::uint64_t home = FlatIdMap::hash(id) & 15;
    if (home == 15 && at_end.size() < 3) at_end.push_back(id);
    if (home == 0 && at_start == 0) at_start = id;
  }
  const std::vector<std::uint64_t> ids = {at_end[0], at_end[1], at_start,
                                          at_end[2]};
  for (std::size_t victim = 0; victim < ids.size(); ++victim) {
    FlatIdMap map;
    std::unordered_map<std::uint64_t, std::uint32_t> want;
    for (std::uint32_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(map.emplace(ids[i], i).second);
      want.emplace(ids[i], i);
    }
    ASSERT_EQ(map.capacity(), 16u);
    // Erasing any member must shift the later ones back across the wrap
    // without moving one before its home.
    EXPECT_EQ(map.erase(ids[victim]), victim);
    want.erase(ids[victim]);
    expect_same(map, want);
    // Re-insert after erase, under a new slot.
    EXPECT_TRUE(map.emplace(ids[victim], 100).second);
    want[ids[victim]] = 100;
    expect_same(map, want);
  }
}

TEST(FlatIdMapTest, ReinsertAfterEraseAndDuplicateEmplace) {
  FlatIdMap map;
  EXPECT_EQ(map.emplace(42, 1), std::make_pair(1u, true));
  EXPECT_EQ(map.emplace(42, 2), std::make_pair(1u, false));  // unchanged
  EXPECT_EQ(map.find(42), 1u);
  EXPECT_EQ(map.erase(42), 1u);
  EXPECT_EQ(map.erase(42), FlatIdMap::kNone);
  EXPECT_EQ(map.find(42), FlatIdMap::kNone);
  EXPECT_TRUE(map.emplace(42, 3).second);
  EXPECT_EQ(map.find(42), 3u);
  EXPECT_TRUE(map.emplace(0, 4).second);  // id 0 is an ordinary key
  EXPECT_TRUE(map.emplace(~std::uint64_t{0}, 5).second);
  EXPECT_EQ(map.find(0), 4u);
  EXPECT_EQ(map.find(~std::uint64_t{0}), 5u);
  EXPECT_EQ(map.size(), 3u);
}

}  // namespace

namespace pubsub {
namespace {

constexpr MatchEngine kEngines[] = {MatchEngine::kBruteForce,
                                    MatchEngine::kCountingIndex};

// Per script (seed 1..200), per engine (brute, counting): FNV-1a
// over every match call's ids in the order the store returned them.
// Recorded from the id-keyed store (one hash map per record and per index)
// that the slot table replaced, so they pin the match order across it.
constexpr std::uint64_t kMatchOrderDigests[][2] = {
#include "store_match_order_digests.inc"
};
constexpr std::size_t kScripts =
    sizeof(kMatchOrderDigests) / sizeof(kMatchOrderDigests[0]);

// Per script and engine: FNV-1a over index_memory_bytes() after every
// step and, under the counting engine, every attribute's bucket_count().
// Brute force has no index, so its column hashes zeros. The counting
// column was re-recorded when the index began registering each
// subscription under its pivot alone, with per-slot intervals in place
// of the match scratch; any later change to its buckets or capacities
// shows here.
constexpr std::uint64_t kIndexLayoutDigests[][2] = {
#include "store_index_layout_digests.inc"
};
static_assert(sizeof(kIndexLayoutDigests) == sizeof(kMatchOrderDigests));

struct ScriptDigests {
  std::uint64_t match_order = 0xcbf29ce484222325ull;
  std::uint64_t index_layout = 0xcbf29ce484222325ull;
};

struct RefRecord {
  SubscriptionPtr sub;
  sim::SimTime expires_at = sim::kSimTimeNever;
  RunsPtr runs;
  bool replica = false;
};

// The store's contract, written as plainly as possible.
class ReferenceStore {
 public:
  bool insert(const SubscriptionStore::Record& r) {
    auto [it, fresh] = by_id_.try_emplace(
        r.sub->id, RefRecord{r.sub, r.expires_at, r.runs, r.replica});
    if (fresh) {
      if (!r.replica) note_owned(+1);
      return true;
    }
    RefRecord& rec = it->second;
    rec.sub = r.sub;
    rec.expires_at = r.expires_at;
    rec.runs = r.runs;
    if (rec.replica && !r.replica) {
      rec.replica = false;
      note_owned(+1);
      return true;
    }
    return false;
  }

  bool remove(SubscriptionId id) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    if (!it->second.replica) note_owned(-1);
    by_id_.erase(it);
    return true;
  }

  template <class Pred>
  std::size_t remove_if(Pred pred) {
    std::vector<SubscriptionId> doomed;
    for (const auto& [id, rec] : by_id_) {
      if (pred(rec)) doomed.push_back(id);
    }
    for (const SubscriptionId id : doomed) remove(id);
    return doomed.size();
  }

  std::size_t sweep_expired(sim::SimTime now) {
    return remove_if(
        [now](const RefRecord& rec) { return rec.expires_at <= now; });
  }

  sim::SimTime next_expiry() const {
    sim::SimTime next = sim::kSimTimeNever;
    for (const auto& [_, rec] : by_id_) {
      next = std::min(next, rec.expires_at);
    }
    return next;
  }

  std::vector<SubscriptionId> match(const Event& e, sim::SimTime now) const {
    std::vector<SubscriptionId> out;
    for (const auto& [id, rec] : by_id_) {
      if (rec.expires_at > now && rec.sub->matches(e)) out.push_back(id);
    }
    return out;
  }

  const std::map<SubscriptionId, RefRecord>& records() const {
    return by_id_;
  }
  std::size_t owned() const { return owned_; }
  std::size_t peak_owned() const { return peak_owned_; }

 private:
  void note_owned(int delta) {
    owned_ = static_cast<std::size_t>(static_cast<long>(owned_) + delta);
    peak_owned_ = std::max(peak_owned_, owned_);
  }

  std::map<SubscriptionId, RefRecord> by_id_;
  std::size_t owned_ = 0;
  std::size_t peak_owned_ = 0;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Random constraints over `schema`: a few attributes, sometimes none
// (match-all), sometimes one outside its domain (never matches).
std::vector<Constraint> random_constraints(Rng& rng, const Schema& schema) {
  std::vector<Constraint> cs;
  if (rng.bernoulli(0.05)) return cs;
  for (std::size_t a = 0; a < schema.dimensions(); ++a) {
    if (!rng.bernoulli(0.6)) continue;
    const ClosedInterval dom = schema.domain(a);
    const Value width = rng.uniform_int(0, (dom.hi - dom.lo) / 3);
    const Value lo = rng.uniform_int(dom.lo, dom.hi - width);
    cs.push_back({a, {lo, lo + width}});
  }
  if (rng.bernoulli(0.04)) {
    std::erase_if(cs, [](const Constraint& c) { return c.attribute == 0; });
    const Value past = schema.domain(0).hi + 1000;
    cs.push_back({0, {past, past + 10}});
  }
  return cs;
}

SubscriptionPtr make_sub(SubscriptionId id, std::vector<Constraint> cs) {
  auto s = std::make_shared<Subscription>();
  s->id = id;
  s->subscriber = id % 7;
  s->constraints = std::move(cs);
  return s;
}

Event random_event(Rng& rng, const Schema& schema,
                   const ReferenceStore& ref, EventId id) {
  Event e;
  e.id = id;
  // Half the events aim inside a stored subscription so matches are
  // frequent; the rest are uniform over the domains.
  const Subscription* target = nullptr;
  if (!ref.records().empty() && rng.bernoulli(0.5)) {
    auto it = ref.records().begin();
    std::advance(it, rng.uniform_int(
                         0, static_cast<std::int64_t>(ref.records().size()) -
                                1));
    target = it->second.sub.get();
  }
  for (std::size_t a = 0; a < schema.dimensions(); ++a) {
    ClosedInterval iv = schema.domain(a);
    if (target != nullptr) {
      const Constraint* c = target->constraint_on(a);
      if (c != nullptr) {
        if (const auto clamped = c->range.intersect(iv)) iv = *clamped;
      }
    }
    e.values.push_back(rng.uniform_int(iv.lo, iv.hi));
  }
  return e;
}

// Replays script `seed` against a store running `engine`, checking the
// store against the reference after every step. Returns the digests of
// the store's raw match order and of its index layout.
ScriptDigests run_script(std::uint64_t seed, MatchEngine engine) {
  const Schema schema = Schema::uniform(3, 9'999);
  Rng rng(seed);
  SubscriptionStore store;
  store.use_engine(engine, schema);
  ReferenceStore ref;

  ScriptDigests out;
  std::uint64_t& digest = out.match_order;
  sim::SimTime now = 0;
  // A small id pool makes re-inserts of removed ids (and so slot reuse)
  // common; its size varies per script so some stores grow large.
  const auto pool = static_cast<SubscriptionId>(rng.uniform_int(8, 400));
  const int steps = static_cast<int>(rng.uniform_int(60, 260));

  const auto pick_id = [&] {
    return static_cast<SubscriptionId>(
        rng.uniform_int(1, static_cast<std::int64_t>(pool)));
  };
  const auto random_expiry = [&] {
    return rng.bernoulli(0.4) ? now + sim::ms(100 * static_cast<std::uint64_t>(
                                                        rng.uniform_int(1, 40)))
                              : sim::kSimTimeNever;
  };
  const auto random_ranges = [&] {
    std::vector<KeyRange> ranges;
    const auto n = rng.uniform_int(0, 2);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto lo = static_cast<Key>(rng.uniform_int(0, 1 << 20));
      ranges.push_back({lo, lo + static_cast<Key>(rng.uniform_int(0, 64))});
    }
    return std::make_shared<const std::vector<KeyRange>>(std::move(ranges));
  };
  const auto stored = [&](SubscriptionId id) -> const RefRecord* {
    const auto it = ref.records().find(id);
    return it == ref.records().end() ? nullptr : &it->second;
  };
  const auto apply = [&](SubscriptionStore::Record r) {
    const bool expect = ref.insert(r);
    EXPECT_EQ(store.insert(std::move(r)), expect);
  };

  for (int step = 0; step < steps; ++step) {
    now += sim::ms(100);
    const double roll = rng.uniform01();
    const SubscriptionId id = pick_id();
    const RefRecord* have = stored(id);
    if (roll < 0.30) {
      // Insert (owned or replica); on a stored id this is a refresh.
      apply({make_sub(id, random_constraints(rng, schema)), random_expiry(),
             random_ranges(), rng.bernoulli(0.25)});
    } else if (roll < 0.40 && have != nullptr) {
      // Refresh with the same constraints under a new pointer: the
      // reference drops the old pointer, so the store's copy is the last
      // owner of the previous Subscription object.
      apply({make_sub(id, have->sub->constraints), random_expiry(),
             random_ranges(), have->replica && rng.bernoulli(0.5)});
    } else if (roll < 0.48 && have != nullptr) {
      // Refresh with changed constraints.
      apply({make_sub(id, random_constraints(rng, schema)), random_expiry(),
             have->runs, have->replica && rng.bernoulli(0.5)});
    } else if (roll < 0.53 && have != nullptr) {
      // Replica -> owned upgrade (or an owned refresh) with the same
      // pointer.
      apply({have->sub, have->expires_at, have->runs, false});
    } else if (roll < 0.68) {
      const bool expect = ref.remove(id);
      EXPECT_EQ(store.remove(id), expect);
    } else if (roll < 0.72) {
      const auto mod = static_cast<SubscriptionId>(rng.uniform_int(2, 5));
      const auto rem = static_cast<SubscriptionId>(rng.uniform_int(0, 1));
      const bool replicas = rng.bernoulli(0.3);
      const auto doomed = [&](SubscriptionId sid, bool replica) {
        return replicas ? replica : sid % mod == rem;
      };
      const std::size_t expect = ref.remove_if([&](const RefRecord& r) {
        return doomed(r.sub->id, r.replica);
      });
      EXPECT_EQ(store.remove_if([&](const SubscriptionStore::Record& r) {
        return doomed(r.sub->id, r.replica);
      }),
                expect);
    } else if (roll < 0.80) {
      const std::size_t expect = ref.sweep_expired(now);
      EXPECT_EQ(store.sweep_expired(now), expect);
    }

    // A match (or a few) between steps.
    const int matches = rng.bernoulli(0.4) ? 0 : 1 + (rng.bernoulli(0.3) ? 1 : 0);
    for (int m = 0; m < matches; ++m) {
      const Event e =
          random_event(rng, schema, ref, static_cast<EventId>(step + 1));
      // Sometimes match at a later time, so unswept expired records must
      // be skipped.
      const sim::SimTime at =
          rng.bernoulli(0.2) ? now + sim::sec(2) : now;
      std::vector<SubscriptionId> got;
      for (const SubscriptionStore::Record* r : store.match(e, at)) {
        got.push_back(r->sub->id);
        digest = fnv1a(digest, r->sub->id);
      }
      digest = fnv1a(digest, ~std::uint64_t{0});
      std::vector<SubscriptionId> sorted = got;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, ref.match(e, at))
          << to_string(engine) << " seed " << seed << " step " << step;
    }

    EXPECT_EQ(store.size(), ref.records().size());
    EXPECT_EQ(store.owned_size(), ref.owned());
    EXPECT_EQ(store.peak_owned_size(), ref.peak_owned());
    EXPECT_EQ(store.next_expiry(), ref.next_expiry());
    const SubscriptionStore::Record* found = store.find(id);
    const RefRecord* want = stored(id);
    EXPECT_EQ(found != nullptr, want != nullptr);
    if (found != nullptr && want != nullptr) {
      EXPECT_EQ(found->sub, want->sub);
      EXPECT_EQ(found->expires_at, want->expires_at);
      // A refresh replaces the runs by pointer, never by copy.
      EXPECT_EQ(found->runs, want->runs);
      EXPECT_EQ(found->replica, want->replica);
    }
    std::vector<SubscriptionId> visited;
    store.for_each([&](const SubscriptionStore::Record& r) {
      visited.push_back(r.sub->id);
      const RefRecord* rr = stored(r.sub->id);
      EXPECT_TRUE(rr != nullptr && rr->sub == r.sub &&
                  rr->replica == r.replica && rr->expires_at == r.expires_at);
    });
    std::vector<SubscriptionId> expected_ids;
    for (const auto& [sid, _] : ref.records()) expected_ids.push_back(sid);
    EXPECT_EQ(visited, expected_ids);
    out.index_layout = fnv1a(out.index_layout, store.index_memory_bytes());
    if (const CountingIndex* counting = store.counting_index()) {
      for (std::size_t a = 0; a < schema.dimensions(); ++a) {
        out.index_layout = fnv1a(out.index_layout, counting->bucket_count(a));
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  return out;
}

TEST(StoreDifferentialTest, GeneratedScriptsAgreeWithReference) {
  static_assert(kScripts >= 200);
  for (std::size_t s = 0; s < kScripts; ++s) {
    for (std::size_t e = 0; e < std::size(kEngines); ++e) {
      const ScriptDigests digests = run_script(s + 1, kEngines[e]);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << to_string(kEngines[e]) << " script " << s + 1;
      EXPECT_EQ(digests.match_order, kMatchOrderDigests[s][e])
          << to_string(kEngines[e]) << " script " << s + 1
          << ": raw match order changed";
      EXPECT_EQ(digests.index_layout, kIndexLayoutDigests[s][e])
          << to_string(kEngines[e]) << " script " << s + 1
          << ": index footprint or bucket layout changed";
    }
  }
}

// Batched registration counts a batch, fits each attribute once and then
// appends. Registering many subscriptions in one batch must leave the
// same buckets, capacities and match order as registering them one at a
// time (a match after every insert), across several splits per attribute
// and with removes in between.
TEST(StoreDifferentialTest, OneBatchEqualsMatchAfterEveryInsert) {
  const Schema schema = Schema::uniform(3, 9'999);
  // Matches the eager store makes only to flush its pending entry: no
  // value lies in a domain, so they touch no entry and leave the match
  // scratch as it was.
  Event flush;
  for (std::size_t a = 0; a < schema.dimensions(); ++a) {
    flush.values.push_back(schema.domain(a).hi + 1);
  }
  constexpr SubscriptionId kSlots = 1'500;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SubscriptionStore batched;
    SubscriptionStore eager;
    batched.use_counting_index(schema);
    eager.use_counting_index(schema);
    // Size both stores' per-slot arrays, the match scratch included,
    // for every slot the test uses, with subscriptions that register
    // no entry; the index footprints then differ only if the buckets
    // do.
    for (SubscriptionId id = 1; id <= kSlots; ++id) {
      const Value past = schema.domain(0).hi + 1000;
      for (SubscriptionStore* store : {&batched, &eager}) {
        store->insert({make_sub(id, {{0, {past, past + 10}}}),
                       sim::kSimTimeNever,
                       {},
                       false});
      }
    }
    for (SubscriptionStore* store : {&batched, &eager}) {
      store->match(flush, 0);
      for (SubscriptionId id = 1; id <= kSlots; ++id) store->remove(id);
    }
    Rng rng(seed);
    Rng probe(seed + 100);
    ReferenceStore ref;
    const auto compare = [&](int round) {
      for (int m = 0; m < 4; ++m) {
        const Event e = random_event(probe, schema, ref,
                                     static_cast<EventId>(m + 1));
        std::vector<SubscriptionId> a;
        std::vector<SubscriptionId> b;
        for (const auto* r : batched.match(e, 0)) a.push_back(r->sub->id);
        for (const auto* r : eager.match(e, 0)) b.push_back(r->sub->id);
        EXPECT_EQ(a, b) << "seed " << seed << " round " << round;
      }
      EXPECT_EQ(batched.index_memory_bytes(), eager.index_memory_bytes())
          << "seed " << seed << " round " << round;
      for (std::size_t a = 0; a < schema.dimensions(); ++a) {
        EXPECT_EQ(batched.counting_index()->bucket_count(a),
                  eager.counting_index()->bucket_count(a));
      }
    };
    SubscriptionId next = kSlots + 1;
    for (int round = 0; round < 3; ++round) {
      // A batch of a few hundred inserts: every attribute splits
      // several times within it.
      const auto n = rng.uniform_int(50, 400);
      for (std::int64_t i = 0; i < n; ++i) {
        SubscriptionStore::Record r{make_sub(next++,
                                             random_constraints(rng, schema)),
                                    sim::kSimTimeNever,
                                    {},
                                    false};
        ref.insert(r);
        batched.insert(r);
        eager.insert(std::move(r));
        eager.match(flush, 0);
      }
      compare(round);
      // Then remove a share, so the next batch lands on a used index.
      for (SubscriptionId id = kSlots + 1; id < next; ++id) {
        if (!rng.bernoulli(0.3)) continue;
        const bool had = ref.remove(id);
        EXPECT_EQ(batched.remove(id), had);
        EXPECT_EQ(eager.remove(id), had);
      }
      compare(round);
    }
  }
}

// A refresh with the same constraints under a new pointer replaces the
// stored Subscription without touching the index, so the previous object
// dies with its last owner (the store) while its bucket entries are still
// pending. The index must read constraints through the store, never
// through a pointer it kept: under the asan preset a kept pointer is a
// use-after-free here.
TEST(StoreSlotTableTest, SameConstraintsRefreshDropsOldPointerBeforeMatch) {
  const Schema schema = Schema::uniform(2, 999);
  for (const MatchEngine engine : kEngines) {
    SubscriptionStore store;
    store.use_engine(engine, schema);
    // Sub 1 contains sub 2; subs 3 and 4 differ on one attribute only.
    const std::vector<std::vector<Constraint>> filters = {
        {{0, {100, 500}}},
        {{0, {200, 300}}, {1, {0, 10}}},
        {{0, {600, 650}}, {1, {50, 60}}},
        {{0, {651, 700}}, {1, {50, 60}}},
    };
    std::vector<std::weak_ptr<const Subscription>> old;
    for (std::size_t i = 0; i < filters.size(); ++i) {
      SubscriptionPtr sub = make_sub(i + 1, filters[i]);
      old.push_back(sub);
      store.insert({std::move(sub), sim::kSimTimeNever, {}, false});
    }
    for (std::size_t i = 0; i < filters.size(); ++i) {
      EXPECT_FALSE(store.insert(
          {make_sub(i + 1, filters[i]), sim::kSimTimeNever, {}, false}));
      EXPECT_TRUE(old[i].expired()) << to_string(engine);
    }
    const auto ids_at = [&](std::vector<Value> values) {
      Event e;
      e.id = 1;
      e.values = std::move(values);
      std::vector<SubscriptionId> ids;
      for (const SubscriptionStore::Record* r : store.match(e, 0)) {
        EXPECT_EQ(r, store.find(r->sub->id));
        ids.push_back(r->sub->id);
      }
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    EXPECT_EQ(ids_at({250, 5}), (std::vector<SubscriptionId>{1, 2}))
        << to_string(engine);
    EXPECT_EQ(ids_at({620, 55}), (std::vector<SubscriptionId>{3}))
        << to_string(engine);
    EXPECT_EQ(ids_at({680, 55}), (std::vector<SubscriptionId>{4}))
        << to_string(engine);
    // Removing reads the refreshed constraints too.
    EXPECT_TRUE(store.remove(1));
    EXPECT_TRUE(store.remove(3));
    EXPECT_EQ(ids_at({250, 5}), (std::vector<SubscriptionId>{2}))
        << to_string(engine);
    EXPECT_EQ(ids_at({680, 55}), (std::vector<SubscriptionId>{4}))
        << to_string(engine);
  }
}

// Both engines hold one domain contract: a value outside its attribute's
// domain satisfies no constraint, even one whose range reaches past the
// domain, and still passes an unconstrained attribute. Brute force used
// to read the raw range and match {[500, 2000]} at 1500 on [0, 999].
TEST(StoreDomainTest, ValueOutsideTheDomainSatisfiesNoConstraint) {
  const Schema one = Schema::uniform(1, 999);
  const Schema two = Schema::uniform(2, 999);
  for (const MatchEngine engine : kEngines) {
    SubscriptionStore store;
    store.use_engine(engine, one);
    store.insert({make_sub(1, {{0, {500, 2000}}}), sim::kSimTimeNever, {},
                  false});
    Event e;
    e.id = 1;
    e.values = {1500};
    EXPECT_TRUE(store.match(e, 0).empty()) << to_string(engine);
    e.values = {700};
    EXPECT_EQ(store.match(e, 0).size(), 1u) << to_string(engine);

    SubscriptionStore wide;
    wide.use_engine(engine, two);
    wide.insert({make_sub(2, {{0, {-50, 100}}}), sim::kSimTimeNever, {},
                 false});
    wide.insert({make_sub(3, {}), sim::kSimTimeNever, {}, false});
    e.values = {-10, 5};  // outside attribute 0's domain
    ASSERT_EQ(wide.match(e, 0).size(), 1u) << to_string(engine);
    EXPECT_EQ(wide.match(e, 0).front()->sub->id, 3u) << to_string(engine);
    e.values = {50, 5000};  // outside unconstrained attribute 1's domain
    EXPECT_EQ(wide.match(e, 0).size(), 2u) << to_string(engine);
  }
}

// A record is two shared pointers (subscription and SK runs), the expiry
// and the replica flag: it owns no copy of the runs. A node holds one per
// stored copy, so under M1 records are most of a rendezvous node's
// footprint.
TEST(StoreLayoutTest, RecordSharesItsRunsByPointer) {
  static_assert(std::is_same_v<decltype(SubscriptionStore::Record::runs),
                               RunsPtr>);
  if constexpr (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(SubscriptionStore::Record), 48u);
  }
  const auto runs = std::make_shared<const std::vector<KeyRange>>(
      std::vector<KeyRange>{{3, 9}});
  SubscriptionStore store;
  const SubscriptionStore::Record rec{make_sub(1, {}), sim::kSimTimeNever,
                                      runs, false};
  EXPECT_TRUE(store.insert(rec));
  EXPECT_EQ(store.find(1)->runs, runs);  // shared, not copied
  EXPECT_EQ(runs.use_count(), 3);        // runs, rec and the stored copy
}

}  // namespace
}  // namespace pubsub
}  // namespace cbps
