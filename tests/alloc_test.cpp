// Allocation guard for the m-cast data plane. This binary replaces the
// global operator new with a counting one, so a test can assert how many
// heap allocations a stretch of simulation makes.
//
// - A warmed-up static Chord ring must forward m-cast hops whose branches
//   carry one run each without a single heap allocation: the partition
//   and the local keys live in reused per-thread buffers, a one-run
//   McastMsg holds its run inline, and the hop rides by value in its
//   event.
// - The same ring with the ack/retry layer armed on a lossless wire must
//   forward reliable unicast hops without a heap allocation: the
//   retransmission copy waits on its peer's link record and the
//   receiver's duplicate filter is a per-link window, not a set of ids.
// - Allocations per M1 m-cast subscribe and per M3 unicast publish (the
//   publish -> match -> notify path) on a small PubSubSystem are printed,
//   so before/after figures can be quoted, and held to a ceiling. The
//   publish ceiling is the count measured while every pub/sub message
//   was its own Payload subclass (3 065 over 300 publishes): carrying
//   the messages in one variant payload must not cost more heap traffic.
//   The subscribe ceiling is the count measured once every stored copy,
//   replica and message shared the subscriber's one copy of the SK runs
//   (3 849 over 200 subscribes): no copy may allocate runs again.
//   Neither count is zero — the mapping builds each subscription's runs,
//   and every message is one shared payload.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/sim/simulator.hpp"
#include "cbps/workload/generator.hpp"

namespace {

// Single-threaded tests only: the counter is a plain integer.
bool g_counting = false;
std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The replacement new above takes its memory from malloc, so free is the
// matching release; GCC cannot see that through the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace cbps {
namespace {

/// Heap allocations made while `fn` runs.
template <class Fn>
std::uint64_t allocations_during(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

struct NoopPayload final : overlay::Payload {
  overlay::MessageClass message_class() const override {
    return overlay::MessageClass::kSubscribe;
  }
};

class NoopApp final : public overlay::OverlayApp {
 public:
  void on_deliver(Key, const overlay::PayloadPtr&) override { ++routed; }
  void on_deliver_mcast(std::span<const Key> covered,
                        const overlay::PayloadPtr&) override {
    keys += covered.size();
  }
  overlay::PayloadPtr export_state(Key, Key, bool) override {
    return nullptr;
  }
  void import_state(const overlay::PayloadPtr&) override {}

  std::uint64_t keys = 0;
  std::uint64_t routed = 0;
};

TEST(AllocGuardTest, SteadyStateMcastHopsDoNotAllocate) {
  sim::Simulator sim;
  chord::ChordNetwork net(sim, chord::ChordConfig{}, 7);
  for (int i = 0; i < 64; ++i) {
    net.add_node(std::string("n").append(std::to_string(i)));
  }
  net.build_static_ring();
  NoopApp app;
  for (const Key id : net.alive_ids()) net.node(id)->set_app(&app);
  const RingParams ring = net.ring();

  // One run per m-cast, each spanning several nodes, none containing its
  // initiator: every branch then carries exactly one run.
  struct Cast {
    std::size_t from;
    KeyRange run;
  };
  std::vector<Cast> casts;
  for (std::size_t i = 0; i < 48; ++i) {
    const std::size_t from = (i * 17) % 64;
    const Key self = net.alive_node(from).id();
    const Key lo = ring.add(self, 1 + 131 * static_cast<Key>(i + 1));
    const KeyRange run{lo, ring.add(lo, 200 + 40 * (i % 7))};
    if (run.contains(ring, self)) continue;
    casts.push_back({from, run});
  }
  ASSERT_GT(casts.size(), 40u);

  // Issue every m-cast and run it to completion. The runs and payloads
  // are built before the count starts; the count covers the initiator's
  // hop, every forwarded hop and every local delivery.
  const auto round = [&] {
    std::vector<std::vector<KeyRange>> runs;
    std::vector<overlay::PayloadPtr> payloads;
    for (const Cast& c : casts) {
      runs.push_back({c.run});
      payloads.push_back(std::make_shared<NoopPayload>());
    }
    return allocations_during([&] {
      for (std::size_t i = 0; i < casts.size(); ++i) {
        net.alive_node(casts[i].from)
            .m_cast_runs(std::move(runs[i]), std::move(payloads[i]));
      }
      sim.run();
    });
  };
  // Warm-up: grows the per-thread m-cast buffers, the candidate caches
  // and the event queue to their working size.
  round();
  round();

  const std::uint64_t hops_before =
      net.traffic().hops(overlay::MessageClass::kSubscribe);
  const std::uint64_t keys_before = app.keys;
  const std::uint64_t allocations = round();
  const std::uint64_t hops =
      net.traffic().hops(overlay::MessageClass::kSubscribe) - hops_before;
  std::uint64_t want_keys = 0;
  for (const Cast& c : casts) want_keys += c.run.size(ring);
  EXPECT_EQ(app.keys - keys_before, want_keys);
  EXPECT_GT(hops, casts.size());
  std::printf("m-cast hops: %llu, heap allocations: %llu\n",
              static_cast<unsigned long long>(hops),
              static_cast<unsigned long long>(allocations));
  EXPECT_EQ(allocations, 0u) << "over " << hops << " m-cast hops";
}

TEST(AllocGuardTest, SteadyStateReliableUnicastHopsDoNotAllocate) {
  // The ack/retry layer armed on a lossless wire: every hop parks a
  // retransmission copy on its link, the receiver acks it and records
  // its id, and the ack retires the copy. None of that may allocate once
  // the links exist — a per-message hash node (a seen-set entry or a
  // pending-send map node) would show here as at least one allocation
  // per hop.
  sim::Simulator sim;
  chord::ChordConfig cfg;
  cfg.force_reliable = true;
  chord::ChordNetwork net(sim, cfg, 7);
  for (int i = 0; i < 64; ++i) {
    net.add_node(std::string("n").append(std::to_string(i)));
  }
  net.build_static_ring();
  NoopApp app;
  for (const Key id : net.alive_ids()) net.node(id)->set_app(&app);
  const RingParams ring = net.ring();

  constexpr std::size_t kSends = 200;
  const auto round = [&] {
    std::vector<overlay::PayloadPtr> payloads;
    for (std::size_t i = 0; i < kSends; ++i) {
      payloads.push_back(std::make_shared<NoopPayload>());
    }
    return allocations_during([&] {
      for (std::size_t i = 0; i < kSends; ++i) {
        const Key key = ring.add(0, 977 * static_cast<Key>(i + 1));
        net.alive_node((i * 13) % 64).send(key, std::move(payloads[i]));
      }
      sim.run();
    });
  };
  // Warm-up: creates every link the sends use and grows the link
  // records, the location caches and the event queue to working size.
  // The routes settle as the location caches learn the owners, so the
  // third round still opens a few links (10 allocations); the fourth
  // opens none. The earlier seen-set layout made 394 over these 197 hops:
  // one set node and one pending-send map node per hop.
  round();
  round();
  round();

  const std::uint64_t hops_before =
      net.traffic().hops(overlay::MessageClass::kSubscribe);
  const metrics::Histogram& acked =
      net.registry().histogram("chord.retries_per_send");
  const std::uint64_t acked_before = acked.count();
  const std::uint64_t routed_before = app.routed;
  const std::uint64_t allocations = round();
  const std::uint64_t hops =
      net.traffic().hops(overlay::MessageClass::kSubscribe) - hops_before;
  EXPECT_EQ(app.routed - routed_before, kSends);
  EXPECT_GT(hops, kSends / 2);
  EXPECT_EQ(acked.count() - acked_before, hops);  // every hop was reliable
  std::printf("reliable unicast hops: %llu, heap allocations: %llu\n",
              static_cast<unsigned long long>(hops),
              static_cast<unsigned long long>(allocations));
  EXPECT_EQ(allocations, 0u) << "over " << hops << " reliable hops";
}

TEST(AllocGuardTest, PrintsAllocationsPerM1Subscribe) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 3;
  cfg.chord.ring = RingParams{13};
  cfg.mapping = pubsub::MappingKind::kAttributeSplit;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.match_engine = pubsub::MatchEngine::kCountingIndex;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(4, 1'000'000));
  workload::WorkloadParams wp;
  wp.selective.assign(4, false);
  wp.zipf_exponent = 0.7;
  workload::WorkloadGenerator gen(system.schema(), wp, 11);

  const auto subscribe = [&](std::size_t n) {
    std::vector<std::vector<pubsub::Constraint>> constraints;
    for (std::size_t i = 0; i < n; ++i) {
      constraints.push_back(gen.make_constraints());
    }
    return allocations_during([&] {
      for (std::size_t i = 0; i < n; ++i) {
        system.subscribe(i % cfg.nodes, std::move(constraints[i]));
        system.run_for(sim::sec(5));
      }
    });
  };
  subscribe(100);  // warm-up
  constexpr std::size_t kSubs = 200;
  const std::uint64_t allocations = subscribe(kSubs);
  std::printf("allocations per M1 m-cast subscribe (64 nodes): %.1f "
              "(%llu over %zu)\n",
              static_cast<double>(allocations) / kSubs,
              static_cast<unsigned long long>(allocations), kSubs);
  EXPECT_LE(allocations, 3849u);
}

TEST(AllocGuardTest, PrintsAllocationsPerM3UnicastPublish) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 5;
  cfg.chord.ring = RingParams{13};
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.pub_transport = pubsub::PubSubConfig::Transport::kUnicast;
  cfg.pubsub.match_engine = pubsub::MatchEngine::kCountingIndex;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(4, 1'000'000));
  workload::WorkloadParams wp;
  wp.selective.assign(4, false);
  wp.zipf_exponent = 0.7;
  wp.matching_probability = 0.5;
  workload::WorkloadGenerator gen(system.schema(), wp, 13);

  std::vector<pubsub::SubscriptionPtr> active;
  for (std::size_t i = 0; i < 300; ++i) {
    active.push_back(system.subscribe(i % cfg.nodes, gen.make_constraints()));
    system.run_for(sim::sec(5));
  }
  const auto publish = [&](std::size_t n) {
    std::vector<std::vector<Value>> values;
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(gen.make_event_values(active));
    }
    return allocations_during([&] {
      for (std::size_t i = 0; i < n; ++i) {
        system.publish(i % cfg.nodes, std::move(values[i]));
        system.run_for(sim::sec(5));
      }
    });
  };
  publish(100);  // warm-up
  const std::uint64_t delivered_before = system.notifications_delivered();
  constexpr std::size_t kPubs = 300;
  const std::uint64_t allocations = publish(kPubs);
  const std::uint64_t delivered =
      system.notifications_delivered() - delivered_before;
  std::printf("allocations per M3 unicast publish (64 nodes, %.2f "
              "notifications each): %.1f (%llu over %zu)\n",
              static_cast<double>(delivered) / kPubs,
              static_cast<double>(allocations) / kPubs,
              static_cast<unsigned long long>(allocations), kPubs);
  EXPECT_GT(delivered, kPubs / 4);  // the notify leg is on the path
  EXPECT_LE(allocations, 3065u);
}

}  // namespace
}  // namespace cbps
