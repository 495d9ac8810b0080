// Ablation — overlay portability (§3.1 footnote 1): the same CB-pub/sub
// layer and workload running over the Chord substrate and over the
// Pastry-style prefix-routing substrate. Compares per-request hop costs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/pastry/pastry.hpp"
#include "cbps/pubsub/node.hpp"
#include "cbps/sim/simulator.hpp"
#include "cbps/workload/generator.hpp"
#include "sweep.hpp"

using namespace cbps;

namespace {

struct Result {
  double hops_per_sub = 0;
  double hops_per_pub = 0;
  double hops_per_notif = 0;
  std::uint64_t notifications = 0;
  double delay_p50_s = 0;  // publish-to-notify latency distribution
  double delay_p99_s = 0;
  double hops_p50 = 0;     // per-route hop distribution
  double hops_p99 = 0;
  std::uint64_t sim_events = 0;
};

bench::JsonFields json_fields(const Result& r) {
  return {{"hops_per_sub", r.hops_per_sub},
          {"hops_per_pub", r.hops_per_pub},
          {"hops_per_notif", r.hops_per_notif},
          {"notifications", static_cast<double>(r.notifications)},
          {"delay_p50_s", r.delay_p50_s},
          {"delay_p99_s", r.delay_p99_s},
          {"hops_p50", r.hops_p50},
          {"hops_p99", r.hops_p99}};
}

bench::JsonFields metrics_fields(const Result& r) {
  return {{"delay_p50_s", r.delay_p50_s},
          {"delay_p99_s", r.delay_p99_s},
          {"hops_p50", r.hops_p50},
          {"hops_p99", r.hops_p99},
          {"hops_per_notif", r.hops_per_notif}};
}

// Drive the identical workload over any pair of (nodes, traffic stats).
template <typename MakeNode>
Result drive(sim::Simulator& sim, const std::vector<Key>& ids,
             MakeNode&& node_of, overlay::TrafficStats& traffic,
             pubsub::MappingKind kind,
             pubsub::PubSubConfig::Transport transport) {
  const pubsub::Schema schema = pubsub::Schema::uniform(4, 1'000'000);
  const auto mapping = pubsub::make_mapping(kind, schema, RingParams{13});

  pubsub::PubSubConfig pcfg;
  pcfg.sub_transport = transport;
  pcfg.pub_transport = transport;

  std::vector<std::unique_ptr<pubsub::PubSubNode>> nodes;
  for (Key id : ids) {
    nodes.push_back(std::make_unique<pubsub::PubSubNode>(node_of(id), sim,
                                                         *mapping, pcfg));
  }
  std::uint64_t delivered = 0;
  for (auto& n : nodes) {
    n->set_notify_sink(
        [&delivered](Key, const pubsub::Notification&) { ++delivered; });
  }

  workload::WorkloadGenerator gen(schema, {}, 424242);
  std::vector<pubsub::SubscriptionPtr> active;
  const std::uint64_t kSubs = 400;
  const std::uint64_t kPubs = 400;
  SubscriptionId next_sub = 1;
  EventId next_event = 1;
  for (std::uint64_t i = 0; i < kSubs; ++i) {
    const auto idx = static_cast<std::size_t>(
        gen.rng().uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
    auto sub = std::make_shared<pubsub::Subscription>();
    sub->id = next_sub++;
    sub->subscriber = ids[idx];
    sub->constraints = gen.make_constraints();
    nodes[idx]->subscribe(sub);
    active.push_back(std::move(sub));
    sim.run_until(sim.now() + sim::sec(5));
  }
  for (std::uint64_t i = 0; i < kPubs; ++i) {
    const auto idx = static_cast<std::size_t>(
        gen.rng().uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
    auto event = std::make_shared<pubsub::Event>();
    event->id = next_event++;
    event->values = gen.make_event_values(active);
    nodes[idx]->publish(std::move(event));
    sim.run_until(sim.now() + sim::sec(5));
  }
  sim.run();

  Result r;
  r.hops_per_sub =
      static_cast<double>(traffic.hops(overlay::MessageClass::kSubscribe)) /
      static_cast<double>(kSubs);
  r.hops_per_pub =
      static_cast<double>(traffic.hops(overlay::MessageClass::kPublish)) /
      static_cast<double>(kPubs);
  r.notifications = delivered;
  if (delivered > 0) {
    r.hops_per_notif =
        static_cast<double>(traffic.hops(overlay::MessageClass::kNotify)) /
        static_cast<double>(delivered);
  }
  metrics::Histogram delay_hist;
  for (const auto& n : nodes) delay_hist.merge(n->delay_histogram());
  r.delay_p50_s = delay_hist.p50();
  r.delay_p99_s = delay_hist.p99();
  r.sim_events = sim.events_processed();
  return r;
}

Result run_chord(pubsub::MappingKind kind,
                 pubsub::PubSubConfig::Transport transport) {
  sim::Simulator sim;
  chord::ChordConfig cfg;
  chord::ChordNetwork net(sim, cfg, 11);
  for (int i = 0; i < 200; ++i) {
    net.add_node(std::string("c").append(std::to_string(i)));
  }
  net.build_static_ring();
  Result r = drive(
      sim, net.alive_ids(),
      [&net](Key id) -> overlay::OverlayNode& { return *net.node(id); },
      net.traffic(), kind, transport);
  metrics::Histogram& hops = net.registry().histogram("chord.route_hops");
  r.hops_p50 = hops.p50();
  r.hops_p99 = hops.p99();
  return r;
}

Result run_pastry(pubsub::MappingKind kind,
                  pubsub::PubSubConfig::Transport transport) {
  sim::Simulator sim;
  pastry::PastryConfig cfg;
  pastry::PastryNetwork net(sim, cfg, 11);
  for (int i = 0; i < 200; ++i) {
    net.add_node(std::string("c").append(std::to_string(i)));
  }
  net.build_static_ring();
  Result r = drive(
      sim, net.ids(),
      [&net](Key id) -> overlay::OverlayNode& { return *net.node(id); },
      net.traffic(), kind, transport);
  metrics::Histogram& hops = net.registry().histogram("pastry.route_hops");
  r.hops_p50 = hops.p50();
  r.hops_p99 = hops.p99();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using Transport = pubsub::PubSubConfig::Transport;
  bench::Sweep<Result> sweep("overlay_portability");
  if (!sweep.parse_args(argc, argv)) return 1;

  struct Case {
    pubsub::MappingKind kind;
    Transport transport;
    const char* label;
  };
  const Case cases[] = {
      {pubsub::MappingKind::kSelectiveAttribute, Transport::kUnicast,
       "M3 selective-attr"},
      {pubsub::MappingKind::kSelectiveAttribute, Transport::kMulticast,
       "M3 selective-attr"},
      {pubsub::MappingKind::kKeySpaceSplit, Transport::kUnicast,
       "M2 key-space-split"},
  };
  const char* overlays[] = {"chord", "pastry"};
  for (const Case& c : cases) {
    const char* tname =
        c.transport == Transport::kUnicast ? "unicast" : "m-cast";
    for (std::size_t o = 0; o < std::size(overlays); ++o) {
      sweep.add(std::string(c.label) + "/" + tname + "/" + overlays[o],
                [&c, o] {
                  return o == 0 ? run_chord(c.kind, c.transport)
                                : run_pastry(c.kind, c.transport);
                });
    }
  }

  std::puts("=== Overlay portability: identical pub/sub layer + workload ===");
  std::puts("n=200, 400 subs + 400 pubs, paper workload; Chord has the");
  std::puts("location cache, Pastry is pure prefix routing\n");
  std::printf("%-20s %-9s %-8s %10s %10s %12s %8s\n", "mapping", "transport",
              "overlay", "hops/sub", "hops/pub", "hops/notif", "notifs");

  sweep.run([&](std::size_t i, const Result& r) {
    const Case& c = cases[i / std::size(overlays)];
    const char* tname =
        c.transport == Transport::kUnicast ? "unicast" : "m-cast";
    std::printf("%-20s %-9s %-8s %10.1f %10.2f %12.2f %8llu\n", c.label,
                tname, overlays[i % std::size(overlays)], r.hops_per_sub,
                r.hops_per_pub, r.hops_per_notif,
                static_cast<unsigned long long>(r.notifications));
  });
  std::puts("\nthe identical notification counts confirm the layer is");
  std::puts("overlay-agnostic; hop differences reflect the substrates'");
  std::puts("routing (cached Chord vs pure prefix routing).");
  return 0;
}
