// Ablation — §5.1's "finger caching" observation: with n = 500 the
// average number of hops to deliver a message between two random nodes
// is ~2.5, better than log2(n) ≈ 9, thanks to the location cache.
//
// Sweeps the cache configuration (off / passive only / passive + owner
// feedback) and reports the average route length over a warm workload.
#include <cstdio>
#include <memory>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/sim/simulator.hpp"
#include "sweep.hpp"

using namespace cbps;
using namespace cbps::chord;

namespace {

struct Row {
  double avg_hops = 0;
  double hops_p50 = 0;
  double hops_p99 = 0;
  std::uint64_t sim_events = 0;
};

bench::JsonFields json_fields(const Row& r) {
  return {{"avg_hops", r.avg_hops},
          {"hops_p50", r.hops_p50},
          {"hops_p99", r.hops_p99}};
}

struct ProbePayload final : overlay::Payload {
  overlay::MessageClass message_class() const override {
    return overlay::MessageClass::kPublish;
  }
};

struct NullApp final : overlay::OverlayApp {
  void on_deliver(Key, const overlay::PayloadPtr&) override {}
  void on_deliver_mcast(std::span<const Key>,
                        const overlay::PayloadPtr&) override {}
  overlay::PayloadPtr export_state(Key, Key, bool) override {
    return nullptr;
  }
  void import_state(const overlay::PayloadPtr&) override {}
};

Row run(std::size_t cache_size, bool feedback, std::size_t n,
        std::size_t messages, std::size_t warmup = 0) {
  sim::Simulator sim;
  ChordConfig cfg;
  cfg.location_cache_size = cache_size;
  cfg.owner_feedback = feedback;
  ChordNetwork net(sim, cfg, 12345);
  for (std::size_t i = 0; i < n; ++i) {
    net.add_node(std::string("node-").append(std::to_string(i)));
  }
  net.build_static_ring();
  std::vector<std::unique_ptr<NullApp>> apps;
  for (Key id : net.alive_ids()) {
    apps.push_back(std::make_unique<NullApp>());
    net.node(id)->set_app(apps.back().get());
  }

  Rng rng(7);
  const auto payload = std::make_shared<ProbePayload>();
  for (std::size_t i = 0; i < warmup + messages; ++i) {
    if (i == warmup) {
      sim.run();
      // Measure the warmed steady state only.
      net.registry().histogram("chord.route_hops").reset();
    }
    ChordNode& src = net.alive_node(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    const Key key = static_cast<Key>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.ring().max_key())));
    src.send(key, payload);
    // Pace the sends so feedback from earlier routes lands first.
    sim.run_until(sim.now() + sim::ms(500));
  }
  sim.run();
  metrics::Histogram& hops = net.registry().histogram("chord.route_hops");
  return Row{hops.mean(), hops.p50(), hops.p99(), sim.events_processed()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep<Row> sweep("route_cache_ablation");
  if (!sweep.parse_args(argc, argv)) return 1;

  sweep.add("no cache", [] { return run(0, false, 500, 5000); });
  sweep.add("passive cache (128 entries)",
            [] { return run(128, false, 500, 5000); });
  sweep.add("passive + owner feedback",
            [] { return run(128, true, 500, 5000); });
  sweep.add("large cache (512) + feedback",
            [] { return run(512, true, 500, 5000); });
  sweep.add("warmed 512-cache (100k warm-up)",
            [] { return run(512, true, 500, 20000, 100000); });

  std::puts("=== Route-cache ablation: avg hops per unicast, n=500 ===");
  std::puts("5000 random routes from random sources (paper §5.1: ~2.5 hops");
  std::puts("at n=500, better than log2(500) = 9, via finger caching)\n");
  std::printf("%-34s %10s\n", "configuration", "avg hops");
  sweep.run([&](std::size_t i, const Row& r) {
    std::printf("%-34s %10.2f\n", sweep.label(i).c_str(), r.avg_hops);
  });
  std::puts("\n(the paper's ~2.5 is the steady state of a long experiment,");
  std::puts("where every node has learned most owners)");
  return 0;
}
