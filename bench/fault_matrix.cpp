// Extension experiment — the fault matrix: scripted fault scenarios
// (partition/heal, bursty Gilbert–Elliott loss, gray failures,
// correlated crash bursts, and all of them at once) crossed with the
// paper's AK mappings.
//
// Each cell runs the standard workload under one FaultScript and
// reports the overall and post-heal delivery ratios, the reliability
// overhead paid (retransmissions, messages cut by the partition), how
// long the ring took to re-merge after heal, and what the post-run
// invariant auditor found. The headline: with replication and the
// ack/retry layer, every scenario returns to delivery ratio 1.0 after
// its faults clear, and the auditor certifies the ring and the
// subscription placement.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cbps/pubsub/audit.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "sweep.hpp"

using namespace cbps;

namespace {

struct Scenario {
  const char* label;
  const char* script;          // FaultScript text ("" = baseline)
  double post_heal_from_s;     // post-heal window start (0 = whole run)
};

// Faults start after the 60 subscriptions have registered (t = 300 s)
// and clear with enough run left (~1500 s of publications) to observe
// recovery.
const Scenario kScenarios[] = {
    {"baseline", "", 0},
    {"partition", "partition at=400 heal=700 frac=0.4", 760},
    {"burst_loss",
     "loss at=300 until=1200 model=ge p=0.02 q=0.2 good=0.005 bad=0.7",
     1260},
    {"gray", "slow at=300 until=1200 nodes=6 factor=8", 0},
    {"crash_burst", "crash_burst at=700 count=6 correlation=0.7", 760},
    {"combined",
     "loss at=300 until=1200 model=ge p=0.02 q=0.2 good=0.005 bad=0.7\n"
     "slow at=300 until=1200 nodes=4 factor=6\n"
     "partition at=400 heal=700 frac=0.3\n"
     "crash_burst at=900 count=4 correlation=0.5",
     1260},
};

struct Row {
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  double delivery_rate = 1.0;
  double post_heal_rate = 1.0;
  std::uint64_t retransmits = 0;
  std::uint64_t partition_cut = 0;  // refused + dropped at the cut
  std::uint64_t crashes = 0;
  double recovery_s = -1.0;  // heal -> ring audit clean (-1 = n/a)
  bool ring_ok = false;
  std::uint64_t audit_violations = 0;  // placement+replica+rendezvous
  double delay_p50_s = 0;
  double delay_p99_s = 0;
  double hops_p50 = 0;
  double hops_p99 = 0;
  std::uint64_t sim_events = 0;
};

bench::JsonFields json_fields(const Row& r) {
  return {{"expected", static_cast<double>(r.expected)},
          {"missing", static_cast<double>(r.missing)},
          {"duplicates", static_cast<double>(r.duplicates)},
          {"delivery_rate", r.delivery_rate},
          {"post_heal_rate", r.post_heal_rate},
          {"retransmits", static_cast<double>(r.retransmits)},
          {"partition_cut", static_cast<double>(r.partition_cut)},
          {"crashes", static_cast<double>(r.crashes)},
          {"recovery_s", r.recovery_s},
          {"ring_ok", r.ring_ok ? 1.0 : 0.0},
          {"audit_violations", static_cast<double>(r.audit_violations)},
          {"delay_p50_s", r.delay_p50_s},
          {"delay_p99_s", r.delay_p99_s},
          {"hops_p50", r.hops_p50},
          {"hops_p99", r.hops_p99}};
}

bench::JsonFields metrics_fields(const Row& r) {
  return {{"delay_p50_s", r.delay_p50_s},
          {"delay_p99_s", r.delay_p99_s},
          {"hops_p50", r.hops_p50},
          {"hops_p99", r.hops_p99},
          {"delivery_rate", r.delivery_rate},
          {"post_heal_rate", r.post_heal_rate}};
}

Row run(const Scenario& sc, pubsub::MappingKind mapping) {
  std::string error;
  const auto script = workload::FaultScript::parse(sc.script, &error);
  CBPS_ASSERT_MSG(script.has_value(), "bad scenario script");

  pubsub::SystemConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 4242;
  cfg.chord.ring = RingParams{12};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.force_reliable = script->needs_reliable_transport();
  cfg.mapping = mapping;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.replication_factor = 2;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  pubsub::DeliveryChecker checker;
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 17);
  workload::DriverParams dp;
  dp.max_subscriptions = 60;
  dp.max_publications = 300;
  dp.sub_interval = sim::sec(5);
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();

  workload::FaultScriptRunner runner(
      system, *script, cfg.seed, [&driver](Key id) {
        // Subscribers survive: the matrix measures rendezvous-state and
        // wire resilience, not subscriber death.
        for (const auto& sub : driver.active_subscriptions()) {
          if (sub->subscriber == id) return true;
        }
        return false;
      });
  runner.set_delivery_checker(&checker);
  runner.start();

  // Ring-recovery probe: after the partition heals, poll the ring audit
  // every 5 simulated seconds and record how long the re-merge took.
  auto recovery_s = std::make_shared<double>(-1.0);
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [&system, &runner, recovery_s, poll] {
    if (*recovery_s >= 0) return;
    if (runner.last_heal_at() != sim::kSimTimeNever &&
        !system.network().partitioned() &&
        pubsub::audit_ring(system.network()).ok()) {
      *recovery_s =
          sim::to_seconds(system.sim().now() - runner.last_heal_at());
      return;
    }
    system.sim().schedule_after(sim::sec(5), *poll);
  };
  system.sim().schedule_after(sim::sec(5), *poll);

  system.run_for(sim::sec(2'000));
  system.run_for(sim::sec(200));  // drain retries + final repairs

  const auto report = checker.verify(/*grace=*/sim::sec(15));
  const auto post_heal = checker.verify(
      /*grace=*/sim::sec(15), sim::from_seconds(sc.post_heal_from_s));
  const auto audit = pubsub::audit_system(system);
  const metrics::Registry& reg = system.network().registry();

  Row row;
  row.expected = report.expected;
  row.missing = report.missing;
  row.duplicates = report.duplicates;
  row.delivery_rate =
      report.expected == 0
          ? 1.0
          : static_cast<double>(report.delivered) /
                static_cast<double>(report.expected);
  row.post_heal_rate =
      post_heal.expected == 0
          ? 1.0
          : static_cast<double>(post_heal.delivered) /
                static_cast<double>(post_heal.expected);
  row.retransmits = reg.counter_value("chord.retransmits");
  row.partition_cut = reg.counter_value("chord.net.partition_refused") +
                      reg.counter_value("chord.net.partition_dropped");
  row.crashes = runner.crashes();
  row.recovery_s = *recovery_s;
  row.ring_ok = audit.ring.ok();
  row.audit_violations = audit.misplaced_records + audit.under_replicated +
                         audit.unstored_subscriptions;
  const metrics::Histogram delay_hist = system.delay_histogram();
  row.delay_p50_s = delay_hist.p50();
  row.delay_p99_s = delay_hist.p99();
  metrics::Registry& reg_mut = system.network().registry();
  row.hops_p50 = reg_mut.histogram("chord.route_hops").p50();
  row.hops_p99 = reg_mut.histogram("chord.route_hops").p99();
  row.sim_events = system.sim().events_processed();
  return row;
}

const char* mapping_tag(pubsub::MappingKind m) {
  return m == pubsub::MappingKind::kAttributeSplit ? "m1" : "m3";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep<Row> sweep("fault_matrix");
  if (!sweep.parse_args(argc, argv)) return 1;

  const pubsub::MappingKind mappings[] = {
      pubsub::MappingKind::kAttributeSplit,
      pubsub::MappingKind::kSelectiveAttribute};
  for (const Scenario& sc : kScenarios) {
    for (const auto mapping : mappings) {
      sweep.add(std::string(sc.label) + "/" + mapping_tag(mapping),
                [&sc, mapping] { return run(sc, mapping); });
    }
  }

  std::puts("=== Fault matrix: scripted scenarios x AK mapping ===");
  std::puts("64 nodes, repl=2, 60 subscriptions + 300 publications;");
  std::puts("partition 40% for 300s / GE burst loss / gray x8 / crash");
  std::puts("bursts (correlated along the ring) / all combined\n");
  std::printf("%-11s %-3s %9s %8s %6s %10s %10s %8s %7s %9s %5s %5s\n",
              "scenario", "map", "expected", "missing", "dups", "delivered",
              "post-heal", "retrans", "cut", "recover", "ring", "viol");
  const std::size_t per_group = std::size(mappings);
  sweep.run([&](std::size_t i, const Row& r) {
    const Scenario& sc = kScenarios[i / per_group];
    char recover[16];
    if (r.recovery_s < 0) {
      std::snprintf(recover, sizeof recover, "-");
    } else {
      std::snprintf(recover, sizeof recover, "%.0fs", r.recovery_s);
    }
    std::printf(
        "%-11s %-3s %9llu %8llu %6llu %9.1f%% %9.1f%% %8llu %7llu %9s "
        "%5s %5llu\n",
        sc.label, mapping_tag(mappings[i % per_group]),
        static_cast<unsigned long long>(r.expected),
        static_cast<unsigned long long>(r.missing),
        static_cast<unsigned long long>(r.duplicates),
        100.0 * r.delivery_rate, 100.0 * r.post_heal_rate,
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.partition_cut), recover,
        r.ring_ok ? "ok" : "BAD",
        static_cast<unsigned long long>(r.audit_violations));
  });
  std::puts("\npost-heal = delivery ratio counting only publications after");
  std::puts("the scenario's faults cleared; recover = partition heal to a");
  std::puts("clean ring audit; viol = post-run placement/replication/");
  std::puts("rendezvous violations found by the invariant auditor.");
  return 0;
}
