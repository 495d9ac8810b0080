// Extension experiment — delivery under continuous membership churn.
//
// The paper's central claim is self-configuration ("adaptiveness to
// dynamic changes", §1) but its evaluation runs on a stable ring. This
// bench quantifies the claim: a Poisson churn process (40% joins, the
// rest split between graceful leaves and crashes) runs concurrently with
// the paper workload, and a delivery ledger reports how much of the
// matched traffic still reached its subscribers — with and without
// subscription replication (§4.1).
#include <cstdio>
#include <string>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "sweep.hpp"

using namespace cbps;

namespace {

struct Row {
  std::uint64_t events = 0;
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  double delivery_rate = 1.0;
  double delay_p50_s = 0;
  double delay_p99_s = 0;
  double hops_p50 = 0;
  double hops_p99 = 0;
  std::uint64_t sim_events = 0;
};

bench::JsonFields json_fields(const Row& r) {
  return {{"churn_events", static_cast<double>(r.events)},
          {"expected", static_cast<double>(r.expected)},
          {"missing", static_cast<double>(r.missing)},
          {"duplicates", static_cast<double>(r.duplicates)},
          {"delivery_rate", r.delivery_rate},
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
          {"delivery_rate", r.delivery_rate}};
}

Row run(double churn_interval_s, std::size_t replication,
        const char* fault_script) {
  std::string error;
  const auto script = workload::FaultScript::parse(fault_script, &error);
  CBPS_ASSERT_MSG(script.has_value(), "bad churn fault script");

  pubsub::SystemConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 4242;
  cfg.chord.ring = RingParams{12};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.force_reliable = script->needs_reliable_transport();
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.replication_factor = replication;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  pubsub::DeliveryChecker checker;
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 17);
  workload::DriverParams dp;
  dp.max_subscriptions = 60;
  dp.max_publications = 400;
  dp.sub_interval = sim::sec(5);
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();

  workload::ChurnParams cp;
  cp.mean_interval_s = churn_interval_s > 0 ? churn_interval_s : 1.0;
  cp.min_nodes = 32;
  workload::ChurnDriver churn(
      system, cp, 99, [&driver](Key id) {
        // Protect subscriber nodes: the metric targets rendezvous-state
        // resilience, not subscriber death.
        for (const auto& sub : driver.active_subscriptions()) {
          if (sub->subscriber == id) return true;
        }
        return false;
      });
  churn.set_delivery_checker(&checker);
  if (churn_interval_s > 0) churn.start();

  workload::FaultScriptRunner fault_runner(
      system, *script, cfg.seed, [&driver](Key id) {
        for (const auto& sub : driver.active_subscriptions()) {
          if (sub->subscriber == id) return true;
        }
        return false;
      });
  fault_runner.set_delivery_checker(&checker);
  fault_runner.start();

  // Publications are Poisson(5 s) x 400 ≈ 2000 s of simulated time.
  system.run_for(sim::sec(2'600));
  churn.stop();
  system.run_for(sim::sec(120));  // drain + final repairs

  const auto report = checker.verify(/*grace=*/sim::sec(10));
  Row row;
  row.events = churn.events() + fault_runner.crashes();
  row.expected = report.expected;
  row.missing = report.missing;
  row.duplicates = report.duplicates;
  row.delivery_rate =
      report.expected == 0
          ? 1.0
          : static_cast<double>(report.delivered) /
                static_cast<double>(report.expected);
  const metrics::Histogram delay_hist = system.delay_histogram();
  row.delay_p50_s = delay_hist.p50();
  row.delay_p99_s = delay_hist.p99();
  metrics::Registry& reg = system.network().registry();
  row.hops_p50 = reg.histogram("chord.route_hops").p50();
  row.hops_p99 = reg.histogram("chord.route_hops").p99();
  row.sim_events = system.sim().events_processed();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep<Row> sweep("churn_resilience");
  if (!sweep.parse_args(argc, argv)) return 1;

  struct Case {
    const char* label;
    double interval_s;
    const char* script;  // FaultScript text ("" = Poisson churn only)
  };
  // The last case trades the Poisson process for two scripted crash
  // bursts correlated along the ring — the regime replication is for.
  const Case cases[] = {{"none", 0, ""},
                        {"120s", 120, ""},
                        {"60s", 60, ""},
                        {"30s", 30, ""},
                        {"15s", 15, ""},
                        {"burst", 0,
                         "crash_burst at=600 count=5 correlation=0.7\n"
                         "crash_burst at=1400 count=5 correlation=0.7"}};
  const std::size_t repls[] = {0, 2};
  for (const std::size_t repl : repls) {
    for (const Case& c : cases) {
      sweep.add("churn=" + std::string(c.label) +
                    "/repl=" + std::to_string(repl),
                [interval = c.interval_s, repl, script = c.script] {
                  return run(interval, repl, script);
                });
    }
  }

  std::puts("=== Churn resilience: delivery rate under membership churn ===");
  std::puts("64 nodes, 60 subscriptions + 400 publications (~2000s);");
  std::puts("churn = Poisson joins/leaves/crashes; Mapping 3, m-cast\n");
  std::printf("%-22s %-6s %8s %10s %9s %9s %10s\n", "churn interval",
              "repl", "events", "expected", "missing", "dups",
              "delivered");
  const std::size_t per_group = std::size(cases);
  sweep.run([&](std::size_t i, const Row& r) {
    std::printf("%-22s %-6zu %8llu %10llu %9llu %9llu %9.1f%%\n",
                cases[i % per_group].label, repls[i / per_group],
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.expected),
                static_cast<unsigned long long>(r.missing),
                static_cast<unsigned long long>(r.duplicates),
                100.0 * r.delivery_rate);
  });
  std::puts("\ngraceful leaves and joins hand subscription state over and");
  std::puts("lose nothing; crashes can drop rendezvous state unless");
  std::puts("replication (r=2) keeps a copy on the successors (§4.1).");
  return 0;
}
