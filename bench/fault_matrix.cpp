// Extension experiment — the fault matrix, the one fault bench: rows of
// (FaultScript, AK mapping, replication factor) on one workload.
//
// Three groups of rows:
//  - scripted scenarios (partition/heal, bursty Gilbert–Elliott loss,
//    gray failures, correlated crash bursts, and all of them at once)
//    crossed with Mappings 1 and 3 at replication 2;
//  - uniform loss crossed with Poisson churn whose removals are all
//    graceful or all crashes (Mapping 3, no replication): what the
//    hop-by-hop ack/retry layer buys back on a lossy wire;
//  - Poisson churn at falling mean intervals, and two correlated crash
//    bursts, with and without replication (§4.1): the paper's
//    self-configuration claim (§1) under dynamic membership.
//
// Each row reports the overall and post-heal delivery ratios, the
// reliability overhead paid (retransmissions, messages lost or cut by
// a partition, sends that spent their retry budget), the membership
// events, how long the ring took to re-merge after a heal, and what the
// post-run invariant auditor found. The headline: with replication and
// the ack/retry layer, every scenario returns to delivery ratio 1.0
// after its faults clear, and the auditor certifies the ring and the
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
  const char* script;  // FaultScript text ("" = baseline)
};

// Faults start after the 60 subscriptions have registered (t = 300 s)
// and clear with enough run left (~1500 s of publications) to observe
// recovery.
const Scenario kScenarios[] = {
    {"baseline", ""},
    {"partition", "partition at=400 heal=700 frac=0.4"},
    {"burst_loss",
     "loss at=300 until=1200 model=ge p=0.02 q=0.2 good=0.005 bad=0.7"},
    {"gray", "slow at=300 until=1200 nodes=6 factor=8"},
    {"crash_burst", "crash_burst at=700 count=6 correlation=0.7"},
    {"combined",
     "loss at=300 until=1200 model=ge p=0.02 q=0.2 good=0.005 bad=0.7\n"
     "slow at=300 until=1200 nodes=4 factor=6\n"
     "partition at=400 heal=700 frac=0.3\n"
     "crash_burst at=900 count=4 correlation=0.5"},
};

// Loss for the whole run, crossed with Poisson(45 s) churn up to the
// end of the publications.
const Scenario kLosses[] = {{"", ""},
                            {"loss1", "loss at=0 rate=0.01"},
                            {"loss2", "loss at=0 rate=0.02"},
                            {"loss5", "loss at=0 rate=0.05"}};
const Scenario kLossChurns[] = {
    {"", ""},
    {"leave45", "churn at=0 until=2000 interval=45 crash=0"},
    {"crash45", "churn at=0 until=2000 interval=45 crash=1"}};

// Poisson churn (40% joins; removals half graceful, half crashes), and
// two crash bursts correlated along the ring — the regime replication
// is for.
const Scenario kChurns[] = {
    {"churn120", "churn at=0 until=2000 interval=120"},
    {"churn60", "churn at=0 until=2000 interval=60"},
    {"churn30", "churn at=0 until=2000 interval=30"},
    {"churn15", "churn at=0 until=2000 interval=15"},
    {"burst2x5",
     "crash_burst at=600 count=5 correlation=0.7\n"
     "crash_burst at=1400 count=5 correlation=0.7"},
};

// One row: its name (the scenario, plus "/r0" without replication),
// fault script, mapping and replication factor (2 or 0).
struct Cell {
  std::string name;
  std::string script;
  pubsub::MappingKind mapping;
  std::size_t replication;
};

struct Row {
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;  // surfaced past the filter
  double delivery_rate = 1.0;
  double post_heal_rate = 1.0;
  std::uint64_t retransmits = 0;
  std::uint64_t partition_cut = 0;  // refused + dropped at the cut
  std::uint64_t crashes = 0;        // by bursts and churn
  double recovery_s = -1.0;  // heal -> ring audit clean (-1 = n/a)
  bool ring_ok = false;
  std::uint64_t audit_violations = 0;  // placement+replica+rendezvous
  double delay_p50_s = 0;
  double delay_p99_s = 0;
  double hops_p50 = 0;
  double hops_p99 = 0;
  std::uint64_t dups_suppressed = 0;  // absorbed by the filter
  std::uint64_t lost = 0;             // dropped in flight
  std::uint64_t sends_failed = 0;
  std::uint64_t total_hops = 0;
  double retries_p99 = 0;
  std::uint64_t churn_events = 0;  // joins + leaves + crashes
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
          {"hops_p99", r.hops_p99},
          {"dups_suppressed", static_cast<double>(r.dups_suppressed)},
          {"lost", static_cast<double>(r.lost)},
          {"sends_failed", static_cast<double>(r.sends_failed)},
          {"total_hops", static_cast<double>(r.total_hops)},
          {"retries_p99", r.retries_p99},
          {"churn_events", static_cast<double>(r.churn_events)}};
}

bench::JsonFields metrics_fields(const Row& r) {
  return {{"delay_p50_s", r.delay_p50_s},
          {"delay_p99_s", r.delay_p99_s},
          {"hops_p50", r.hops_p50},
          {"hops_p99", r.hops_p99},
          {"delivery_rate", r.delivery_rate},
          {"post_heal_rate", r.post_heal_rate}};
}

Row run(const Cell& cell) {
  std::string error;
  const auto script = workload::FaultScript::parse(cell.script, &error);
  CBPS_ASSERT_MSG(script.has_value(), "bad scenario script");

  pubsub::SystemConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 4242;
  cfg.chord.ring = RingParams{12};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.force_reliable = script->needs_reliable_transport();
  cfg.mapping = cell.mapping;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.replication_factor = cell.replication;
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

  // Post-heal window: publications a minute after every fault cleared.
  const auto report = checker.verify(/*grace=*/sim::sec(15));
  const auto post_heal = checker.verify(
      /*grace=*/sim::sec(15), script->all_clear_at() + sim::sec(60));
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
  row.churn_events = runner.crashes();
  for (const auto& churn : runner.churn_drivers()) {
    row.crashes += churn->crashes();
    row.churn_events += churn->events();
  }
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
  row.dups_suppressed = system.duplicates_suppressed();
  row.lost = reg.counter_value("chord.net.lost");
  row.sends_failed = reg.counter_value("chord.send_failed");
  row.total_hops = system.traffic().total_hops();
  row.retries_p99 = reg_mut.histogram("chord.retries_per_send").p99();
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

  using pubsub::MappingKind;
  std::vector<Cell> cells;
  for (const Scenario& sc : kScenarios) {
    for (const auto mapping : {MappingKind::kAttributeSplit,
                               MappingKind::kSelectiveAttribute}) {
      cells.push_back({sc.label, sc.script, mapping, 2});
    }
  }
  for (const Scenario& loss : kLosses) {
    for (const Scenario& churn : kLossChurns) {
      std::string name = std::string(loss.label) +
                         (*loss.label && *churn.label ? "+" : "") +
                         churn.label;
      cells.push_back({(name.empty() ? "baseline" : name) + "/r0",
                       std::string(loss.script) + "\n" + churn.script,
                       MappingKind::kSelectiveAttribute, 0});
    }
  }
  for (const std::size_t repl : {0, 2}) {
    for (const Scenario& sc : kChurns) {
      cells.push_back({std::string(sc.label) + (repl == 0 ? "/r0" : ""),
                       sc.script, MappingKind::kSelectiveAttribute, repl});
    }
  }
  for (const Cell& cell : cells) {
    sweep.add(cell.name + "/" + mapping_tag(cell.mapping),
              [&cell] { return run(cell); });
  }

  std::puts("=== Fault matrix: fault scripts x AK mapping x replication ===");
  std::puts("64 nodes, 60 subscriptions + 300 publications (~1500s), repl=2");
  std::puts("unless /r0; partition 40% for 300s / GE burst loss / gray x8 /");
  std::puts("crash bursts (correlated along the ring) / all combined; then");
  std::puts("uniform loss x Poisson(45s) churn, all leaves or all crashes;");
  std::puts("then Poisson churn every 120..15s (joins 40%, crashes half the");
  std::puts("removals) and two 5-node crash bursts\n");
  std::printf("%-11s %-3s %9s %8s %6s %10s %10s %8s %7s %9s %5s %5s\n",
              "scenario", "map", "expected", "missing", "dups", "delivered",
              "post-heal", "retrans", "cut", "recover", "ring", "viol");
  sweep.run([&](std::size_t i, const Row& r) {
    char recover[16];
    if (r.recovery_s < 0) {
      std::snprintf(recover, sizeof recover, "-");
    } else {
      std::snprintf(recover, sizeof recover, "%.0fs", r.recovery_s);
    }
    std::printf(
        "%-11s %-3s %9llu %8llu %6llu %9.1f%% %9.1f%% %8llu %7llu %9s "
        "%5s %5llu\n",
        cells[i].name.c_str(), mapping_tag(cells[i].mapping),
        static_cast<unsigned long long>(r.expected),
        static_cast<unsigned long long>(r.missing),
        static_cast<unsigned long long>(r.duplicates),
        100.0 * r.delivery_rate, 100.0 * r.post_heal_rate,
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.partition_cut), recover,
        r.ring_ok ? "ok" : "BAD",
        static_cast<unsigned long long>(r.audit_violations));
  });
  std::puts("\npost-heal = delivery ratio counting only publications issued");
  std::puts("60s after the script's last fault cleared; recover = partition");
  std::puts("heal to a clean ring audit; viol = post-run placement/");
  std::puts("replication/rendezvous violations found by the invariant");
  std::puts("auditor. Lost messages, failed sends, suppressed duplicates,");
  std::puts("retry p99 and churn events are in the --json record.");
  return 0;
}
