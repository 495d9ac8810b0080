// Extension experiment — delivery under message loss (and churn).
//
// The paper's evaluation assumes a perfect wire. This bench injects
// uniform per-message loss into the Chord substrate and measures what
// the hop-by-hop ack/retry layer buys back: the delivery ledger reports
// the fraction of matched traffic that still reached its subscribers,
// the duplicates the end-to-end filter had to absorb, and the
// retransmission overhead paid for the recovery — swept over loss rate
// with and without concurrent membership churn.
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
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;       // surfaced past the filter
  std::uint64_t dups_suppressed = 0;  // absorbed by the filter
  std::uint64_t lost = 0;             // dropped in flight
  std::uint64_t retransmits = 0;
  std::uint64_t sends_failed = 0;
  std::uint64_t total_hops = 0;
  double delivery_rate = 1.0;
  double delay_p50_s = 0;
  double delay_p99_s = 0;
  double hops_p50 = 0;
  double hops_p99 = 0;
  double retries_p99 = 0;
  std::uint64_t sim_events = 0;
};

bench::JsonFields json_fields(const Row& r) {
  return {{"expected", static_cast<double>(r.expected)},
          {"missing", static_cast<double>(r.missing)},
          {"duplicates", static_cast<double>(r.duplicates)},
          {"dups_suppressed", static_cast<double>(r.dups_suppressed)},
          {"lost", static_cast<double>(r.lost)},
          {"retransmits", static_cast<double>(r.retransmits)},
          {"sends_failed", static_cast<double>(r.sends_failed)},
          {"total_hops", static_cast<double>(r.total_hops)},
          {"delivery_rate", r.delivery_rate},
          {"delay_p50_s", r.delay_p50_s},
          {"delay_p99_s", r.delay_p99_s},
          {"hops_p50", r.hops_p50},
          {"hops_p99", r.hops_p99},
          {"retries_p99", r.retries_p99}};
}

bench::JsonFields metrics_fields(const Row& r) {
  return {{"delay_p50_s", r.delay_p50_s},
          {"delay_p99_s", r.delay_p99_s},
          {"hops_p50", r.hops_p50},
          {"hops_p99", r.hops_p99},
          {"retries_p99", r.retries_p99},
          {"delivery_rate", r.delivery_rate}};
}

enum class Churn { kNone, kGraceful, kCrashy };

Row run(double loss_rate, Churn churn_kind) {
  // The loss regime is a one-directive fault script (the scripted-
  // scenario engine's canonical path) instead of a construction knob.
  workload::FaultScript script;
  if (loss_rate > 0.0) {
    std::string error;
    const auto parsed = workload::FaultScript::parse(
        "loss at=0 model=uniform rate=" + std::to_string(loss_rate),
        &error);
    CBPS_ASSERT_MSG(parsed.has_value(), "bad loss script");
    script = *parsed;
  }

  pubsub::SystemConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 4242;
  cfg.chord.ring = RingParams{12};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.force_reliable = script.needs_reliable_transport();
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  workload::FaultScriptRunner fault_runner(system, script, cfg.seed);
  fault_runner.start();

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

  workload::ChurnParams cp;
  cp.mean_interval_s = 45.0;
  cp.join_fraction = 0.4;
  cp.crash_fraction = churn_kind == Churn::kCrashy ? 1.0 : 0.0;
  cp.min_nodes = 32;
  workload::ChurnDriver churn(
      system, cp, 99, [&driver](Key id) {
        for (const auto& sub : driver.active_subscriptions()) {
          if (sub->subscriber == id) return true;
        }
        return false;
      });
  churn.set_delivery_checker(&checker);
  if (churn_kind != Churn::kNone) churn.start();

  // Publications are Poisson(5 s) x 300 ≈ 1500 s of simulated time.
  system.run_for(sim::sec(2'000));
  churn.stop();
  system.run_for(sim::sec(120));  // drain retries + final repairs

  const auto report = checker.verify(/*grace=*/sim::sec(10));
  const metrics::Registry& reg = system.network().registry();
  Row row;
  row.expected = report.expected;
  row.missing = report.missing;
  row.duplicates = report.duplicates;
  row.dups_suppressed = system.duplicates_suppressed();
  row.lost = reg.counter_value("chord.net.lost");
  row.retransmits = reg.counter_value("chord.retransmits");
  row.sends_failed = reg.counter_value("chord.send_failed");
  const overlay::TrafficStats& traffic = system.traffic();
  for (std::size_t c = 0; c < overlay::kMessageClassCount; ++c) {
    row.total_hops += traffic.hops(static_cast<overlay::MessageClass>(c));
  }
  row.delivery_rate =
      report.expected == 0
          ? 1.0
          : static_cast<double>(report.delivered) /
                static_cast<double>(report.expected);
  const metrics::Histogram delay_hist = system.delay_histogram();
  row.delay_p50_s = delay_hist.p50();
  row.delay_p99_s = delay_hist.p99();
  metrics::Registry& reg_mut = system.network().registry();
  row.hops_p50 = reg_mut.histogram("chord.route_hops").p50();
  row.hops_p99 = reg_mut.histogram("chord.route_hops").p99();
  row.retries_p99 = reg_mut.histogram("chord.retries_per_send").p99();
  row.sim_events = system.sim().events_processed();
  return row;
}

const char* churn_label(Churn c) {
  switch (c) {
    case Churn::kNone: return "none";
    case Churn::kGraceful: return "graceful";
    case Churn::kCrashy: return "crashes";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep<Row> sweep("loss_resilience");
  if (!sweep.parse_args(argc, argv)) return 1;

  const double losses[] = {0.0, 0.01, 0.02, 0.05};
  const Churn churns[] = {Churn::kNone, Churn::kGraceful, Churn::kCrashy};
  for (const double loss : losses) {
    for (const Churn churn : churns) {
      sweep.add("loss=" + std::to_string(loss) +
                    "/churn=" + churn_label(churn),
                [loss, churn] { return run(loss, churn); });
    }
  }

  std::puts("=== Loss resilience: ack/retry under a lossy wire ===");
  std::puts("64 nodes, 60 subscriptions + 300 publications (~1500s);");
  std::puts("Mapping 3, m-cast; churn = Poisson(45s) joins+removals\n");
  std::printf("%-7s %-9s %10s %8s %6s %9s %7s %8s %7s %10s\n", "loss",
              "churn", "expected", "missing", "dups", "dupsupp", "lost",
              "retrans", "failed", "delivered");
  const std::size_t per_group = std::size(churns);
  sweep.run([&](std::size_t i, const Row& r) {
    // Retransmit overhead: resends as a share of all transmissions.
    const double overhead =
        r.total_hops == 0 ? 0.0
                          : 100.0 * static_cast<double>(r.retransmits) /
                                static_cast<double>(r.total_hops);
    std::printf(
        "%-7.2f %-9s %10llu %8llu %6llu %9llu %7llu %7.2f%% %7llu %9.1f%%\n",
        losses[i / per_group], churn_label(churns[i % per_group]),
        static_cast<unsigned long long>(r.expected),
        static_cast<unsigned long long>(r.missing),
        static_cast<unsigned long long>(r.duplicates),
        static_cast<unsigned long long>(r.dups_suppressed),
        static_cast<unsigned long long>(r.lost), overhead,
        static_cast<unsigned long long>(r.sends_failed),
        100.0 * r.delivery_rate);
  });
  std::puts("\nretrans = timer-driven resends as % of all transmissions");
  std::puts("(the bandwidth price of reliability); dupsupp = duplicates");
  std::puts("absorbed by the end-to-end (event, subscription) filter so");
  std::puts("subscribers still observe at-most-once delivery.");
  return 0;
}
