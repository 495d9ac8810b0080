// Scheduler microbench — events/sec through the simulator's dominant
// schedule/fire/cancel cycles, isolated from any pub/sub logic.
//
// Four workloads:
//   fire         K self-rescheduling events (pure schedule+fire churn,
//                the publish/notify delivery pattern)
//   cancel       every fired event schedules a successor AND a decoy
//                that is cancelled before it can fire (the ack/retry
//                timer pattern from the reliability layer)
//   timers       K periodic timers ticking concurrently (stabilize /
//                retry backoff maintenance load)
//   domains      the fire chains again, but one actor domain per chain,
//                so every schedule allocates its key from its own
//                domain's counter (the per-node pattern of a ring)
//
// Prints events/sec per workload and, with --json, appends a bench
// record in the same shape the sweep runner emits (see EXPERIMENTS.md).
// --repeat N runs every workload N times and reports the median with
// its interquartile range (the JSON's events_per_sec is the median;
// q1_/q3_events_per_sec bound the IQR).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cbps/common/exec_context.hpp"
#include "cbps/common/flags.hpp"
#include "cbps/sim/simulator.hpp"

using namespace cbps;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::string label;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  // Interquartile range of events_per_sec over the repeats (both equal
  // events_per_sec for a single run).
  double q1 = 0;
  double q3 = 0;
};

/// Quantile `p` of sorted `xs` by linear interpolation between order
/// statistics (Python's statistics.quantiles(method="inclusive"), as
/// tools/bench_pairs uses).
double quantile(const std::vector<double>& xs, double p) {
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/// Run `body` `repeat` times; the row of the median run, with the
/// quartiles of events/sec over all runs.
template <class Body>
Row repeated(std::size_t repeat, Body body) {
  std::vector<Row> runs;
  for (std::size_t i = 0; i < repeat; ++i) runs.push_back(body());
  std::sort(runs.begin(), runs.end(), [](const Row& a, const Row& b) {
    return a.events_per_sec < b.events_per_sec;
  });
  std::vector<double> rates;
  for (const Row& r : runs) rates.push_back(r.events_per_sec);
  Row out = runs[runs.size() / 2];
  out.events_per_sec = quantile(rates, 0.5);
  out.q1 = quantile(rates, 0.25);
  out.q3 = quantile(rates, 0.75);
  return out;
}

Row run_fire(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  struct Chain {
    sim::Simulator& sim;
    std::uint64_t budget;
    void arm() {
      if (budget == 0) return;
      --budget;
      sim.schedule_after(sim::us(7), [this] { arm(); });
    }
  };
  std::vector<Chain> chains(width, Chain{sim, 0});
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& c : chains) {
    c.budget = total_events / width;
    c.arm();
  }
  sim.run();
  Row r{"fire", sim.events_processed(), seconds_since(t0), 0};
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

Row run_cancel(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  // Each live event re-arms itself and a decoy timeout that it cancels
  // on the next firing — one cancel per fire, like an ack arriving
  // before the retransmit timer.
  struct Retry {
    sim::Simulator& sim;
    std::uint64_t budget;
    sim::Simulator::EventId decoy = sim::Simulator::kInvalidEvent;
    void arm() {
      if (decoy != sim::Simulator::kInvalidEvent) sim.cancel(decoy);
      decoy = sim::Simulator::kInvalidEvent;
      if (budget == 0) return;
      --budget;
      decoy = sim.schedule_after(sim::sec(60), [] {});
      sim.schedule_after(sim::us(11), [this] { arm(); });
    }
  };
  std::vector<Retry> retries(width, Retry{sim, 0});
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& rt : retries) {
    rt.budget = total_events / width;
    rt.arm();
  }
  sim.run();
  Row r{"cancel", sim.events_processed(), seconds_since(t0), 0};
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

Row run_timers(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<sim::Simulator::TimerId> ids;
  ids.reserve(width);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < width; ++i) {
    ids.push_back(
        sim.add_timer(sim::us(13 + i % 7), [&fired] { ++fired; }));
  }
  while (fired < total_events) {
    sim.run(total_events - fired);
  }
  for (const auto id : ids) sim.cancel_timer(id);
  sim.run();
  Row r{"timers", sim.events_processed(), seconds_since(t0), 0};
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

Row run_domains(std::uint64_t total_events, std::size_t width) {
  // The `fire` chains again, but each chain lives on its own actor
  // domain.
  sim::Simulator sim;
  struct Chain {
    sim::Simulator& sim;
    common::Domain domain = common::kGlobalDomain;
    std::uint64_t budget = 0;
    void arm() {
      if (budget == 0) return;
      --budget;
      // Key the successor by this chain's domain.
      const common::ActorScope as(domain);
      sim.schedule_after(sim::us(7), [this] { arm(); });
    }
  };
  std::vector<Chain> chains(width, Chain{sim});
  for (auto& c : chains) c.domain = sim.register_domain();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& c : chains) {
    c.budget = total_events / width;
    c.arm();
  }
  sim.run();
  Row r{"domains", sim.events_processed(), seconds_since(t0), 0};
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t events = 2'000'000;
  std::int64_t width = 1024;
  std::int64_t repeat = 1;
  std::string json_path;
  FlagParser parser(
      "sim_core — discrete-event scheduler microbench (events/sec through\n"
      "the schedule/fire/cancel hot path; no pub/sub logic involved).");
  parser.add("events", "events to process per workload", &events);
  parser.add("width", "concurrently pending events / timers", &width);
  parser.add("repeat",
             "runs per workload; > 1 reports the median and its IQR",
             &repeat);
  parser.add("json", "append a bench record to this JSON file", &json_path);
  if (!parser.parse(argc, argv, std::cout, std::cerr)) return 1;
  if (repeat < 1) {
    std::fprintf(stderr, "bad --repeat: %lld\n",
                 static_cast<long long>(repeat));
    return 1;
  }
  const auto n = static_cast<std::uint64_t>(events);
  const auto w = static_cast<std::size_t>(width);
  const auto reps = static_cast<std::size_t>(repeat);

  std::puts("=== sim_core: scheduler hot-path events/sec ===");
  std::printf("%-8s %12s %10s %14s %14s %14s\n", "workload", "events",
              "wall s", "events/sec", "q1", "q3");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Row> rows;
  rows.push_back(repeated(reps, [&] { return run_fire(n, w); }));
  rows.push_back(repeated(reps, [&] { return run_cancel(n, w); }));
  rows.push_back(repeated(reps, [&] { return run_timers(n, w); }));
  rows.push_back(repeated(reps, [&] { return run_domains(n, w); }));
  for (const Row& r : rows) {
    std::printf("%-8s %12llu %10.3f %14.0f %14.0f %14.0f\n", r.label.c_str(),
                static_cast<unsigned long long>(r.events), r.wall_s,
                r.events_per_sec, r.q1, r.q3);
  }
  const double total_wall = seconds_since(t0);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"sim_core\",\n  \"jobs\": 1,\n"
                 "  \"repeat\": %lld,\n  \"total_wall_s\": %.6f,\n"
                 "  \"points\": [\n",
                 static_cast<long long>(repeat), total_wall);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"wall_s\": %.6f, "
                   "\"sim_events\": %llu, \"events_per_sec\": %.0f, "
                   "\"metrics\": {\"events_per_sec\": %.0f, "
                   "\"q1_events_per_sec\": %.0f, "
                   "\"q3_events_per_sec\": %.0f}}%s\n",
                   r.label.c_str(), r.wall_s,
                   static_cast<unsigned long long>(r.events),
                   r.events_per_sec, r.events_per_sec, r.q1, r.q3,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return 0;
}
