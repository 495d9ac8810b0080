// Benchmark workloads: every operation a run replays, generated from the
// seed before any clock starts.
//
// A workload is a SystemConfig, a schema, an optional fault script and a
// time-ordered operation list. Generation uses workload::WorkloadGenerator
// (the paper's §5.1 subscription/event model) but not workload::Driver:
// the driver rebuilds its active-subscription view on every publication,
// which would put input generation inside the timed replay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cbps/pubsub/schema.hpp"
#include "cbps/pubsub/subscription.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/workload/fault_script.hpp"

namespace cbpsbench {

using cbps::sim::SimTime;

struct Op {
  enum class Kind : std::uint8_t { kSubscribe, kPublish };

  Kind kind = Kind::kSubscribe;
  SimTime at = 0;         // simulated injection time
  std::size_t node = 0;   // issuing node (dense index, ring order)
  std::vector<cbps::pubsub::Constraint> constraints;  // kSubscribe
  std::vector<cbps::Value> values;                     // kPublish
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  cbps::pubsub::SystemConfig system;
  /// The paper's evaluation schema (§5.1): 4 attributes in [0, 10^6].
  cbps::pubsub::Schema schema = cbps::pubsub::Schema::uniform(4, 1'000'000);
  /// Empty = no faults, static ring, no maintenance.
  cbps::workload::FaultScript faults;
  /// Nodes that issue operations. Fault scripts never crash them, so
  /// every operation is issued by a live node.
  std::vector<std::size_t> clients;
  std::vector<Op> ops;  // sorted by `at`
  std::size_t subscriptions = 0;
  std::size_t publications = 0;

  /// Oracle settings: grace around subscription boundaries, and the
  /// first publication time the correctness verdict covers (0 = all;
  /// fault runs are judged after the faults clear).
  SimTime grace = cbps::sim::sec(2);
  SimTime judged_after = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string_view>& workload_names();

/// Build `name` from `seed`. `scale` multiplies the operation counts
/// (1 = the benchmark size; the self-test uses a small fraction).
/// Returns nullopt for an unknown name.
std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, double scale);

}  // namespace cbpsbench
