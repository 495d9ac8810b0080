// One replay of a workload through the public PubSubSystem API on the
// serial engine, plus the deterministic counts read back afterwards.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace cbpsbench {

/// Simulated quantities of one replay, by name, in a fixed order. They
/// depend only on the workload, so every replay of one workload must
/// produce the same list bit for bit.
using SimCounts = std::vector<std::pair<std::string, double>>;

double sim_value(const SimCounts& counts, std::string_view name);

/// Host seconds to construct `w`'s PubSubSystem, once per sample.
std::vector<double> time_setup(const Workload& w, std::size_t samples);

struct RepResult {
  double replay_s = 0;  // host seconds: operations issued, engine drained
  SimCounts sim;
  SpanRecorder::Totals spans;  // zero unless a recorder was passed
};

/// Build a fresh system and replay every operation of `w`. `checker`
/// (may be null) is fed every subscription, publication, crash and
/// notification; `spans` (may be null) records the traced run; `keep`
/// (may be null) receives the drained system for the layer replays.
RepResult run_rep(const Workload& w, cbps::pubsub::DeliveryChecker* checker,
                  SpanRecorder* spans,
                  std::unique_ptr<cbps::pubsub::PubSubSystem>* keep = nullptr);

}  // namespace cbpsbench
