// Continuous membership churn against a running system.
//
// The paper's headline claim is self-configuration: the pub/sub service
// keeps working while nodes join and leave with no manual management.
// The ChurnDriver turns that claim into an experiment: a Poisson process
// of joins, graceful leaves and crashes, to be combined with a workload
// Driver and a DeliveryChecker measuring how much of the traffic still
// reaches its subscribers. A FaultScript's `churn` directive starts one
// (bench/fault_matrix's churn rows, `cbps-sim --fault-script`).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cbps/common/rng.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"

namespace cbps::workload {

struct ChurnParams {
  /// Mean time between membership events (exponential inter-arrival).
  double mean_interval_s = 60.0;
  /// Probability that an event is a join; the remainder are removals.
  double join_fraction = 0.4;
  /// Fraction of removals that are crashes (vs graceful leaves).
  double crash_fraction = 0.5;
  /// Never remove nodes once the ring is this small.
  std::size_t min_nodes = 8;
  /// Stop after this many membership events.
  std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max();
};

class ChurnDriver {
 public:
  /// `is_protected`, when set, exempts nodes (by overlay key) from
  /// removal — e.g. nodes acting as subscribers, so the experiment
  /// measures rendezvous-state resilience rather than subscriber death.
  using Protected = std::function<bool(Key)>;

  ChurnDriver(pubsub::PubSubSystem& system, ChurnParams params,
              std::uint64_t seed, Protected is_protected = nullptr);

  /// Arm the event process. Call once, then run the simulator.
  void start();
  /// Stop scheduling further events.
  void stop() { stopped_ = true; }

  /// Keep a delivery oracle honest across crashes: the driver reports
  /// every crashed node so the checker stops expecting deliveries there.
  void set_delivery_checker(pubsub::DeliveryChecker* checker) {
    checker_ = checker;
  }

  std::uint64_t joins() const { return joins_; }
  std::uint64_t leaves() const { return leaves_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t events() const { return joins_ + leaves_ + crashes_; }

  /// One membership event as it happened, in order. Two drivers with the
  /// same seed against identically-seeded systems must produce
  /// bit-identical logs (determinism regression surface).
  struct ChurnEvent {
    enum class Kind : std::uint8_t { kJoin, kLeave, kCrash };
    Kind kind = Kind::kJoin;
    Key node = 0;  // the joined node's id, or the removed victim's id
    sim::SimTime at = 0;
  };
  const std::vector<ChurnEvent>& event_log() const { return log_; }

 private:
  void schedule_next();
  void fire();
  /// A removable node's dense index, or nullopt if none qualifies.
  std::optional<std::size_t> pick_victim();

  pubsub::PubSubSystem& system_;
  ChurnParams params_;
  Rng rng_;
  Protected is_protected_;
  pubsub::DeliveryChecker* checker_ = nullptr;
  std::vector<ChurnEvent> log_;

  bool stopped_ = false;
  std::uint64_t joins_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t join_seq_ = 0;
};

}  // namespace cbps::workload
