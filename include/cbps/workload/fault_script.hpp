// Scripted fault scenarios: time-stamped partitions, loss regimes,
// gray failures, crash bursts and membership churn, driven by the
// simulator clock.
//
// Replaces the benches' ad-hoc fault knobs with one declarative spec a
// CLI flag can carry. The text format is one directive per line (or
// ';'-separated), `name key=value...`, times in simulated seconds,
// `#` comments:
//
//   partition at=10 heal=40 frac=0.4
//   loss at=5 until=35 model=uniform rate=0.2
//   loss at=5 until=35 model=ge p=0.05 q=0.25 good=0.01 bad=0.8
//   slow at=10 until=50 nodes=3 factor=8
//   crash_burst at=20 count=5 correlation=0.7
//   churn at=0 until=2000 interval=45 crash=0.5
//
// A FaultScriptRunner schedules the parsed directives against a
// PubSubSystem: partitions split the ring into two contiguous arcs and
// heal on time (triggering replica-chain repair), loss swaps the wire's
// loss model, slow marks gray nodes, crash bursts kill ring-correlated
// victims, churn runs a ChurnDriver (Poisson joins, graceful leaves and
// crashes) from `at` to its required `until`. Every time is at most
// 10^9 s, so the follow-ups the runner schedules after one still fit
// the clock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cbps/common/rng.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/workload/churn.hpp"

namespace cbps::workload {

struct FaultDirective {
  enum class Kind : std::uint8_t {
    kPartition,
    kLoss,
    kSlow,
    kCrashBurst,
    kChurn,
  };
  enum class LossKind : std::uint8_t { kUniform, kGilbertElliott };

  Kind kind = Kind::kPartition;
  sim::SimTime at = 0;
  /// End of the fault (partition heal / loss cleared / slow cleared /
  /// churn stopped; churn requires it).
  /// kSimTimeNever = the fault persists to the end of the run.
  sim::SimTime until = sim::kSimTimeNever;

  // partition: fraction of the alive ring cut off as the minority arc.
  double frac = 0.5;

  // loss
  LossKind loss_kind = LossKind::kUniform;
  double rate = 0.0;                    // uniform drop probability
  double ge_p = 0.0, ge_q = 1.0;        // Gilbert–Elliott transitions
  double ge_good = 0.0, ge_bad = 0.0;   // per-state drop probabilities

  // slow (gray failure)
  std::size_t nodes = 1;   // how many gray nodes to pick
  double factor = 4.0;     // latency multiplier while gray

  // crash_burst
  std::size_t count = 1;       // victims
  double correlation = 0.0;    // P(next victim = ring successor of last)

  // churn: `interval` (mean seconds between events, 1 ms to 10^9 s) and
  // `crash` set mean_interval_s and crash_fraction; the join fraction
  // stays ChurnParams' and min_nodes is derived when the directive fires.
  ChurnParams churn;
};

struct FaultScript {
  std::vector<FaultDirective> directives;

  bool empty() const { return directives.empty(); }

  /// Any directive that drops or refuses messages? Such scripts need the
  /// ack/retry layer armed (chord.force_reliable) to meet delivery
  /// guarantees.
  bool needs_reliable_transport() const;

  /// Time by which every bounded fault has cleared and every one-shot
  /// fault has fired (a persistent fault — no until/heal — counts from
  /// its start; there is no clearing it). Verification windows open
  /// here: publications during an active partition legitimately miss
  /// cut-off subscribers, so completeness is only owed afterwards.
  /// Returns 0 for an empty script.
  sim::SimTime all_clear_at() const;

  /// Parse the text format above. Returns nullopt on malformed input and
  /// stores a human-readable reason in *error (when non-null).
  static std::optional<FaultScript> parse(std::string_view text,
                                          std::string* error = nullptr);
};

class FaultScriptRunner {
 public:
  /// Exempts nodes (by overlay key) from crash bursts — e.g. designated
  /// subscribers/publishers of the measuring workload.
  using Protected = std::function<bool(Key)>;

  FaultScriptRunner(pubsub::PubSubSystem& system, FaultScript script,
                    std::uint64_t seed, Protected is_protected = nullptr);

  /// Crashed victims (of bursts and churn alike) are reported here so
  /// the oracle stops expecting deliveries to them.
  void set_delivery_checker(pubsub::DeliveryChecker* checker) {
    checker_ = checker;
  }

  /// Schedule every directive. Call once, then run the simulator.
  void start();

  /// Stop every running churn process and keep later `churn`
  /// directives from starting one. A run that drains the event queue
  /// calls this first: a join arms its node's maintenance timer, so
  /// churn past the end of the workload would keep the queue alive.
  void stop_churn();

  /// Seed of the ChurnDriver that the directive at `index` of the script
  /// starts: a stream of its own, so a script's other directives draw
  /// the same numbers with or without churn.
  static std::uint64_t churn_seed(std::uint64_t seed, std::size_t index);

  // --- introspection ------------------------------------------------------
  std::uint64_t partitions_applied() const { return partitions_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t loss_swaps() const { return loss_swaps_; }
  std::uint64_t slow_marks() const { return slow_marks_; }
  /// The driver of each `churn` directive that has fired, in firing
  /// order (its joins, leaves, crashes and event log).
  const std::vector<std::unique_ptr<ChurnDriver>>& churn_drivers() const {
    return churn_;
  }
  /// Heal time of the last partition (kSimTimeNever if none healed yet).
  sim::SimTime last_heal_at() const { return last_heal_at_; }

 private:
  void apply(const FaultDirective& d);
  void schedule_re_replication();
  void apply_partition(const FaultDirective& d);
  void apply_loss(const FaultDirective& d);
  void apply_slow(const FaultDirective& d);
  void apply_crash_burst(const FaultDirective& d);
  void apply_churn(const FaultDirective& d);

  pubsub::PubSubSystem& system_;
  FaultScript script_;
  std::uint64_t seed_;
  Rng rng_;
  Protected is_protected_;
  pubsub::DeliveryChecker* checker_ = nullptr;

  std::uint64_t partitions_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t loss_swaps_ = 0;
  std::uint64_t slow_marks_ = 0;
  sim::SimTime last_heal_at_ = sim::kSimTimeNever;
  std::vector<std::unique_ptr<ChurnDriver>> churn_;
  bool churn_stopped_ = false;
};

}  // namespace cbps::workload
