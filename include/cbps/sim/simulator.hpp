// Discrete-event simulation engines.
//
// SimulatorBase is the seam the overlay/network/pub-sub layers program
// against: scheduling, periodic timers, domain registration, and run
// control. Two engines implement it:
//
//   - Simulator (this header): the single-threaded engine. One event
//     core, events processed in canonical (time, key) order.
//   - ParallelSimulator (parallel_simulator.hpp): the epoch-synchronous
//     sharded engine. Nodes are sharded across worker threads; each
//     conservative-lookahead window executes shard-locally and
//     cross-shard messages are exchanged at barriers. Bit-identical to
//     the serial engine (see event_core.hpp for the ordering contract).
//
// Domains: every simulated actor that needs its events isolated onto a
// shard registers a *domain* (register_domain()). Domain 0 is the
// global domain — drivers, samplers, fault scripts — whose events are
// barriers in the parallel engine. Single-domain users (unit tests,
// micro-benches) can ignore the concept entirely; everything defaults
// to domain 0 and behaves exactly like the classic serial engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/inline_function.hpp"
#include "cbps/sim/event_core.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::sim {

class SimulatorBase {
 public:
  using Callback = detail::EventCore::Callback;
  using EventId = std::uint64_t;
  using TimerId = std::uint64_t;
  using Domain = common::Domain;

  static constexpr EventId kInvalidEvent = 0;

  SimulatorBase() = default;
  SimulatorBase(const SimulatorBase&) = delete;
  SimulatorBase& operator=(const SimulatorBase&) = delete;
  virtual ~SimulatorBase() = default;

  /// Current simulated time. Inside an event callback this is the event's
  /// time (on any engine); outside it is the engine clock.
  virtual SimTime now() const = 0;

  /// Schedule `cb` at absolute time `t` (>= now()). The event is keyed
  /// by — and, on the parallel engine, placed on the shard of — the
  /// current acting domain (common::exec_context().actor_domain).
  /// Returns a handle that can cancel the event before it fires.
  virtual EventId schedule_at(SimTime t, Callback cb) = 0;

  /// Schedule `cb` after `delay` from now.
  EventId schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now() + delay, std::move(cb));
  }

  /// Schedule `cb` to execute *as* domain `target` at absolute time `t`
  /// (network delivery: the receiver runs the callback). On the parallel
  /// engine the event is placed on the target's shard; called from a
  /// worker with a target on another shard, `t` must be at least one
  /// lookahead ahead and the returned handle is kInvalidEvent (a
  /// cross-shard event cannot be cancelled by its sender).
  virtual EventId schedule_for(Domain target, SimTime t, Callback cb) = 0;

  /// Cancel a pending event. Returns false if it already fired or was
  /// already cancelled. On the parallel engine, only the owning shard
  /// (or global context at a barrier) may cancel.
  virtual bool cancel(EventId id) = 0;

  /// Register a periodic timer firing every `period`, first at
  /// now() + first_delay (defaults to one full period). The timer is
  /// owned by the current acting domain (events keyed/placed like
  /// schedule_at). The callback keeps firing until cancel_timer().
  TimerId add_timer(SimTime period, Callback cb) {
    return add_timer(period, period, std::move(cb));
  }
  virtual TimerId add_timer(SimTime period, SimTime first_delay,
                            Callback cb) = 0;

  /// Stop a periodic timer. Returns false if unknown/already cancelled.
  virtual bool cancel_timer(TimerId id) = 0;

  /// Run until the queue drains (or at least `max_events` fire — the
  /// parallel engine only checks the budget between epochs). Returns the
  /// number of events processed.
  virtual std::uint64_t run(std::uint64_t max_events = ~std::uint64_t{0}) = 0;

  /// Process every event with time <= t, then advance the clock to t.
  /// Returns the number of events processed.
  virtual std::uint64_t run_until(SimTime t) = 0;

  /// Pending (non-cancelled) event count, periodic timers included.
  virtual std::size_t pending_events() const = 0;

  virtual std::uint64_t events_processed() const = 0;

  /// Heap-health accounting (surfaces in --metrics-json): lazy-deleted
  /// entries skipped at pop time, and full heap rebuilds triggered when
  /// stale entries outnumbered live ones.
  virtual std::uint64_t stale_entries_skipped() const = 0;
  virtual std::uint64_t heap_compactions() const = 0;

  /// Allocate a fresh scheduling domain (dense, starting at 1). The
  /// parallel engine assigns the domain to a shard; the serial engine
  /// only uses it for key attribution.
  virtual Domain register_domain() = 0;

  /// Worker threads executing events (1 for the serial engine).
  virtual unsigned thread_count() const { return 1; }
};

/// The single-threaded engine: one EventCore processed in canonical
/// (time, key) order. Final so direct users (micro-benches, tests)
/// devirtualize the hot path.
class Simulator final : public SimulatorBase {
 public:
  Simulator();

  SimTime now() const override { return now_; }
  EventId schedule_at(SimTime t, Callback cb) override;
  EventId schedule_for(Domain target, SimTime t, Callback cb) override;
  bool cancel(EventId id) override;
  using SimulatorBase::add_timer;
  TimerId add_timer(SimTime period, SimTime first_delay,
                    Callback cb) override;
  bool cancel_timer(TimerId id) override;
  std::uint64_t run(std::uint64_t max_events = ~std::uint64_t{0}) override;
  std::uint64_t run_until(SimTime t) override;
  std::size_t pending_events() const override { return core_.live(); }
  std::uint64_t events_processed() const override {
    return core_.processed();
  }
  std::uint64_t stale_entries_skipped() const override {
    return core_.stale_skipped();
  }
  std::uint64_t heap_compactions() const override {
    return core_.compactions();
  }
  Domain register_domain() override;

 private:
  /// Canonical key for a fresh event, attributed to the acting domain.
  std::uint64_t next_key();

  /// Pop and run the earliest event. Returns false if nothing runnable.
  bool step();

  void fire_timer(TimerId id);

  detail::EventCore core_;
  SimTime now_ = 0;
  // Per-domain schedule counters (index = domain; [0] is global).
  std::vector<std::uint64_t> dom_seq_;
};

}  // namespace cbps::sim
