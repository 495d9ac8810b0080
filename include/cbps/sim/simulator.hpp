// The discrete-event simulation engine.
//
// One event core (event_core.hpp), processed in canonical (time, key)
// order on the calling thread. Every event's key is allocated from the
// *domain* that schedules it: domain 0 is the global domain — drivers,
// samplers, fault scripts — and every simulated node registers a domain
// of its own (register_domain()). Keys decide the order of events that
// share a timestamp, and a domain's keys depend only on its own
// execution history, so the order is stable under any change that keeps
// each domain's schedule calls. Single-domain users (unit tests,
// micro-benches) can ignore the concept entirely; everything defaults
// to domain 0.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/inline_function.hpp"
#include "cbps/sim/event_core.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::sim {

class Simulator {
 public:
  using Callback = detail::EventCore::Callback;
  using EventId = std::uint64_t;
  using TimerId = std::uint64_t;
  using Domain = common::Domain;

  static constexpr EventId kInvalidEvent = 0;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time: inside an event callback, the event's time.
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now()). The event is keyed
  /// by the current acting domain (common::exec_context().actor_domain)
  /// and executes as that domain. Returns a handle that can cancel the
  /// event before it fires.
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` from now.
  EventId schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now() + delay, std::move(cb));
  }

  /// Schedule `cb` to execute *as* domain `target` at absolute time `t`
  /// (network delivery: the receiver runs the callback). The key is
  /// still the acting domain's.
  EventId schedule_for(Domain target, SimTime t, Callback cb);

  /// Cancel a pending event. Returns false if it already fired or was
  /// already cancelled (or is kInvalidEvent).
  bool cancel(EventId id) { return core_.cancel(id); }

  /// Register a periodic timer firing every `period`, first at
  /// now() + first_delay (defaults to one full period). The timer is
  /// owned by the current acting domain, which keys its every firing.
  /// The callback keeps firing until cancel_timer().
  TimerId add_timer(SimTime period, Callback cb) {
    return add_timer(period, period, std::move(cb));
  }
  TimerId add_timer(SimTime period, SimTime first_delay, Callback cb);

  /// Stop a periodic timer. Returns false if unknown/already cancelled.
  bool cancel_timer(TimerId id);

  /// Run until the queue drains or `max_events` events have fired.
  /// Returns the number of events processed.
  std::uint64_t run(std::uint64_t max_events = ~std::uint64_t{0});

  /// Process every event with time <= t, then advance the clock to t.
  /// Returns the number of events processed.
  std::uint64_t run_until(SimTime t);

  /// Pending (non-cancelled) event count, periodic timers included.
  std::size_t pending_events() const { return core_.live(); }

  std::uint64_t events_processed() const { return core_.processed(); }

  /// Heap-health accounting (surfaces in --metrics-json): lazy-deleted
  /// entries skipped at pop time, and full heap rebuilds triggered when
  /// stale entries outnumbered live ones.
  std::uint64_t stale_entries_skipped() const {
    return core_.stale_skipped();
  }
  std::uint64_t heap_compactions() const { return core_.compactions(); }

  /// Allocate a fresh scheduling domain (dense, starting at 1).
  Domain register_domain();

 private:
  struct TimerState {
    SimTime period = 0;
    // Shared so a fire can keep the body alive while the callback itself
    // cancels the timer (which erases this state).
    std::shared_ptr<Callback> cb;
    EventId next_event = kInvalidEvent;
    Domain owner = 0;
  };

  std::uint64_t next_key(Domain actor);
  void fire_timer(TimerId id);
  /// Run the events with time <= `bound` in (time, key) order, at most
  /// `budget` of them.
  std::uint64_t drain(SimTime bound, std::uint64_t budget);

  SimTime now_ = 0;
  detail::EventCore core_;
  std::vector<std::uint64_t> seq_ = {0};  // schedule counter per domain
  std::unordered_map<TimerId, TimerState> timers_;
  TimerId next_timer_ = 1;
};

}  // namespace cbps::sim
