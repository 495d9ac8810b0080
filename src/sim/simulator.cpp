#include "cbps/sim/simulator.hpp"

#include <utility>

#include "cbps/common/logging.hpp"

namespace cbps::sim {

namespace {

// Clock hook for log-line prefixes: installed once per dispatch loop
// (not per event) so the hot path pays nothing.
std::uint64_t log_clock_now_us(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now();
}

}  // namespace

std::uint64_t Simulator::next_key(Domain actor) {
  CBPS_ASSERT_MSG(actor < seq_.size(),
                  "acting domain not registered with this engine");
  return detail::make_key(actor, seq_[actor]++);
}

Simulator::EventId Simulator::schedule_at(SimTime t, Callback cb) {
  const Domain actor = common::exec_context().actor_domain;
  CBPS_ASSERT_MSG(t >= now_, "scheduling into the past");
  return core_.schedule(t, next_key(actor), actor, std::move(cb));
}

Simulator::EventId Simulator::schedule_for(Domain target, SimTime t,
                                           Callback cb) {
  const Domain actor = common::exec_context().actor_domain;
  CBPS_ASSERT_MSG(target != common::kGlobalDomain ||
                      actor == common::kGlobalDomain,
                  "only global context schedules onto the global domain");
  CBPS_ASSERT_MSG(t >= now_, "scheduling into the past");
  return core_.schedule(t, next_key(actor), target, std::move(cb));
}

Simulator::TimerId Simulator::add_timer(SimTime period, SimTime first_delay,
                                        Callback cb) {
  CBPS_ASSERT_MSG(period > 0, "zero-period timer would livelock");
  const Domain owner = common::exec_context().actor_domain;
  const TimerId id = next_timer_++;
  TimerState& st =
      timers_
          .emplace(id, TimerState{period,
                                  std::make_shared<Callback>(std::move(cb)),
                                  kInvalidEvent, owner})
          .first->second;
  st.next_event = core_.schedule(now_ + first_delay, next_key(owner), owner,
                                 [this, id] { fire_timer(id); });
  return id;
}

void Simulator::fire_timer(TimerId id) {
  auto it = timers_.find(id);
  CBPS_ASSERT(it != timers_.end());
  // Pin the body: the callback may cancel_timer(id), which erases the
  // timer state — the shared_ptr keeps the callable alive through the
  // invocation without copying it. Rearm before the body runs (keeps the
  // timer phase independent of body work).
  const std::shared_ptr<Callback> body = it->second.cb;
  TimerState& st = it->second;
  st.next_event = core_.schedule(now_ + st.period, next_key(st.owner),
                                 st.owner, [this, id] { fire_timer(id); });
  (*body)();
}

bool Simulator::cancel_timer(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;
  core_.cancel(it->second.next_event);
  timers_.erase(it);
  return true;
}

Simulator::Domain Simulator::register_domain() {
  seq_.push_back(0);
  return static_cast<Domain>(seq_.size() - 1);
}

std::uint64_t Simulator::drain(SimTime bound, std::uint64_t budget) {
  const logctx::ScopedClock clock(this, &log_clock_now_us);
  auto& x = common::exec_context();
  detail::EventCore::Popped ev;
  std::uint64_t n = 0;
  // Events a callback schedules at or before `bound` join the drain.
  while (n < budget && core_.pop_until(bound, ev)) {
    now_ = ev.time;
    x.time = ev.time;
    x.actor_domain = ev.target;
    x.event_key = ev.key;
    x.emit_seq = 0;
    ev.cb();
    ++n;
  }
  x.actor_domain = common::kGlobalDomain;
  x.event_key = 0;
  x.time = now_;
  return n;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  return drain(kSimTimeNever, max_events);
}

std::uint64_t Simulator::run_until(SimTime t) {
  CBPS_ASSERT(t >= now_);
  const std::uint64_t n = drain(t, ~std::uint64_t{0});
  now_ = t;
  common::exec_context().time = now_;
  return n;
}

}  // namespace cbps::sim
