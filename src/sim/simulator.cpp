#include "cbps/sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "cbps/common/logging.hpp"
#include "cbps/common/thread_pool.hpp"

namespace cbps::sim {

namespace {

// Clock hook for log-line prefixes: installed once per dispatch loop
// (not per event) so the hot path pays nothing.
std::uint64_t log_clock_now_us(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now();
}

}  // namespace

Simulator::Simulator(unsigned threads, SimTime lookahead)
    : shards_(threads > 1 && lookahead > 0 ? threads : 0),
      lookahead_(lookahead) {
  CBPS_ASSERT_MSG(threads <= kMaxThreads, "EventId core field is 6 bits");
  if (threads > 1 && shards_ == 0) {
    CBPS_LOG_WARN << "sim_threads=" << threads
                  << " requested but the lookahead (the latency model's "
                     "min_delay) is 0; running serially";
  }
  cores_.reserve(shards_ + 1);
  for (std::uint32_t c = 0; c <= shards_; ++c) {
    cores_.push_back(std::make_unique<CoreState>(c));
  }
  if (shards_ > 0) pool_ = std::make_unique<common::ThreadPool>(shards_);
}

Simulator::~Simulator() = default;

std::uint64_t Simulator::next_key(Domain actor) {
  if (actor == 0) {
    CBPS_ASSERT_MSG(!on_worker(), "global-domain scheduling from a worker");
    return detail::make_key(0, global_seq_++);
  }
  CBPS_ASSERT_MSG(actor < next_domain_,
                  "acting domain not registered with this engine");
  const std::uint32_t i = actor - 1;
  return detail::make_key(actor,
                          dom_seq_[i / kDomainBlock].v[i % kDomainBlock]++);
}

Simulator::EventId Simulator::schedule_at(SimTime t, Callback cb) {
  const Domain actor = common::exec_context().actor_domain;
  const std::uint32_t core = core_of(actor);
  if (on_worker()) {
    CBPS_ASSERT_MSG(core == tl_worker_.core,
                    "worker scheduling onto a foreign shard without "
                    "schedule_for");
  } else {
    CBPS_ASSERT_MSG(t >= now_, "scheduling into the past");
  }
  return cores_[core]->ev.schedule(t, next_key(actor), actor,
                                   std::move(cb));
}

Simulator::EventId Simulator::schedule_for(Domain target, SimTime t,
                                           Callback cb) {
  const Domain actor = common::exec_context().actor_domain;
  CBPS_ASSERT_MSG(target != common::kGlobalDomain ||
                      actor == common::kGlobalDomain,
                  "only global context schedules onto the global domain");
  const std::uint64_t key = next_key(actor);
  const std::uint32_t tc = core_of(target);
  if (on_worker()) {
    CoreState& own = *cores_[tl_worker_.core];
    if (tc == tl_worker_.core) {
      return own.ev.schedule(t, key, target, std::move(cb));
    }
    // Cross-shard: must be outside the running window (network
    // transmission delay >= lookahead guarantees this) so the target
    // shard cannot race with its own present.
    CBPS_ASSERT_MSG(t >= window_end_,
                    "cross-shard event inside the lookahead window");
    own.outbox.push_back(OutboxEntry{tc, target, t, key, std::move(cb)});
    return kInvalidEvent;
  }
  // Global context (barriers, setup). A global-domain key stays on the
  // global core whatever the target: the global core holds exactly the
  // global keys, so a global batch runs all of them at its time — and
  // they sort before every node key there — in canonical order.
  CBPS_ASSERT_MSG(t >= now_, "scheduling into the past");
  return cores_[actor == common::kGlobalDomain ? 0 : tc]->ev.schedule(
      t, key, target, std::move(cb));
}

bool Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return false;
  const std::uint32_t core = detail::EventCore::core_of_id(id);
  CBPS_ASSERT(core < cores_.size());
  CBPS_ASSERT_MSG(!on_worker() || core == tl_worker_.core,
                  "cross-shard cancel from a worker");
  return cores_[core]->ev.cancel(id);
}

Simulator::TimerId Simulator::add_timer(SimTime period, SimTime first_delay,
                                        Callback cb) {
  CBPS_ASSERT_MSG(period > 0, "zero-period timer would livelock");
  const Domain owner = common::exec_context().actor_domain;
  const std::uint32_t core = core_of(owner);
  CBPS_ASSERT_MSG(!on_worker() || core == tl_worker_.core,
                  "timer owned by a foreign shard");
  auto& ev = cores_[core]->ev;
  const std::uint64_t local = ev.next_timer_seq++;
  ev.timers.emplace(
      local, detail::EventCore::TimerState{
                 period, std::make_shared<Callback>(std::move(cb)),
                 kInvalidEvent, owner});
  auto& st = ev.timers.at(local);
  st.next_event =
      ev.schedule(now() + first_delay, next_key(owner), owner,
                  [this, core, local] { fire_timer(core, local); });
  return (static_cast<TimerId>(core) << 56) | local;
}

void Simulator::fire_timer(std::uint32_t core_idx, std::uint64_t local_id) {
  auto& ev = cores_[core_idx]->ev;
  auto it = ev.timers.find(local_id);
  CBPS_ASSERT(it != ev.timers.end());
  // Pin the body: the callback may cancel_timer(id), which erases the
  // timer state — the shared_ptr keeps the callable alive through the
  // invocation without copying it. Rearm before the body runs (keeps the
  // timer phase independent of body work).
  const std::shared_ptr<Callback> body = it->second.cb;
  auto& st = it->second;
  st.next_event = ev.schedule(
      now() + st.period, next_key(st.owner), st.owner,
      [this, core_idx, local_id] { fire_timer(core_idx, local_id); });
  (*body)();
}

bool Simulator::cancel_timer(TimerId id) {
  const auto core = static_cast<std::uint32_t>(id >> 56);
  const std::uint64_t local = id & ((std::uint64_t{1} << 56) - 1);
  if (core >= cores_.size()) return false;
  CBPS_ASSERT_MSG(!on_worker() || core == tl_worker_.core,
                  "cross-shard timer cancel from a worker");
  auto& ev = cores_[core]->ev;
  auto it = ev.timers.find(local);
  if (it == ev.timers.end()) return false;
  ev.cancel(it->second.next_event);
  ev.timers.erase(it);
  return true;
}

Simulator::Domain Simulator::register_domain() {
  CBPS_ASSERT_MSG(!on_worker(), "domains register from global context only");
  const Domain d = next_domain_++;
  const std::uint32_t block = (d - 1) / kDomainBlock;
  if (block >= dom_seq_.size()) dom_seq_.resize(block + 1);
  return d;
}

std::uint64_t Simulator::drain(CoreState& c, SimTime bound,
                               std::uint64_t budget) {
  // The global core's clock is the engine clock; a shard keeps its own.
  SimTime& clock = c.ev.core_index() == 0 ? now_ : c.cur_time;
  const std::uint32_t stripe = c.ev.core_index();
  auto& x = common::exec_context();
  detail::EventCore::Popped ev;
  std::uint64_t n = 0;
  // Events a callback schedules on this core at or before `bound` join
  // the drain.
  while (n < budget && c.ev.pop_until(bound, ev)) {
    clock = ev.time;
    x.time = ev.time;
    x.actor_domain = ev.target;
    x.event_key = ev.key;
    x.emit_seq = 0;
    x.stripe = stripe;
    ev.cb();
    ++n;
  }
  x.actor_domain = common::kGlobalDomain;
  x.event_key = 0;
  x.stripe = 0;
  return n;
}

void Simulator::run_shard(std::uint32_t core_idx, SimTime window_end) {
  tl_worker_ = Worker{this, core_idx};
  const logctx::ScopedClock clock(this, &log_clock_now_us);
  drain(*cores_[core_idx], window_end - 1, ~std::uint64_t{0});
  tl_worker_ = Worker{nullptr, 0};
}

std::uint64_t Simulator::run_window(SimTime m, SimTime g, SimTime limit) {
  const std::uint64_t before = events_processed();
  SimTime w = std::min(m + lookahead_, g);  // g may be kSimTimeNever
  if (limit != kSimTimeNever && w > limit) w = limit + 1;
  window_end_ = w;
  for (std::uint32_t s = 1; s <= shards_; ++s) {
    pool_->submit([this, s, w] { run_shard(s, w); });
  }
  pool_->wait();
  // Barrier merge of cross-shard events, shard order. The order is
  // cosmetic: keys were allocated at schedule time and heaps order by
  // (time, key), so execution order is insertion-independent.
  for (std::uint32_t s = 1; s <= shards_; ++s) {
    auto& ob = cores_[s]->outbox;
    for (auto& e : ob) {
      cores_[e.target_core]->ev.schedule(e.time, e.key, e.target,
                                         std::move(e.cb));
    }
    ob.clear();
  }
  now_ = std::max(now_, std::min(w, limit));
  common::exec_context().time = now_;
  return events_processed() - before;
}

std::uint64_t Simulator::run_loop(SimTime limit, std::uint64_t max_events) {
  const logctx::ScopedClock clock(this, &log_clock_now_us);
  std::uint64_t n = 0;
  while (n < max_events) {
    const SimTime g = cores_[0]->ev.min_time();
    SimTime m = kSimTimeNever;  // stays kSimTimeNever when serial
    for (std::uint32_t s = 1; s <= shards_; ++s) {
      m = std::min(m, cores_[s]->ev.min_time());
    }
    const SimTime t = std::min(g, m);
    if (t == kSimTimeNever || t > limit) break;
    if (g <= m) {
      // Canonical order: at equal time, global-domain keys precede all
      // node keys, so the global batch at g runs first. Sharded, it
      // stops after timestamp g so the shards' horizon is re-read (the
      // batch may have placed or cancelled shard events); serial,
      // nothing else can run, so it runs on to the limit.
      n += drain(*cores_[0], shards_ == 0 ? limit : g, max_events - n);
      continue;
    }
    n += run_window(m, g, limit);
  }
  return n;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  const SimTime start = now_;
  const std::uint64_t n = run_loop(kSimTimeNever, max_events);
  // Land the clock on the last processed event (a window moved it to
  // the window's end).
  SimTime end = start;
  for (const auto& c : cores_) end = std::max(end, c->ev.floor_time());
  now_ = end;
  common::exec_context().time = now_;
  return n;
}

std::uint64_t Simulator::run_until(SimTime t) {
  CBPS_ASSERT(t >= now_);
  const std::uint64_t n = run_loop(t, ~std::uint64_t{0});
  now_ = t;
  common::exec_context().time = now_;
  return n;
}

std::size_t Simulator::pending_events() const {
  std::size_t n = 0;
  for (const auto& c : cores_) n += c->ev.live();
  return n;
}

std::uint64_t Simulator::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& c : cores_) n += c->ev.processed();
  return n;
}

std::uint64_t Simulator::stale_entries_skipped() const {
  std::uint64_t n = 0;
  for (const auto& c : cores_) n += c->ev.stale_skipped();
  return n;
}

std::uint64_t Simulator::heap_compactions() const {
  std::uint64_t n = 0;
  for (const auto& c : cores_) n += c->ev.compactions();
  return n;
}

}  // namespace cbps::sim
