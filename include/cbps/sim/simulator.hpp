// The discrete-event simulation engine.
//
// One engine, two shapes chosen at construction:
//
//   - Serial (the default, zero shards): every domain's events live on
//     one event core, processed in canonical (time, key) order on the
//     calling thread. No thread is started.
//   - Sharded (threads > 1 and lookahead > 0): epoch-synchronous. Nodes
//     (domains) are spread over `threads` shard cores, each run by a
//     worker thread. Execution alternates between
//       * global batches: whenever the earliest pending event is on the
//         global core (drivers, samplers, fault scripts), the global
//         events at that timestamp run exclusively on the calling
//         thread, in canonical key order. Global context may touch any
//         shard (joins, crashes, cross-shard cancels) — nothing else
//         runs;
//       * parallel windows: otherwise, with m the earliest pending shard
//         event and L the conservative lookahead (the minimum delay the
//         network's latency model can emit), all shards concurrently
//         process their events with time < min(m + L, next global
//         event), each in canonical (time, key) order.
//
// Shard isolation is the engine's contract with the network layer:
// during a window a shard only touches its own nodes' state, striped /
// atomic metrics, and its own event core. The only cross-shard
// interaction is schedule_for() to another shard, which must be at
// least one lookahead in the future (network transmission — asserted);
// those land in a per-shard outbox that the barrier merges. Because
// every event carries a canonical key and heaps order by (time, key),
// runs are bit-identical at any shard count, the serial shape included
// (see event_core.hpp for the full argument).
//
// Domains: every simulated actor that needs its events isolated onto a
// shard registers a *domain* (register_domain()). Domain 0 is the
// global domain — drivers, samplers, fault scripts — whose events are
// barriers when sharded. Single-domain users (unit tests, micro-benches)
// can ignore the concept entirely; everything defaults to domain 0.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/inline_function.hpp"
#include "cbps/sim/event_core.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::common {
class ThreadPool;
}  // namespace cbps::common

namespace cbps::sim {

class Simulator {
 public:
  using Callback = detail::EventCore::Callback;
  using EventId = std::uint64_t;
  using TimerId = std::uint64_t;
  using Domain = common::Domain;

  static constexpr EventId kInvalidEvent = 0;

  /// Most shard threads one engine runs: the EventId core field is 6
  /// bits, and core 0 is the global core.
  static constexpr unsigned kMaxThreads = 63;
  static_assert(kMaxThreads < common::kMaxStripes,
                "every shard core needs a metrics stripe of its own");

  /// `threads` shard workers (<= kMaxThreads) with conservative
  /// lookahead `lookahead` (the minimum possible network delay). Shards
  /// only when threads > 1 and lookahead > 0; otherwise serial — with a
  /// logged warning when threads > 1 asked for shards that a zero
  /// lookahead cannot give (every window would be empty).
  explicit Simulator(unsigned threads = 1, SimTime lookahead = 0);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Inside an event callback this is the event's
  /// time (on a worker too); outside it is the engine clock.
  SimTime now() const {
    const Worker& tl = tl_worker_;
    return tl.engine == this ? cores_[tl.core]->cur_time : now_;
  }

  /// Schedule `cb` at absolute time `t` (>= now()). The event is keyed
  /// by — and, when sharded, placed on the shard of — the current acting
  /// domain (common::exec_context().actor_domain). Returns a handle that
  /// can cancel the event before it fires.
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` from now.
  EventId schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now() + delay, std::move(cb));
  }

  /// Schedule `cb` to execute *as* domain `target` at absolute time `t`
  /// (network delivery: the receiver runs the callback). When sharded the
  /// event is placed on the target's shard; called from a worker with a
  /// target on another shard, `t` must be at least one lookahead ahead
  /// and the returned handle is kInvalidEvent (a cross-shard event cannot
  /// be cancelled by its sender).
  EventId schedule_for(Domain target, SimTime t, Callback cb);

  /// Cancel a pending event. Returns false if it already fired or was
  /// already cancelled. When sharded, only the owning shard (or global
  /// context at a barrier) may cancel.
  bool cancel(EventId id);

  /// Register a periodic timer firing every `period`, first at
  /// now() + first_delay (defaults to one full period). The timer is
  /// owned by the current acting domain (events keyed/placed like
  /// schedule_at). The callback keeps firing until cancel_timer().
  TimerId add_timer(SimTime period, Callback cb) {
    return add_timer(period, period, std::move(cb));
  }
  TimerId add_timer(SimTime period, SimTime first_delay, Callback cb);

  /// Stop a periodic timer. Returns false if unknown/already cancelled.
  bool cancel_timer(TimerId id);

  /// Run until the queue drains or `max_events` events have fired.
  /// Global-core events count one by one, so a serial run stops after
  /// exactly `max_events`; a sharded run checks the budget between
  /// windows. Returns the number of events processed.
  std::uint64_t run(std::uint64_t max_events = ~std::uint64_t{0});

  /// Process every event with time <= t, then advance the clock to t.
  /// Returns the number of events processed.
  std::uint64_t run_until(SimTime t);

  /// Pending (non-cancelled) event count, periodic timers included.
  std::size_t pending_events() const;

  std::uint64_t events_processed() const;

  /// Heap-health accounting (surfaces in --metrics-json): lazy-deleted
  /// entries skipped at pop time, and full heap rebuilds triggered when
  /// stale entries outnumbered live ones.
  std::uint64_t stale_entries_skipped() const;
  std::uint64_t heap_compactions() const;

  /// Allocate a fresh scheduling domain (dense, starting at 1). When
  /// sharded the domain is assigned to a shard; serially it only
  /// attributes keys.
  Domain register_domain();

  /// Worker threads executing events (1 when serial).
  unsigned thread_count() const { return shards_ == 0 ? 1 : shards_; }

 private:
  // Domains are assigned to shards in blocks of four so the four
  // schedule counters sharing one cache line always belong to the same
  // shard (no false sharing on the key-allocation hot path).
  static constexpr std::uint32_t kDomainBlock = 4;

  struct alignas(64) SeqBlock {
    std::uint64_t v[kDomainBlock] = {0, 0, 0, 0};
  };

  /// A cross-shard event captured during a window, merged at the
  /// barrier. The key was already allocated at schedule_for() time, so
  /// merge order cannot affect execution order.
  struct OutboxEntry {
    std::uint32_t target_core;
    Domain target;
    SimTime time;
    std::uint64_t key;
    Callback cb;
  };

  struct CoreState {
    explicit CoreState(std::uint32_t idx) : ev(idx) {}
    detail::EventCore ev;
    SimTime cur_time = 0;             // clock of the running worker
    std::vector<OutboxEntry> outbox;  // filled during a window
  };

  /// The window a worker thread is running (null engine: global context).
  struct Worker {
    const Simulator* engine;
    std::uint32_t core;
  };
  static inline thread_local Worker tl_worker_{nullptr, 0};

  bool on_worker() const { return tl_worker_.engine == this; }

  /// Core index for a domain: 0 (the global core) for domain 0 and for
  /// every domain when serial, else a block-cyclic assignment over the
  /// shard cores 1..shards_.
  std::uint32_t core_of(Domain d) const {
    return d == 0 || shards_ == 0
               ? 0
               : 1 + ((d - 1) / kDomainBlock) % shards_;
  }

  std::uint64_t next_key(Domain actor);
  void fire_timer(std::uint32_t core_idx, std::uint64_t local_id);
  std::uint64_t run_loop(SimTime limit, std::uint64_t max_events);
  /// Run core `c`'s events with time <= `bound` in (time, key) order, at
  /// most `budget` of them, on the calling thread.
  std::uint64_t drain(CoreState& c, SimTime bound, std::uint64_t budget);
  std::uint64_t run_window(SimTime m, SimTime g, SimTime limit);
  void run_shard(std::uint32_t core_idx, SimTime window_end);

  unsigned shards_;  // 0 = serial
  SimTime lookahead_;
  SimTime now_ = 0;         // global/barrier clock
  SimTime window_end_ = 0;  // exclusive bound of the running window
  std::uint64_t global_seq_ = 0;        // domain 0 schedule counter
  std::vector<SeqBlock> dom_seq_;       // domains >= 1, blocks of 4
  Domain next_domain_ = 1;
  std::vector<std::unique_ptr<CoreState>> cores_;  // [0] = global core
  std::unique_ptr<common::ThreadPool> pool_;       // shards only
};

}  // namespace cbps::sim
