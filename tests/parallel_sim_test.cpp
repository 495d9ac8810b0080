// Determinism property tests for the sharded engine: the same seeded
// workload run serially and on 2/4/8 shards must produce bit-identical
// delivery oracles, metrics and traces — plus the epoch-boundary
// regressions for run_until and periodic timers, the zero-lookahead
// serial fallback, and generated engine scripts replayed serially and
// on 2 and 4 shards.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cbps/common/exec_context.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/simulator.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "harness.hpp"

using namespace cbps;

namespace {

// Everything a run observably produces: the delivery oracle, the
// reliability counters, the latency/hop distributions and the final
// engine state. Two runs agree iff these agree exactly.
struct WorkloadSummary {
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t spurious = 0;
  std::uint64_t dups_suppressed = 0;
  std::uint64_t lost = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t send_failed = 0;
  std::uint64_t total_hops = 0;
  double delay_p50 = 0;
  double delay_p99 = 0;
  double hops_p50 = 0;
  double hops_p99 = 0;
  std::uint64_t sim_events = 0;
  sim::SimTime final_now = 0;

  bool operator==(const WorkloadSummary&) const = default;
};

// A pub/sub run with everything turned on at once: lossy wire via a
// fault script, a mid-run partition, Poisson churn with crashes, the
// reliable transport and the end-to-end duplicate filter.
WorkloadSummary run_workload(std::size_t sim_threads) {
  std::string error;
  const auto script = workload::FaultScript::parse(
      "loss at=0 model=uniform rate=0.02; "
      "partition at=200 heal=400 frac=0.3",
      &error);
  EXPECT_TRUE(script.has_value()) << error;

  pubsub::SystemConfig cfg;
  cfg.nodes = 48;
  cfg.seed = 1234;
  cfg.chord.ring = RingParams{12};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.force_reliable = script->needs_reliable_transport();
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.sim_threads = sim_threads;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(3, 9'999));
  EXPECT_EQ(system.sim().thread_count(),
            static_cast<unsigned>(sim_threads));
  system.network().start_maintenance_all();

  workload::FaultScriptRunner fault_runner(system, *script, cfg.seed);
  fault_runner.start();

  pubsub::DeliveryChecker checker;
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 17);
  workload::DriverParams dp;
  dp.max_subscriptions = 40;
  dp.max_publications = 150;
  dp.sub_interval = sim::sec(5);
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();

  workload::ChurnParams cp;
  cp.mean_interval_s = 60.0;
  cp.join_fraction = 0.4;
  cp.crash_fraction = 0.5;
  cp.min_nodes = 32;
  workload::ChurnDriver churn(system, cp, 99, [&driver](Key id) {
    for (const auto& sub : driver.active_subscriptions()) {
      if (sub->subscriber == id) return true;
    }
    return false;
  });
  churn.set_delivery_checker(&checker);
  churn.start();

  system.run_for(sim::sec(900));
  churn.stop();
  system.run_for(sim::sec(120));

  const auto report = checker.verify(/*grace=*/sim::sec(10));
  metrics::Registry& reg = system.network().registry();
  WorkloadSummary s;
  s.expected = report.expected;
  s.delivered = report.delivered;
  s.missing = report.missing;
  s.duplicates = report.duplicates;
  s.spurious = report.spurious;
  s.dups_suppressed = system.duplicates_suppressed();
  s.lost = reg.counter_value("chord.net.lost");
  s.retransmits = reg.counter_value("chord.retransmits");
  s.send_failed = reg.counter_value("chord.send_failed");
  for (std::size_t c = 0; c < overlay::kMessageClassCount; ++c) {
    s.total_hops +=
        system.traffic().hops(static_cast<overlay::MessageClass>(c));
  }
  const metrics::Histogram delay = system.delay_histogram();
  s.delay_p50 = delay.p50();
  s.delay_p99 = delay.p99();
  s.hops_p50 = reg.histogram("chord.route_hops").p50();
  s.hops_p99 = reg.histogram("chord.route_hops").p99();
  s.sim_events = system.sim().events_processed();
  s.final_now = system.sim().now();
  return s;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ParallelWorkloadTest, ChurnFaultWorkloadIdenticalAcrossShardCounts) {
  const WorkloadSummary serial = run_workload(1);
  // The oracle itself must show a live run, or equality proves nothing.
  EXPECT_GT(serial.expected, 0u);
  EXPECT_GT(serial.retransmits, 0u);
  for (const std::size_t threads : {2, 4, 8}) {
    const WorkloadSummary sharded = run_workload(threads);
    EXPECT_EQ(serial, sharded) << "divergence at " << threads << " shards";
  }
}

TEST(ParallelWorkloadTest, ExperimentTraceAndResultBitIdentical) {
  auto run = [](std::size_t threads, const std::string& trace) {
    bench::ExperimentConfig cfg;
    cfg.nodes = 120;
    cfg.subscriptions = 150;
    cfg.publications = 150;
    cfg.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
    cfg.verify = true;
    cfg.trace_path = trace;
    cfg.sim_threads = threads;
    return bench::run_experiment(cfg);
  };
  const std::string t1 = testing::TempDir() + "par_sim_t1.jsonl";
  const std::string t4 = testing::TempDir() + "par_sim_t4.jsonl";
  const bench::ExperimentResult a = run(1, t1);
  const bench::ExperimentResult b = run(4, t4);

  EXPECT_EQ(a.sim_threads, 1u);
  EXPECT_EQ(b.sim_threads, 4u);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_GT(a.notifications_delivered, 0u);
  EXPECT_EQ(a.notifications_delivered, b.notifications_delivered);
  EXPECT_EQ(a.subscribe_hops, b.subscribe_hops);
  EXPECT_EQ(a.publish_hops, b.publish_hops);
  EXPECT_EQ(a.notify_hops, b.notify_hops);
  EXPECT_EQ(a.max_subs_per_node, b.max_subs_per_node);
  EXPECT_EQ(a.expected_deliveries, b.expected_deliveries);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.trace_spans, b.trace_spans);
  // Doubles too: bit-identical, not just close.
  EXPECT_EQ(a.avg_notification_delay_s, b.avg_notification_delay_s);
  EXPECT_EQ(a.max_notification_delay_s, b.max_notification_delay_s);
  EXPECT_EQ(a.delay_p99_s, b.delay_p99_s);
  EXPECT_EQ(a.avg_route_hops, b.avg_route_hops);
  EXPECT_EQ(a.hops_p99, b.hops_p99);
  EXPECT_EQ(a.fanout_p50, b.fanout_p50);
  EXPECT_EQ(a.fanout_p99, b.fanout_p99);

  const std::string trace_a = slurp(t1);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, slurp(t4));
  std::remove(t1.c_str());
  std::remove(t4.c_str());
}

TEST(ParallelWorkloadTest, ZeroDelayModelFallsBackToSerial) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 8;
  cfg.message_delay = 0;  // lookahead would be 0 — engine must go serial
  cfg.sim_threads = 4;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(2, 99));
  EXPECT_EQ(system.sim().thread_count(), 1u);
}

TEST(ParallelWorkloadTest, LatencyModelsReportMinDelay) {
  Rng rng(1);
  sim::FixedLatency fixed(sim::ms(50));
  EXPECT_EQ(fixed.min_delay(), sim::ms(50));
  sim::UniformLatency uni(sim::ms(10), sim::ms(90));
  EXPECT_EQ(uni.min_delay(), sim::ms(10));
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(uni.sample(rng), uni.min_delay());
  }
  // An unbounded model keeps the base default, the serial-fallback
  // sentinel.
  struct Unbounded final : sim::LatencyModel {
    sim::SimTime sample(Rng&) override { return sim::ms(1); }
  } unbounded;
  EXPECT_EQ(unbounded.min_delay(), 0);
}

// Regression (satellite bugfix): a periodic timer whose ticks land
// exactly on epoch boundaries, driven by run_until calls that also land
// exactly on epoch boundaries. Every tick must fire exactly once —
// whether it sits on the global core or on a shard — and a repeated
// run_until at the same boundary must not re-fire it.
TEST(EpochBoundaryTest, RunUntilPeriodicTimerAtExactBoundary) {
  const sim::SimTime period = sim::ms(50);  // == the engine lookahead
  auto drive = [&](sim::Simulator& sim) {
    std::vector<sim::SimTime> global_fires;
    std::vector<sim::SimTime> shard_fires;
    sim.add_timer(period,
                  [&global_fires, &sim] { global_fires.push_back(sim.now()); });
    const common::Domain d = sim.register_domain();
    {
      const common::ActorScope as(d);
      sim.add_timer(period,
                    [&shard_fires, &sim] { shard_fires.push_back(sim.now()); });
    }
    sim.run_until(sim::ms(500));
    const std::size_t global_at_500 = global_fires.size();
    const std::size_t shard_at_500 = shard_fires.size();
    sim.run_until(sim::ms(500));  // same boundary again: no re-fire
    EXPECT_EQ(global_fires.size(), global_at_500);
    EXPECT_EQ(shard_fires.size(), shard_at_500);
    sim.run_until(sim::ms(1000));
    EXPECT_EQ(sim.now(), sim::ms(1000));
    global_fires.insert(global_fires.end(), shard_fires.begin(),
                        shard_fires.end());
    return global_fires;
  };

  sim::Simulator serial;
  const auto expected = drive(serial);
  // run_until is inclusive: ticks at 50, 100, ..., 1000 → 20 per timer.
  ASSERT_EQ(expected.size(), 40u);
  EXPECT_EQ(expected.front(), period);
  EXPECT_EQ(expected[19], sim::ms(1000));

  for (const unsigned threads : {2u, 4u, 8u}) {
    sim::Simulator par(threads, period);
    EXPECT_EQ(drive(par), expected) << threads << " threads";
  }
}

// One-shot events scheduled exactly at the run_until boundary and one
// tick past it: the boundary event fires, the later one stays pending.
TEST(EpochBoundaryTest, BoundaryEventFiresLaterEventStaysPending) {
  auto drive = [](sim::Simulator& sim) {
    int at_boundary = 0;
    int past_boundary = 0;
    const common::Domain d = sim.register_domain();
    {
      const common::ActorScope as(d);
      sim.schedule_at(sim::ms(200), [&at_boundary] { ++at_boundary; });
      sim.schedule_at(sim::ms(200) + 1, [&past_boundary] { ++past_boundary; });
    }
    sim.run_until(sim::ms(200));
    EXPECT_EQ(at_boundary, 1);
    EXPECT_EQ(past_boundary, 0);
    sim.run();
    EXPECT_EQ(past_boundary, 1);
  };
  sim::Simulator serial;
  drive(serial);
  sim::Simulator par(4, sim::ms(50));
  drive(par);
}

// --- EngineParityTest --------------------------------------------------------
//
// Seeded scripts of scheduling, cancelling, timer and run calls over
// several registered domains, replayed on the serial engine and on 2 and
// 4 shards. Script-level domain events and every event-scheduled
// follow-up use delays >= the lookahead, so each script is legal
// sharded. After every step the engines must agree on what fired in each
// domain (time and canonical key, in order), the clock and the pending
// and processed counts; once drained, on the heap-health counters too.

constexpr sim::SimTime kParityLookahead = 50;
constexpr common::Domain kParityDomains = 16;

enum class ParityOp {
  kScheduleAt,
  kScheduleFor,
  kCancel,
  kAddTimer,
  kCancelTimer,
  kRunUntil,
  kRun,
};

struct ParityStep {
  ParityOp op;
  common::Domain actor = 0;   // acting domain (the owner, for timers)
  common::Domain target = 0;  // schedule_for target
  sim::SimTime delay = 0;     // schedule delay, timer first delay, run_until
                              // advance
  sim::SimTime period = 0;    // timer period
  std::uint64_t n = 0;        // follow-up hops, timer fire limit, cancel
                              // index or run budget
};

std::vector<ParityStep> parity_script(std::uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::uint64_t>(rng.uniform_int(lo, hi));
  };
  // Delays are coarse multiples of the lookahead (plus a little jitter
  // for global events) so events of many domains share timestamps and
  // the canonical tie-break is exercised.
  const auto domain_delay = [&] {
    return kParityLookahead * pick(1, 3) + (pick(0, 3) == 0 ? pick(0, 9) : 0);
  };
  std::vector<ParityStep> steps;
  const std::size_t len = pick(20, 60);
  for (std::size_t i = 0; i < len; ++i) {
    ParityStep st{};
    switch (pick(0, 9)) {
      case 0:
      case 1:
        st.op = ParityOp::kScheduleAt;
        st.actor = static_cast<common::Domain>(pick(0, kParityDomains));
        st.delay = st.actor == 0 ? pick(0, 3 * kParityLookahead)
                                 : domain_delay();
        st.n = pick(0, 3);
        break;
      case 2:
      case 3:
        st.op = ParityOp::kScheduleFor;
        st.actor = static_cast<common::Domain>(pick(0, kParityDomains));
        // Only global context may schedule onto the global domain.
        st.target = static_cast<common::Domain>(
            pick(st.actor == 0 ? 0 : 1, kParityDomains));
        st.delay = domain_delay();
        st.n = pick(0, 3);
        break;
      case 4:
        st.op = ParityOp::kCancel;
        st.n = pick(0, 1 << 20);
        break;
      case 5:
        st.op = ParityOp::kAddTimer;
        st.actor = static_cast<common::Domain>(pick(0, kParityDomains));
        st.period = kParityLookahead * pick(1, 4);
        st.delay = domain_delay();
        st.n = pick(0, 6);  // 0 = fires until cancelled
        break;
      case 6:
        st.op = ParityOp::kCancelTimer;
        st.n = pick(0, 1 << 20);
        break;
      case 7:
      case 8:
        st.op = ParityOp::kRunUntil;
        st.delay = pick(0, 4 * kParityLookahead);
        break;
      default:
        st.op = ParityOp::kRun;
        st.n = pick(1, 40);
        break;
    }
    steps.push_back(st);
  }
  return steps;
}

// One engine replaying a script: what fired in each domain, and the
// handles the script's cancels pick from.
class ParityReplay {
 public:
  explicit ParityReplay(unsigned threads)
      : sim_(threads, kParityLookahead), fired_(kParityDomains + 1) {
    for (common::Domain d = 1; d <= kParityDomains; ++d) {
      EXPECT_EQ(sim_.register_domain(), d);
    }
  }

  sim::Simulator& sim() { return sim_; }

  /// Apply one non-run step; returns the cancel result (false otherwise).
  bool apply(const ParityStep& st) {
    const common::ActorScope as(st.actor);
    const sim::SimTime now = sim_.now();
    switch (st.op) {
      case ParityOp::kScheduleAt:
        events_.push_back(sim_.schedule_at(now + st.delay, follow(st.n, st.delay)));
        return false;
      case ParityOp::kScheduleFor:
        events_.push_back(sim_.schedule_for(st.target, now + st.delay,
                                            follow(st.n, st.delay)));
        return false;
      case ParityOp::kCancel:
        return !events_.empty() &&
               sim_.cancel(events_[st.n % events_.size()]);
      case ParityOp::kAddTimer: {
        timers_.push_back(std::make_unique<Timer>());
        Timer* t = timers_.back().get();
        t->left = st.n;
        t->id = sim_.add_timer(st.period, st.delay, [this, t] { tick(*t); });
        return false;
      }
      case ParityOp::kCancelTimer:
        return !timers_.empty() &&
               sim_.cancel_timer(timers_[st.n % timers_.size()]->id);
      default:
        ADD_FAILURE() << "run steps are driven by the test";
        return false;
    }
  }

  void cancel_all_timers() {
    for (const auto& t : timers_) sim_.cancel_timer(t->id);
  }

  /// Everything the engine exposes after a step.
  struct State {
    std::vector<std::vector<std::pair<sim::SimTime, std::uint64_t>>> fired;
    sim::SimTime now;
    std::size_t pending;
    std::uint64_t processed;
    std::uint64_t stale_skipped;
    std::uint64_t compactions;
    bool operator==(const State&) const = default;
  };
  State state() const {
    return State{fired_,
                 sim_.now(),
                 sim_.pending_events(),
                 sim_.events_processed(),
                 sim_.stale_entries_skipped(),
                 sim_.heap_compactions()};
  }

 private:
  struct Timer {
    sim::Simulator::TimerId id = 0;
    std::uint64_t left = 0;  // fires before it cancels itself; 0 = never
  };

  void record() {
    const common::ExecContext& x = common::exec_context();
    fired_[x.actor_domain].emplace_back(sim_.now(), x.event_key);
  }

  // An event that, while hops remain, schedules one follow-up: in its own
  // domain or, on odd salts, in another domain (never the global one),
  // always at least one lookahead ahead.
  sim::Simulator::Callback follow(std::uint64_t hops, std::uint64_t salt) {
    return [this, hops, salt] {
      record();
      if (hops == 0) return;
      const std::uint64_t h = salt * 0x9e3779b97f4a7c15ull + hops;
      const sim::SimTime at =
          sim_.now() + kParityLookahead * (1 + (h >> 7) % 3);
      if ((h >> 3) & 1) {
        const auto target =
            static_cast<common::Domain>(1 + (h >> 11) % kParityDomains);
        sim_.schedule_for(target, at, follow(hops - 1, h));
      } else {
        sim_.schedule_at(at, follow(hops - 1, h));
      }
    };
  }

  void tick(Timer& t) {
    record();
    if (t.left > 0 && --t.left == 0) sim_.cancel_timer(t.id);
  }

  sim::Simulator sim_;
  std::vector<std::vector<std::pair<sim::SimTime, std::uint64_t>>> fired_;
  std::vector<sim::Simulator::EventId> events_;
  std::vector<std::unique_ptr<Timer>> timers_;
};

// Field-by-field comparison (readable failures); true when all agree.
// The heap-health counters join only at drain: they account lazy
// deletion per event core, and a sharded run reads every shard's head
// between batches, so a cancelled entry can be skipped there before the
// single serial heap reaches it. Once drained, every cancelled entry has
// been skipped (or compacted) on every engine.
bool same_state(const ParityReplay::State& got,
                const ParityReplay::State& want, bool drained) {
  EXPECT_EQ(got.fired, want.fired);
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.pending, want.pending);
  EXPECT_EQ(got.processed, want.processed);
  if (!drained) {
    return got.fired == want.fired && got.now == want.now &&
           got.pending == want.pending && got.processed == want.processed;
  }
  EXPECT_EQ(got.stale_skipped, want.stale_skipped);
  EXPECT_EQ(got.compactions, want.compactions);
  return got == want;
}

TEST(EngineParityTest, GeneratedScriptsAgreeSerialAndSharded) {
  constexpr std::uint64_t kScripts = 200;
  std::uint64_t fired_total = 0;
  for (std::uint64_t seed = 1; seed <= kScripts; ++seed) {
    SCOPED_TRACE("script seed " + std::to_string(seed));
    ParityReplay serial(1);
    ParityReplay two(2);
    ParityReplay four(4);
    ASSERT_EQ(serial.sim().thread_count(), 1u);
    ASSERT_EQ(two.sim().thread_count(), 2u);
    ASSERT_EQ(four.sim().thread_count(), 4u);
    const std::vector<ParityStep> steps = parity_script(seed);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const ParityStep& st = steps[i];
      if (st.op == ParityOp::kRunUntil) {
        const sim::SimTime t = serial.sim().now() + st.delay;
        const std::uint64_t n = serial.sim().run_until(t);
        EXPECT_EQ(two.sim().run_until(t), n);
        EXPECT_EQ(four.sim().run_until(t), n);
      } else if (st.op == ParityOp::kRun) {
        // Sharded, the budget is checked between windows, and a window
        // ends where every earlier event has run: the sharded run is a
        // prefix of the canonical order. The serial engine's budget is
        // exact, so run(k) must replay that same prefix.
        const std::uint64_t k = two.sim().run(st.n);
        EXPECT_EQ(four.sim().run(st.n), k);
        EXPECT_TRUE(k >= st.n || two.sim().pending_events() == 0);
        EXPECT_EQ(serial.sim().run(k), k);
      } else {
        const bool r = serial.apply(st);
        EXPECT_EQ(two.apply(st), r);
        EXPECT_EQ(four.apply(st), r);
      }
      const ParityReplay::State want = serial.state();
      ASSERT_TRUE(same_state(two.state(), want, false))
          << "2 shards, step " << i;
      ASSERT_TRUE(same_state(four.state(), want, false))
          << "4 shards, step " << i;
    }
    for (ParityReplay* r : {&serial, &two, &four}) {
      r->cancel_all_timers();
      r->sim().run();
    }
    const ParityReplay::State want = serial.state();
    EXPECT_EQ(want.pending, 0u);
    ASSERT_TRUE(same_state(two.state(), want, true)) << "2 shards, drain";
    ASSERT_TRUE(same_state(four.state(), want, true)) << "4 shards, drain";
    fired_total += want.processed;
  }
  // The scripts must actually run events, or agreement proves nothing.
  EXPECT_GT(fired_total, 10 * kScripts);
}

}  // namespace
