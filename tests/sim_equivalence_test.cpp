// Equivalence tests for the simulation engine. The engine once also ran
// sharded across threads; these tests pin what its serial shape produced
// before that machinery was deleted, so the engine that remains is held
// to the same event order byte for byte:
//   - 200 generated engine scripts (scheduling, cancelling, timers and
//     run calls over several domains), one firing-log digest each;
//   - a pub/sub run with churn, loss and a partition, as a summary of
//     everything it observably produces;
//   - one run_experiment() trace file, as a digest of its bytes.
// Plus the run_until boundary regressions for one-shot and periodic
// events.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cbps/common/exec_context.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/sim/simulator.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "harness.hpp"

using namespace cbps;

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

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
WorkloadSummary run_workload() {
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
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(3, 9'999));
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

// Recorded from the engine that could also shard (its serial shape,
// which a parity test held equal to 2, 4 and 8 shards).
TEST(EngineEquivalenceTest, ChurnFaultWorkloadMatchesRecordedSummary) {
  WorkloadSummary want;
  want.expected = 107;
  want.delivered = 87;
  want.missing = 20;
  want.duplicates = 0;
  want.spurious = 0;
  want.dups_suppressed = 0;
  want.lost = 6944;
  want.retransmits = 3205;
  want.send_failed = 0;
  want.total_hops = 345278;
  want.delay_p50 = 0x1.3p-3;
  want.delay_p99 = 0x1p-1;
  want.hops_p50 = 0x1.1p+0;
  want.hops_p99 = 0x1.5p+8;
  want.sim_events = 350924;
  want.final_now = 1020000000;
  const WorkloadSummary got = run_workload();
  // The oracle itself must show a live run, or equality proves nothing.
  EXPECT_GT(got.expected, 0u);
  EXPECT_GT(got.retransmits, 0u);
  EXPECT_EQ(got.expected, want.expected);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.missing, want.missing);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.spurious, want.spurious);
  EXPECT_EQ(got.dups_suppressed, want.dups_suppressed);
  EXPECT_EQ(got.lost, want.lost);
  EXPECT_EQ(got.retransmits, want.retransmits);
  EXPECT_EQ(got.send_failed, want.send_failed);
  EXPECT_EQ(got.total_hops, want.total_hops);
  // Doubles too: bit-identical, not just close.
  EXPECT_EQ(got.delay_p50, want.delay_p50);
  EXPECT_EQ(got.delay_p99, want.delay_p99);
  EXPECT_EQ(got.hops_p50, want.hops_p50);
  EXPECT_EQ(got.hops_p99, want.hops_p99);
  EXPECT_EQ(got.sim_events, want.sim_events);
  EXPECT_EQ(got.final_now, want.final_now);
}

// One traced, verified run_experiment(): FNV-1a over the trace file's
// bytes and the result's counts and delay doubles, recorded from the
// engine that could also shard.
TEST(EngineEquivalenceTest, ExperimentTraceMatchesRecordedDigest) {
  bench::ExperimentConfig cfg;
  cfg.nodes = 120;
  cfg.subscriptions = 150;
  cfg.publications = 150;
  cfg.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.verify = true;
  cfg.trace_path = testing::TempDir() + "sim_equivalence_trace.jsonl";
  const bench::ExperimentResult r = bench::run_experiment(cfg);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.notifications_delivered, 80u);
  EXPECT_EQ(r.sim_events, 3825u);
  EXPECT_EQ(r.trace_spans, 4230u);
  EXPECT_EQ(r.avg_notification_delay_s, 0x1.1a3d70a3d70a5p-2);
  EXPECT_EQ(r.delay_p99_s, 0x1.ccccccccccccdp-2);
  EXPECT_EQ(r.avg_route_hops, 0x1.8f3f3f3f3f3f4p+1);

  std::ifstream in(cfg.trace_path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  const std::string trace = os.str();
  std::remove(cfg.trace_path.c_str());
  ASSERT_FALSE(trace.empty());
  std::uint64_t digest = kFnvBasis;
  for (const char c : trace) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ull;
  }
  EXPECT_EQ(trace.size(), 508532u);
  EXPECT_EQ(digest, 0x72cccecfef695db7ull);
}

// Regression: a periodic timer whose ticks land exactly on run_until
// boundaries. Every tick must fire exactly once — whether the timer is
// owned by the global domain or by a node domain — and a repeated
// run_until at the same boundary must not re-fire it.
TEST(EpochBoundaryTest, RunUntilPeriodicTimerAtExactBoundary) {
  const sim::SimTime period = sim::ms(50);
  sim::Simulator sim;
  std::vector<sim::SimTime> global_fires;
  std::vector<sim::SimTime> domain_fires;
  sim.add_timer(period,
                [&global_fires, &sim] { global_fires.push_back(sim.now()); });
  const common::Domain d = sim.register_domain();
  {
    const common::ActorScope as(d);
    sim.add_timer(period,
                  [&domain_fires, &sim] { domain_fires.push_back(sim.now()); });
  }
  sim.run_until(sim::ms(500));
  const std::size_t global_at_500 = global_fires.size();
  const std::size_t domain_at_500 = domain_fires.size();
  sim.run_until(sim::ms(500));  // same boundary again: no re-fire
  EXPECT_EQ(global_fires.size(), global_at_500);
  EXPECT_EQ(domain_fires.size(), domain_at_500);
  sim.run_until(sim::ms(1000));
  EXPECT_EQ(sim.now(), sim::ms(1000));
  // run_until is inclusive: ticks at 50, 100, ..., 1000 → 20 per timer.
  ASSERT_EQ(global_fires.size(), 20u);
  EXPECT_EQ(global_fires.front(), period);
  EXPECT_EQ(global_fires.back(), sim::ms(1000));
  EXPECT_EQ(domain_fires, global_fires);
}

// One-shot events scheduled exactly at the run_until boundary and one
// tick past it: the boundary event fires, the later one stays pending.
TEST(EpochBoundaryTest, BoundaryEventFiresLaterEventStaysPending) {
  sim::Simulator sim;
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
}

// --- EngineParityTest --------------------------------------------------------
//
// Seeded scripts of scheduling, cancelling, timer and run calls over
// several registered domains. Delays are coarse, so events of many
// domains share timestamps and the canonical (time, key) tie-break
// decides their order. Each script's digest covers every fired event
// (acting domain, time, canonical key, in firing order) and, after every
// step, the step's result, the clock and the pending, processed, stale
// and compaction counts.

constexpr sim::SimTime kParityTick = 50;
constexpr common::Domain kParityDomains = 16;

// Per script (seed 1..200): the digest described above, recorded from
// the engine that could also shard (its serial shape, which the parity
// test of that engine held equal to 2 and 4 shards on every step).
constexpr std::uint64_t kScriptDigests[] = {
#include "engine_script_digests.inc"
};

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
  // Delays are coarse multiples of the tick (plus a little jitter for
  // global events) so events of many domains share timestamps and the
  // canonical tie-break is exercised.
  const auto domain_delay = [&] {
    return kParityTick * pick(1, 3) + (pick(0, 3) == 0 ? pick(0, 9) : 0);
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
        st.delay = st.actor == 0 ? pick(0, 3 * kParityTick) : domain_delay();
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
        st.period = kParityTick * pick(1, 4);
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
        st.delay = pick(0, 4 * kParityTick);
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

// One engine replaying a script, folding what fires into a digest.
class ParityReplay {
 public:
  ParityReplay() {
    for (common::Domain d = 1; d <= kParityDomains; ++d) {
      EXPECT_EQ(sim_.register_domain(), d);
    }
  }

  sim::Simulator& sim() { return sim_; }
  std::uint64_t digest() const { return digest_; }

  /// Apply one step; returns its result (the run count, the cancel
  /// outcome, or 0).
  std::uint64_t apply(const ParityStep& st) {
    const common::ActorScope as(st.actor);
    const sim::SimTime now = sim_.now();
    switch (st.op) {
      case ParityOp::kScheduleAt:
        events_.push_back(
            sim_.schedule_at(now + st.delay, follow(st.n, st.delay)));
        return 0;
      case ParityOp::kScheduleFor:
        events_.push_back(sim_.schedule_for(st.target, now + st.delay,
                                            follow(st.n, st.delay)));
        return 0;
      case ParityOp::kCancel:
        return !events_.empty() &&
               sim_.cancel(events_[st.n % events_.size()]);
      case ParityOp::kAddTimer: {
        timers_.push_back(std::make_unique<Timer>());
        Timer* t = timers_.back().get();
        t->left = st.n;
        t->id = sim_.add_timer(st.period, st.delay, [this, t] { tick(*t); });
        return 0;
      }
      case ParityOp::kCancelTimer:
        return !timers_.empty() &&
               sim_.cancel_timer(timers_[st.n % timers_.size()]->id);
      case ParityOp::kRunUntil:
        return sim_.run_until(now + st.delay);
      case ParityOp::kRun:
        return sim_.run(st.n);
    }
    return 0;
  }

  void cancel_all_timers() {
    for (const auto& t : timers_) sim_.cancel_timer(t->id);
  }

  /// Fold a step's result and the engine state after it.
  void mark(std::uint64_t result) {
    for (const std::uint64_t v :
         {result, static_cast<std::uint64_t>(sim_.now()),
          static_cast<std::uint64_t>(sim_.pending_events()),
          sim_.events_processed(), sim_.stale_entries_skipped(),
          sim_.heap_compactions()}) {
      digest_ = fnv1a(digest_, v);
    }
  }

 private:
  struct Timer {
    sim::Simulator::TimerId id = 0;
    std::uint64_t left = 0;  // fires before it cancels itself; 0 = never
  };

  void record() {
    const common::ExecContext& x = common::exec_context();
    digest_ = fnv1a(digest_, x.actor_domain);
    digest_ = fnv1a(digest_, static_cast<std::uint64_t>(sim_.now()));
    digest_ = fnv1a(digest_, x.event_key);
  }

  // An event that, while hops remain, schedules one follow-up: in its own
  // domain or, on odd salts, in another domain (never the global one),
  // always at least one tick ahead.
  sim::Simulator::Callback follow(std::uint64_t hops, std::uint64_t salt) {
    return [this, hops, salt] {
      record();
      if (hops == 0) return;
      const std::uint64_t h = salt * 0x9e3779b97f4a7c15ull + hops;
      const sim::SimTime at = sim_.now() + kParityTick * (1 + (h >> 7) % 3);
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
  std::uint64_t digest_ = kFnvBasis;
  std::vector<sim::Simulator::EventId> events_;
  std::vector<std::unique_ptr<Timer>> timers_;
};

struct ScriptResult {
  std::uint64_t digest;
  std::uint64_t processed;
};

ScriptResult run_script(std::uint64_t seed) {
  ParityReplay r;
  for (const ParityStep& st : parity_script(seed)) r.mark(r.apply(st));
  r.cancel_all_timers();
  r.mark(r.sim().run());
  EXPECT_EQ(r.sim().pending_events(), 0u);
  return {r.digest(), r.sim().events_processed()};
}

TEST(EngineParityTest, GeneratedScriptsMatchRecordedDigests) {
  constexpr std::size_t kScripts = std::size(kScriptDigests);
  static_assert(kScripts == 200);
  std::uint64_t fired_total = 0;
  for (std::size_t s = 0; s < kScripts; ++s) {
    const ScriptResult got = run_script(s + 1);
    EXPECT_EQ(got.digest, kScriptDigests[s]) << "script seed " << s + 1;
    fired_total += got.processed;
  }
  // The scripts must actually run events, or agreement proves nothing.
  EXPECT_GT(fired_total, 10 * kScripts);
}

}  // namespace
