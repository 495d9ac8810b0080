// Micro-benchmarks for the compute-bound pieces of the library: the
// scaling hash, SK/EK mapping computation, matching, store maintenance
// and SHA-1. Timing is hand-rolled (steady_clock + auto-scaled
// iteration counts) so the bench shares the sweep runner and JSON
// output with the figure benches instead of pulling in an external
// benchmark framework.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cbps/common/sha1.hpp"
#include "cbps/metrics/histogram.hpp"
#include "cbps/pubsub/mapping.hpp"
#include "cbps/pubsub/store.hpp"
#include "cbps/workload/generator.hpp"
#include "sweep.hpp"

namespace {

using namespace cbps;

template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct MicroRow {
  double ns_per_op = 0;
  double ops_per_sec = 0;
  double items_per_sec = 0;  // ops/sec x per-op item count (0 if n/a)
  double ns_p50 = 0;         // chunk-level per-op cost distribution
  double ns_p99 = 0;
  std::uint64_t iterations = 0;
};

bench::JsonFields json_fields(const MicroRow& r) {
  return {{"ns_per_op", r.ns_per_op},
          {"ops_per_sec", r.ops_per_sec},
          {"items_per_sec", r.items_per_sec},
          {"ns_p50", r.ns_p50},
          {"ns_p99", r.ns_p99},
          {"iterations", static_cast<double>(r.iterations)}};
}

bench::JsonFields metrics_fields(const MicroRow& r) {
  return {{"ns_per_op", r.ns_per_op},
          {"ns_p50", r.ns_p50},
          {"ns_p99", r.ns_p99},
          {"ops_per_sec", r.ops_per_sec}};
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Runs `op` in ever-larger batches until a batch takes at least
// `min_time_s`, then reports per-op cost from that batch.
template <typename Op>
MicroRow time_op(Op&& op, double items_per_op = 0,
                 double min_time_s = 0.1) {
  op();  // warm-up (and first-call setup such as lazy allocations)
  std::uint64_t iters = 1;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) op();
    const double s =
        seconds_between(start, std::chrono::steady_clock::now());
    if (s >= min_time_s || iters >= (std::uint64_t{1} << 30)) {
      MicroRow r;
      r.iterations = iters;
      r.ns_per_op = s * 1e9 / static_cast<double>(iters);
      r.ops_per_sec = static_cast<double>(iters) / s;
      r.items_per_sec = r.ops_per_sec * items_per_op;
      // Distribution pass: re-run the same budget in chunks, recording
      // each chunk's per-op cost. (Timing single nanosecond-scale ops
      // would measure the clock, not the op — chunk-level percentiles
      // still expose allocator/cache jitter.)
      metrics::Histogram hist;
      const std::uint64_t chunks = iters < 32 ? iters : 32;
      const std::uint64_t per_chunk = iters / chunks;
      for (std::uint64_t c = 0; per_chunk > 0 && c < chunks; ++c) {
        const auto cs = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < per_chunk; ++i) op();
        const double chunk_s =
            seconds_between(cs, std::chrono::steady_clock::now());
        hist.add(chunk_s * 1e9 / static_cast<double>(per_chunk));
      }
      r.ns_p50 = hist.p50();
      r.ns_p99 = hist.p99();
      return r;
    }
    // Aim 40% past the threshold; cap the growth factor at 16x.
    std::uint64_t next = iters * 16;
    if (s > 0) {
      const double scaled = static_cast<double>(iters) * min_time_s * 1.4 / s;
      if (scaled < static_cast<double>(next)) {
        next = static_cast<std::uint64_t>(scaled) + 1;
      }
    }
    iters = next > iters ? next : iters + 1;
  }
}

// As time_op, but rebuilds fresh state before every timed call — for
// destructive operations such as the expiry sweep.
template <typename Setup, typename Op>
MicroRow time_op_with_setup(Setup&& setup, Op&& op,
                            double min_time_s = 0.1) {
  {
    auto state = setup();
    op(state);  // warm-up
  }
  double total = 0;
  std::uint64_t iters = 0;
  metrics::Histogram hist;  // here every op is individually timed
  while (total < min_time_s) {
    auto state = setup();
    const auto start = std::chrono::steady_clock::now();
    op(state);
    const double s = seconds_between(start, std::chrono::steady_clock::now());
    total += s;
    hist.add(s * 1e9);
    ++iters;
  }
  MicroRow r;
  r.iterations = iters;
  r.ns_per_op = total * 1e9 / static_cast<double>(iters);
  r.ops_per_sec = static_cast<double>(iters) / total;
  r.ns_p50 = hist.p50();
  r.ns_p99 = hist.p99();
  return r;
}

pubsub::Schema paper_schema() {
  return pubsub::Schema::uniform(4, 1'000'000);
}

constexpr pubsub::MappingKind kMappings[] = {
    pubsub::MappingKind::kAttributeSplit,
    pubsub::MappingKind::kKeySpaceSplit,
    pubsub::MappingKind::kSelectiveAttribute,
};

MicroRow run_subscription_keys(pubsub::MappingKind kind) {
  const auto schema = paper_schema();
  auto mapping = pubsub::make_mapping(kind, schema, RingParams{13});
  workload::WorkloadGenerator gen(schema, {}, 42);
  std::vector<pubsub::Subscription> subs;
  for (int i = 0; i < 256; ++i) {
    pubsub::Subscription s;
    s.id = static_cast<SubscriptionId>(i + 1);
    s.constraints = gen.make_constraints();
    subs.push_back(std::move(s));
  }
  std::size_t i = 0;
  return time_op([&] {
    do_not_optimize(mapping->subscription_keys(subs[i++ % subs.size()]));
  });
}

MicroRow run_event_keys(pubsub::MappingKind kind) {
  const auto schema = paper_schema();
  auto mapping = pubsub::make_mapping(kind, schema, RingParams{13});
  workload::WorkloadGenerator gen(schema, {}, 43);
  std::vector<pubsub::Event> events;
  for (int i = 0; i < 256; ++i) {
    pubsub::Event e;
    e.id = static_cast<EventId>(i + 1);
    e.values = gen.make_random_values();
    events.push_back(std::move(e));
  }
  std::size_t i = 0;
  return time_op([&] {
    do_not_optimize(mapping->event_keys(events[i++ % events.size()]));
  });
}

MicroRow run_match(std::size_t n_subs, bool counting_index) {
  const auto schema = paper_schema();
  workload::WorkloadGenerator gen(schema, {}, 44);
  pubsub::SubscriptionStore store;
  store.use_engine(counting_index ? pubsub::MatchEngine::kCountingIndex
                                  : pubsub::MatchEngine::kBruteForce,
                   schema);
  for (std::size_t i = 0; i < n_subs; ++i) {
    auto s = std::make_shared<pubsub::Subscription>();
    s->id = static_cast<SubscriptionId>(i + 1);
    s->constraints = gen.make_constraints();
    store.insert({std::move(s), sim::kSimTimeNever, {}, false});
  }
  pubsub::Event e;
  e.id = 1;
  return time_op(
      [&] {
        e.values = gen.make_random_values();
        do_not_optimize(store.match(e, 0));
      },
      static_cast<double>(n_subs));
}

MicroRow run_store_churn() {
  const auto schema = paper_schema();
  workload::WorkloadGenerator gen(schema, {}, 45);
  std::vector<pubsub::SubscriptionPtr> subs;
  for (int i = 0; i < 4096; ++i) {
    auto s = std::make_shared<pubsub::Subscription>();
    s->id = static_cast<SubscriptionId>(i + 1);
    s->constraints = gen.make_constraints();
    subs.push_back(std::move(s));
  }
  pubsub::SubscriptionStore store;
  std::size_t i = 0;
  return time_op([&] {
    const auto& s = subs[i % subs.size()];
    store.insert({s, sim::sec(i + 1), {}, false});
    if (i >= 1024) store.remove(subs[(i - 1024) % subs.size()]->id);
    ++i;
  });
}

MicroRow run_expiry_sweep() {
  const auto schema = paper_schema();
  workload::WorkloadGenerator gen(schema, {}, 46);
  std::vector<pubsub::SubscriptionPtr> subs;
  for (int i = 0; i < 1000; ++i) {
    auto s = std::make_shared<pubsub::Subscription>();
    s->id = static_cast<SubscriptionId>(i + 1);
    s->constraints = gen.make_constraints();
    subs.push_back(std::move(s));
  }
  return time_op_with_setup(
      [&] {
        // A store is not movable (its index reads records through it).
        auto store = std::make_unique<pubsub::SubscriptionStore>();
        for (std::size_t i = 0; i < subs.size(); ++i) {
          store->insert({subs[i], sim::sec(static_cast<std::uint64_t>(i)),
                         {}, false});
        }
        return store;
      },
      [](std::unique_ptr<pubsub::SubscriptionStore>& store) {
        do_not_optimize(store->sweep_expired(sim::sec(1000)));
      });
}

MicroRow run_sha1(std::size_t bytes) {
  const std::string data(bytes, 'x');
  MicroRow r = time_op([&] { do_not_optimize(cbps::Sha1::hash(data)); });
  r.items_per_sec = r.ops_per_sec * static_cast<double>(bytes);  // bytes/s
  return r;
}

MicroRow run_zipf() {
  Rng rng(47);
  ZipfSampler zipf(1'000'000, 1.0);
  return time_op([&] { do_not_optimize(zipf(rng)); });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep<MicroRow> sweep("micro_pubsub");
  if (!sweep.parse_args(argc, argv)) return 1;

  for (const auto kind : kMappings) {
    sweep.add("subscription_keys/" + std::string(pubsub::to_string(kind)),
              [kind] { return run_subscription_keys(kind); });
  }
  for (const auto kind : kMappings) {
    sweep.add("event_keys/" + std::string(pubsub::to_string(kind)),
              [kind] { return run_event_keys(kind); });
  }
  for (const std::size_t n : {100, 1000, 10000}) {
    sweep.add("match_store/" + std::to_string(n),
              [n] { return run_match(n, false); });
  }
  for (const std::size_t n : {100, 1000, 10000}) {
    sweep.add("match_counting_index/" + std::to_string(n),
              [n] { return run_match(n, true); });
  }
  sweep.add("store_insert_erase_churn", [] { return run_store_churn(); });
  sweep.add("expiry_sweep/1000", [] { return run_expiry_sweep(); });
  for (const std::size_t bytes : {64, 4096}) {
    sweep.add("sha1/" + std::to_string(bytes),
              [bytes] { return run_sha1(bytes); });
  }
  sweep.add("zipf_sample", [] { return run_zipf(); });

  std::puts("=== Micro-benchmarks: compute-bound pieces ===\n");
  std::printf("%-36s %12s %14s %14s\n", "benchmark", "ns/op", "ops/sec",
              "items/sec");
  sweep.run([&](std::size_t i, const MicroRow& r) {
    std::printf("%-36s %12.1f %14.0f", sweep.label(i).c_str(), r.ns_per_op,
                r.ops_per_sec);
    if (r.items_per_sec > 0) {
      std::printf(" %14.0f", r.items_per_sec);
    }
    std::puts("");
  });
  std::puts("\n(items/sec = subscriptions tested per second for the match");
  std::puts("benches, bytes per second for sha1)");
  return 0;
}
