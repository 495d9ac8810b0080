// Rendezvous matching at production scale: 10^5..10^7 subscriptions on
// one node, across the three match engines (brute force, counting
// index, counting + covering/merging).
//
// The workload models the redundancy real deployments have (Shi et al.,
// PAPERS.md): a Zipf-popular pool of template filters, with most
// subscriptions being exact copies, narrowed variants (covering prey),
// or one-attribute shifts (merging prey) of a template; the rest are
// fresh random filters. Reported per point: per-event match latency
// percentiles, stored-vs-logical subscription counts, covering/merging
// ratios, and the index's heap footprint — the metrics JSON carries the
// p99/stored/memory columns the ROADMAP's million-subscription item
// asks for.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cbps/common/flags.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/metrics/histogram.hpp"
#include "cbps/pubsub/store.hpp"
#include "cbps/workload/generator.hpp"
#include "sweep.hpp"

namespace {

using namespace cbps;

struct ScaleRow {
  double logical_subs = 0;       // subscriptions registered
  double stored_roots = 0;       // entries the index actually stores
  double covered_children = 0;   // held with zero index entries
  double umbrellas = 0;          // synthetic merged roots
  double covered_ratio = 0;      // covered_children / logical_subs
  double index_memory_bytes = 0; // per-node index heap footprint
  double build_s = 0;            // wall time to insert everything
  double inserts_per_sec = 0;
  double match_ns_mean = 0;      // per-event match cost distribution
  double match_ns_p50 = 0;
  double match_ns_p99 = 0;
  double match_ns_max = 0;
  double matches_per_event = 0;  // avg result-set size (sanity)
};

bench::JsonFields json_fields(const ScaleRow& r) {
  return {{"logical_subs", r.logical_subs},
          {"stored_roots", r.stored_roots},
          {"covered_children", r.covered_children},
          {"umbrellas", r.umbrellas},
          {"covered_ratio", r.covered_ratio},
          {"index_memory_bytes", r.index_memory_bytes},
          {"build_s", r.build_s},
          {"inserts_per_sec", r.inserts_per_sec},
          {"match_ns_mean", r.match_ns_mean},
          {"match_ns_p50", r.match_ns_p50},
          {"match_ns_p99", r.match_ns_p99},
          {"match_ns_max", r.match_ns_max},
          {"matches_per_event", r.matches_per_event}};
}

bench::JsonFields metrics_fields(const ScaleRow& r) {
  return {{"match_ns_p50", r.match_ns_p50},
          {"match_ns_p99", r.match_ns_p99},
          {"match_ns_max", r.match_ns_max},
          {"logical_subs", r.logical_subs},
          {"stored_roots", r.stored_roots},
          {"covered_ratio", r.covered_ratio},
          {"index_memory_bytes", r.index_memory_bytes}};
}

struct ScaleParams {
  std::size_t subscriptions = 0;
  pubsub::MatchEngine engine = pubsub::MatchEngine::kBruteForce;
  std::size_t events = 1000;
  double dup_frac = 0.7;     // share of subs derived from a template
  double template_frac = 0.01;  // template pool size / subscriptions
  std::uint64_t seed = 1;
};

// Derive a subscription from a template: exact copy (covered), a
// narrowed variant (covered), or a one-attribute shift (mergeable).
std::vector<pubsub::Constraint> derive(
    const std::vector<pubsub::Constraint>& tmpl, Rng& rng,
    const pubsub::Schema& schema) {
  std::vector<pubsub::Constraint> cs = tmpl;
  const double kind = rng.uniform01();
  if (kind < 0.5 || cs.empty()) return cs;  // exact duplicate
  auto& c = cs[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(cs.size()) - 1))];
  const ClosedInterval dom = schema.domain(c.attribute);
  const auto w = static_cast<std::int64_t>(c.range.width());
  if (kind < 0.75) {
    // Narrow: stays inside the template interval.
    const Value lo = c.range.lo + rng.uniform_int(0, w / 4);
    const Value hi = c.range.hi - rng.uniform_int(0, w / 4);
    c.range = {std::min(lo, hi), std::max(lo, hi)};
  } else {
    // Shift by up to one width: overlapping or slightly disjoint, the
    // case covering misses and merging collects.
    const std::int64_t delta = rng.uniform_int(-w, w);
    Value lo = c.range.lo + delta;
    Value hi = c.range.hi + delta;
    lo = std::max(dom.lo, std::min(lo, dom.hi));
    hi = std::max(lo, std::min(hi, dom.hi));
    c.range = {lo, hi};
  }
  return cs;
}

ScaleRow run_point(const ScaleParams& p) {
  const pubsub::Schema schema = pubsub::Schema::uniform(4, 1'000'000);
  workload::WorkloadParams wp;
  workload::WorkloadGenerator gen(schema, wp, p.seed);
  Rng& rng = gen.rng();

  const std::size_t n_templates = std::max<std::size_t>(
      16, static_cast<std::size_t>(
              static_cast<double>(p.subscriptions) * p.template_frac));
  std::vector<std::vector<pubsub::Constraint>> templates;
  templates.reserve(n_templates);
  for (std::size_t i = 0; i < n_templates; ++i) {
    templates.push_back(gen.make_constraints());
  }
  const ZipfSampler zipf(n_templates, 0.8);

  pubsub::SubscriptionStore store;
  store.use_engine(p.engine, schema);

  std::vector<pubsub::SubscriptionPtr> subs;
  subs.reserve(p.subscriptions);
  const auto build_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < p.subscriptions; ++i) {
    auto s = std::make_shared<pubsub::Subscription>();
    s->id = static_cast<SubscriptionId>(i + 1);
    s->subscriber = static_cast<Key>(i % 4096);
    if (rng.bernoulli(p.dup_frac)) {
      const std::size_t t =
          static_cast<std::size_t>(zipf(rng)) % n_templates;
      s->constraints = derive(templates[t], rng, schema);
    } else {
      s->constraints = gen.make_constraints();
    }
    store.insert({s, sim::kSimTimeNever, {}, false});
    subs.push_back(std::move(s));
  }
  {
    // The counting index registers bucket entries at the first match;
    // one match of a fixed event keeps that work inside build_s.
    pubsub::Event first;
    for (std::size_t a = 0; a < schema.dimensions(); ++a) {
      first.values.push_back(schema.domain(a).lo);
    }
    (void)store.match(first, /*now=*/1);
  }
  const double build_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - build_start)
                             .count();

  metrics::Histogram lat;
  std::uint64_t total_matches = 0;
  for (std::size_t i = 0; i < p.events; ++i) {
    pubsub::Event e;
    e.id = static_cast<EventId>(i + 1);
    e.values = gen.make_event_values(subs);
    const auto t0 = std::chrono::steady_clock::now();
    const auto matched = store.match(e, /*now=*/1);
    const auto t1 = std::chrono::steady_clock::now();
    lat.add(std::chrono::duration<double, std::nano>(t1 - t0).count());
    total_matches += matched.size();
  }

  ScaleRow r;
  r.logical_subs = static_cast<double>(p.subscriptions);
  r.build_s = build_s;
  r.inserts_per_sec =
      build_s > 0 ? static_cast<double>(p.subscriptions) / build_s : 0;
  r.match_ns_mean = lat.mean();
  r.match_ns_p50 = lat.p50();
  r.match_ns_p99 = lat.p99();
  r.match_ns_max = lat.max();
  r.matches_per_event =
      p.events > 0
          ? static_cast<double>(total_matches) / static_cast<double>(p.events)
          : 0;
  if (const auto* cov = store.covering_index()) {
    r.stored_roots = static_cast<double>(cov->stored_roots());
    r.covered_children = static_cast<double>(cov->covered_children());
    r.umbrellas = static_cast<double>(cov->umbrella_count());
    r.covered_ratio =
        r.logical_subs > 0 ? r.covered_children / r.logical_subs : 0;
  } else {
    r.stored_roots = static_cast<double>(store.size());
  }
  r.index_memory_bytes = static_cast<double>(store.index_memory_bytes());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t jobs = 0;
  std::int64_t max_subs = 1'000'000;
  std::int64_t brute_max = 1'000'000;
  std::int64_t events = 1000;
  double dup_frac = 0.7;
  std::string json_path;
  std::string metrics_json_path;
  FlagParser parser(
      "match_scale — rendezvous matching at 10^5..10^7 subscriptions\n"
      "across the brute/counting/covering engines (one store per point).");
  parser.add("jobs", "worker threads (0 = all hardware threads)", &jobs);
  parser.add("max-subs",
             "largest sweep point (points are decades from 1e5 up; pass "
             "10000000 for the 10^7 point)",
             &max_subs);
  parser.add("brute-max",
             "skip brute-force points above this many subscriptions",
             &brute_max);
  parser.add("events", "match trials per point", &events);
  parser.add("dup-frac",
             "fraction of subscriptions derived from a popular template",
             &dup_frac);
  parser.add("json", "dump per-point timings+metrics to this file",
             &json_path);
  parser.add("metrics-json",
             "dump per-point latency/memory metrics to this file",
             &metrics_json_path);
  if (!parser.parse(argc, argv, std::cout, std::cerr)) return 1;

  bench::Sweep<ScaleRow> sweep("match_scale");
  bench::SweepOptions opts;
  opts.jobs = static_cast<std::size_t>(jobs < 0 ? 0 : jobs);
  opts.json_path = json_path;
  opts.metrics_json_path = metrics_json_path;
  sweep.set_options(opts);

  constexpr pubsub::MatchEngine kEngines[] = {
      pubsub::MatchEngine::kBruteForce,
      pubsub::MatchEngine::kCountingIndex,
      pubsub::MatchEngine::kCoveringIndex,
  };
  for (std::int64_t n = 100'000; n <= max_subs; n *= 10) {
    for (const auto engine : kEngines) {
      if (engine == pubsub::MatchEngine::kBruteForce && n > brute_max) {
        continue;
      }
      ScaleParams p;
      p.subscriptions = static_cast<std::size_t>(n);
      p.engine = engine;
      p.events = static_cast<std::size_t>(events);
      p.dup_frac = dup_frac;
      sweep.add(std::string(pubsub::to_string(engine)) + "/" +
                    std::to_string(n),
                [p] { return run_point(p); });
    }
  }

  std::puts("=== match_scale: per-node matching at scale ===\n");
  std::printf("%-20s %12s %12s %12s %10s %8s %12s\n", "engine/subs",
              "p50 us", "p99 us", "stored", "covered%", "umbr",
              "index MiB");
  sweep.run([&](std::size_t i, const ScaleRow& r) {
    std::printf("%-20s %12.1f %12.1f %12.0f %10.1f %8.0f %12.1f\n",
                sweep.label(i).c_str(), r.match_ns_p50 / 1e3,
                r.match_ns_p99 / 1e3, r.stored_roots,
                100.0 * r.covered_ratio, r.umbrellas,
                r.index_memory_bytes / (1024.0 * 1024.0));
  });
  std::puts("\n(stored = index-resident roots; covered% = subscriptions");
  std::puts("held as covered/merged children with zero index entries)");
  return 0;
}
