// Tests for the observability layer: the log-linear histogram, the
// metrics registry's cached handles, causal-trace
// integrity (parents exist and precede children; publish traces
// terminate consistently with the DeliveryChecker oracle; traces are
// bit-identical across sweep worker counts), the time-series sampler,
// and the logger's sim-time/node context.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <random>
#include <string>
#include <vector>

#include "cbps/common/logging.hpp"
#include "cbps/metrics/histogram.hpp"
#include "cbps/metrics/registry.hpp"
#include "cbps/metrics/timeseries.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/generator.hpp"
#include "harness.hpp"
#include "sweep.hpp"

namespace cbps {
namespace {

using metrics::Histogram;
using metrics::Span;
using metrics::SpanKind;
using metrics::TraceRef;
using metrics::TraceSink;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, PercentilesBracketUniformRange) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Relative quantization error is bounded by 1/kSubBuckets.
  const double tol = 1.0 / Histogram::kSubBuckets;
  EXPECT_NEAR(h.p50(), 500.0, 500.0 * tol);
  EXPECT_NEAR(h.p90(), 900.0, 900.0 * tol);
  EXPECT_NEAR(h.p99(), 990.0, 990.0 * tol);
  EXPECT_LE(h.percentile(100.0), h.max());
  EXPECT_GE(h.percentile(0.0), h.min());
}

TEST(HistogramTest, MergeMatchesCombinedAdds) {
  Histogram a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double v = 0.001 * static_cast<double>(i * i + 1);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_EQ(a.buckets(), all.buckets());
  EXPECT_DOUBLE_EQ(a.p99(), all.p99());
}

TEST(HistogramTest, OrderIndependentAndDeterministic) {
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(1e-6 * static_cast<double>((i * 7919) % 100000 + 1));
  }
  Histogram forward, backward;
  for (double v : values) forward.add(v);
  std::reverse(values.begin(), values.end());
  for (double v : values) backward.add(v);
  EXPECT_EQ(forward.buckets(), backward.buckets());
  EXPECT_DOUBLE_EQ(forward.p50(), backward.p50());
}

TEST(HistogramTest, ClampsExtremesAndCountsZeros) {
  Histogram h;
  h.add(0.0);
  h.add(-5.0);
  h.add(1e300);   // far beyond 2^kMaxExp: clamps into the top bucket
  h.add(1e-300);  // far below 2^(kMinExp-1): clamps into the bottom octave
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);  // zero and negative share bucket 0
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.add(3.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

// bucket_index reads the exponent and top fraction bits straight from
// the double; this is the frexp formulation it replaced, kept as the
// reference. Both must agree on every positive finite value: random bit
// patterns over the whole exponent range (subnormals and the clamped
// edges included), the integers the hot-path histograms record, and
// every bucket's bounds.
std::size_t frexp_bucket_index(double v) {
  if (!(v > 0.0)) return 0;
  int exp = 0;
  double m = std::frexp(v, &exp);
  if (exp < Histogram::kMinExp) {
    exp = Histogram::kMinExp;
    m = 0.5;
  } else if (exp > Histogram::kMaxExp) {
    exp = Histogram::kMaxExp;
    m = 1.0 - 1.0 / (2 * Histogram::kSubBuckets);
  }
  auto sub = static_cast<int>((m - 0.5) * (2 * Histogram::kSubBuckets));
  if (sub < 0) sub = 0;
  if (sub >= Histogram::kSubBuckets) sub = Histogram::kSubBuckets - 1;
  return static_cast<std::size_t>(exp - Histogram::kMinExp) *
             Histogram::kSubBuckets +
         static_cast<std::size_t>(sub) + 1;
}

TEST(HistogramTest, BucketIndexMatchesFrexpDecomposition) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 200'000; ++i) {
    // Any finite double: a random sign-cleared bit pattern below inf.
    const std::uint64_t bits = rng() % 0x7ff0000000000000ull;
    const double v = std::bit_cast<double>(bits);
    ASSERT_EQ(Histogram::bucket_index(v), frexp_bucket_index(v)) << v;
  }
  for (std::uint64_t n = 0; n < 100'000; ++n) {
    const auto v = static_cast<double>(n);
    ASSERT_EQ(Histogram::bucket_index(v), frexp_bucket_index(v)) << v;
  }
  for (std::size_t b = 1; b < Histogram::kBucketCount; ++b) {
    const double mid = Histogram::bucket_mid(b);
    for (const double v : {mid, std::nextafter(mid, 0.0),
                           std::nextafter(mid, 1e300), mid * 0.999,
                           mid * 1.001}) {
      ASSERT_EQ(Histogram::bucket_index(v), frexp_bucket_index(v)) << v;
    }
  }
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBucketCount - 1);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, HandlesStayValidAcrossInsertions) {
  metrics::Registry reg;
  metrics::Counter* c = reg.counter_handle("alpha");
  metrics::Histogram* h = reg.histogram_handle("beta");
  c->inc(3);
  h->add(1.0);
  // Force rebalancing pressure on the underlying maps.
  for (int i = 0; i < 100; ++i) {
    reg.counter("extra." + std::to_string(i)).inc();
  }
  EXPECT_EQ(c, reg.counter_handle("alpha"));
  EXPECT_EQ(h, reg.histogram_handle("beta"));
  EXPECT_EQ(c->value(), 3u);
  c->inc();
  h->add(2.0);
  EXPECT_EQ(reg.counter_value("alpha"), 4u);
  EXPECT_EQ(reg.histogram("beta").count(), 2u);  // the handle still aliases
}

TEST(RegistryTest, CounterValueDoesNotCreate) {
  metrics::Registry reg;
  EXPECT_EQ(reg.counter_value("never.touched"), 0u);
  EXPECT_TRUE(reg.counters().empty());
}

// ---------------------------------------------------------------------------
// TraceSink unit behavior
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, CreditSamplingIsDeterministic) {
  // Rate 0.5 accrues half a credit per root: every second root samples,
  // with no RNG draw anywhere (sampling must not perturb the sim).
  TraceSink sink(0.5);
  std::vector<bool> pattern;
  for (int i = 0; i < 10; ++i) pattern.push_back(sink.maybe_start_trace() != 0);
  const std::vector<bool> expect = {false, true, false, true, false,
                                    true,  false, true, false, true};
  EXPECT_EQ(pattern, expect);
  EXPECT_EQ(sink.traces_started(), 5u);

  TraceSink full(1.0);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(full.maybe_start_trace(), i);  // rate 1: every root, ids dense
  }
}

TEST(TraceSinkTest, UnsampledEmitIsNoop) {
  TraceSink sink(1.0);
  EXPECT_EQ(sink.emit(TraceRef{}, SpanKind::kPublish, 1, 0, 0), 0u);
  EXPECT_TRUE(sink.spans().empty());
}

TEST(TraceSinkTest, ExportsOneJsonlLinePerSpan) {
  TraceSink sink(1.0);
  const std::uint64_t t = sink.maybe_start_trace();
  ASSERT_NE(t, 0u);
  TraceRef ref{t, 0};
  ref.parent_span = sink.emit(ref, SpanKind::kPublish, 7, 10, 10, 1, 2);
  sink.emit(ref, SpanKind::kRouteHop, 8, 20, 25);
  std::ostringstream jsonl, chrome;
  sink.write_jsonl(jsonl);
  sink.write_chrome_trace(chrome);
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(jsonl.str());
  while (std::getline(in, line)) lines += !line.empty();
  EXPECT_EQ(lines, sink.spans().size());
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.str().find("\"route-hop\""), std::string::npos);
}

TEST(TraceSinkTest, CapsSpansAndCountsDrops) {
  TraceSink sink(1.0);
  sink.set_max_spans(3);
  const TraceRef ref{sink.maybe_start_trace(), 0};
  for (int i = 0; i < 10; ++i) {
    sink.emit(ref, SpanKind::kRouteHop, 1, static_cast<std::uint64_t>(i),
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(sink.spans().size(), 3u);
  EXPECT_EQ(sink.spans_dropped(), 7u);
}

// ---------------------------------------------------------------------------
// Trace integrity against a live system
// ---------------------------------------------------------------------------

struct TracedRun {
  std::vector<Span> spans;
  pubsub::DeliveryChecker::Report report;
  std::uint64_t notifications = 0;
  std::size_t timeseries_rows = 0;
};

TracedRun run_traced(std::uint64_t seed,
                     pubsub::PubSubConfig::Transport transport) {
  pubsub::SystemConfig cfg;
  cfg.nodes = 32;
  cfg.seed = seed;
  cfg.chord.ring = RingParams{10};
  cfg.trace_sample_rate = 1.0;
  cfg.pubsub.sub_transport = transport;
  cfg.pubsub.pub_transport = transport;
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(4, 1'000'000));

  pubsub::DeliveryChecker checker;
  workload::WorkloadGenerator gen(system.schema(), {}, seed * 13 + 1);
  workload::DriverParams dp;
  dp.max_subscriptions = 40;
  dp.max_publications = 60;
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();

  system.start_sampler(sim::sec(5));
  while (!driver.finished()) system.run_for(sim::sec(60));
  system.stop_sampler();
  system.quiesce();

  TracedRun out;
  out.spans = system.trace_sink()->spans();
  out.report = checker.verify();
  out.notifications = system.notifications_delivered();
  out.timeseries_rows = system.timeseries().size();
  return out;
}

TEST(TraceIntegrityTest, ParentsExistAndStartNoLaterThanChildren) {
  const TracedRun run = run_traced(11, pubsub::PubSubConfig::Transport::kMulticast);
  ASSERT_FALSE(run.spans.empty());
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : run.spans) by_id[s.span_id] = &s;
  for (const Span& s : run.spans) {
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_LE(s.start_us, s.end_us);
    if (s.parent_span == 0) continue;
    const auto it = by_id.find(s.parent_span);
    ASSERT_NE(it, by_id.end())
        << "span " << s.span_id << " (" << metrics::to_string(s.kind)
        << ") references missing parent " << s.parent_span;
    EXPECT_EQ(it->second->trace_id, s.trace_id);
    EXPECT_LE(it->second->start_us, s.start_us)
        << "parent " << s.parent_span << " starts after child " << s.span_id;
  }
}

TEST(TraceIntegrityTest, PublishTracesTerminateMatchingOracle) {
  for (const auto transport : {pubsub::PubSubConfig::Transport::kUnicast,
                               pubsub::PubSubConfig::Transport::kMulticast}) {
    const TracedRun run = run_traced(23, transport);
    EXPECT_TRUE(run.report.ok()) << "oracle: missing=" << run.report.missing
                                 << " spurious=" << run.report.spurious;
    // Full sampling: one deliver span per notification surfaced.
    std::uint64_t delivers = 0;
    std::map<std::uint64_t, std::map<std::string, int>> kinds_by_trace;
    for (const Span& s : run.spans) {
      delivers += s.kind == SpanKind::kDeliver;
      ++kinds_by_trace[s.trace_id][metrics::to_string(s.kind)];
    }
    EXPECT_EQ(delivers, run.notifications);
    // Every publish trace that routed a notification toward a subscriber
    // terminates in a deliver or a drop (nothing vanishes untraced).
    for (const auto& [trace_id, kinds] : kinds_by_trace) {
      if (!kinds.count("publish")) continue;
      const int routed = (kinds.count("notify") ? kinds.at("notify") : 0) +
                         (kinds.count("buffer") ? kinds.at("buffer") : 0) +
                         (kinds.count("collect") ? kinds.at("collect") : 0);
      const int done = (kinds.count("deliver") ? kinds.at("deliver") : 0) +
                       (kinds.count("drop") ? kinds.at("drop") : 0);
      if (routed > 0) {
        EXPECT_GT(done, 0) << "trace " << trace_id
                           << " routed notifications but never terminated";
      }
    }
  }
}

TEST(TraceIntegrityTest, SamplerRecordsRowsWithFullArity) {
  const TracedRun run = run_traced(31, pubsub::PubSubConfig::Transport::kUnicast);
  EXPECT_GT(run.timeseries_rows, 0u);
}

// The sweep runner hands each worker its own system (and thus its own
// TraceSink); the serialized trace of any sweep point must not depend on
// how many workers ran the sweep.
TEST(TraceIntegrityTest, TracesBitIdenticalAcrossSweepJobs) {
  const std::string dir = ::testing::TempDir();
  const auto trace_file = [&](std::size_t jobs, std::uint64_t seed) {
    return dir + "metrics_test_jobs" + std::to_string(jobs) + "_seed" +
           std::to_string(seed) + ".jsonl";
  };
  const auto run_jobs = [&](std::size_t jobs) {
    bench::Sweep<> sweep("metrics_test");
    bench::SweepOptions opts;
    opts.jobs = jobs;
    sweep.set_options(opts);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      bench::ExperimentConfig cfg;
      cfg.nodes = 32;
      cfg.ring_bits = 10;
      cfg.seed = seed;
      cfg.subscriptions = 25;
      cfg.publications = 25;
      cfg.trace_sample_rate = 1.0;
      cfg.trace_path = trace_file(jobs, seed);
      sweep.add("seed=" + std::to_string(seed), cfg);
    }
    sweep.run();
  };
  run_jobs(1);
  run_jobs(2);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::ifstream a(trace_file(1, seed), std::ios::binary);
    std::ifstream b(trace_file(2, seed), std::ios::binary);
    ASSERT_TRUE(a.good());
    ASSERT_TRUE(b.good());
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_FALSE(sa.str().empty());
    EXPECT_EQ(sa.str(), sb.str()) << "trace for seed " << seed
                                  << " differs between --jobs 1 and 2";
    std::remove(trace_file(1, seed).c_str());
    std::remove(trace_file(2, seed).c_str());
  }
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, AppendAndExport) {
  metrics::TimeSeries ts({"a", "b"});  // t_s is implicit, prepended on export
  ts.append(1'000'000, {1.0, 2.0});
  ts.append(2'000'000, {3.0, 4.5});
  EXPECT_EQ(ts.size(), 2u);
  std::ostringstream json;
  ts.write_json(json);
  EXPECT_EQ(json.str().rfind("{\"columns\":[\"t_s\",\"a\",\"b\"]", 0), 0u);
  EXPECT_NE(json.str().find("\"rows\""), std::string::npos);
  EXPECT_NE(json.str().find("4.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logger context
// ---------------------------------------------------------------------------

TEST(LoggerContextTest, ScopedGuardsPrefixSimTimeAndNode) {
  static constexpr std::uint64_t kNowUs = 1'500'000;
  const auto now_fn = [](const void*) -> std::uint64_t { return kNowUs; };
  ::testing::internal::CaptureStderr();
  {
    logctx::ScopedClock clock(nullptr, +now_fn);
    logctx::ScopedNode node(42);
    CBPS_LOG_WARN << "prefixed line";
  }
  CBPS_LOG_WARN << "bare line";
  std::istringstream err(::testing::internal::GetCapturedStderr());
  std::vector<std::string> lines;
  for (std::string line; std::getline(err, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  const std::string& prefixed = lines[0];
  const std::string& bare = lines[1];
  EXPECT_NE(prefixed.find("[t=1.500000s]"), std::string::npos);
  EXPECT_NE(prefixed.find("[n=42]"), std::string::npos);
  EXPECT_NE(prefixed.find("prefixed line"), std::string::npos);
  // Guards restore the previous (empty) context on scope exit.
  EXPECT_EQ(bare, "[WARN ] bare line");
}

}  // namespace
}  // namespace cbps
