// cbpsbench: replay one generated workload through PubSubSystem and print
// the end-to-end metrics (or, with --trace 1, the per-layer metrics).
//
//   cbpsbench --workload publish_m3_unicast --seed 1 --seconds 10 --trace 0
//
// A run generates the workload from the seed (untimed), replays it once
// with the delivery oracle attached (untimed; the oracle's verdict is the
// run's correctness), then replays it again and again until --seconds of
// host time have passed. Host metrics are medians over those timed
// replays; every simulated count must repeat exactly across all replays.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 correct, 1 bad usage or refused build, 3 incorrect.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cbps/common/logging.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "workload.hpp"

namespace {

using namespace cbpsbench;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string spans_out;  // traced run: where the span JSONL goes
  std::string commit = "unknown";
};

void usage() {
  std::fprintf(stderr,
               "usage: cbpsbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--scale F] [--spans-out PATH] [--commit SHA]\n"
               "workloads:");
  for (const auto name : workload_names()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = val == "1";
      if (val != "0" && val != "1") return false;
    } else if (arg == "--scale") {
      o.scale = std::strtod(val.c_str(), &end);
    } else if (arg == "--spans-out") {
      o.spans_out = val;
    } else if (arg == "--commit") {
      o.commit = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !o.workload.empty() && o.seconds > 0 && o.scale > 0;
}

/// Quantile q of v, linearly interpolated between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Host times are summarised by their lower quartile: interference from
/// other processes only ever slows a replay down, so the faster quarter
/// of the replays tracks the code rather than the neighbours.
double host_time(const std::vector<double>& v) { return quantile(v, 0.25); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Debug and sanitizer builds are refused: their timings are meaningless.
bool build_is_timable() {
#if defined(NDEBUG) && !CBPSBENCH_SANITIZED && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  return std::strcmp(CBPSBENCH_BUILD_TYPE, "Debug") != 0;
#else
  return false;
#endif
}

void print_fingerprint(const Options& o) {
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
  std::printf(
      "host: nproc=%u compiler=%s-%s build_type=%s sanitized=%d ndebug=%d "
      "commit=%s\n",
      std::thread::hardware_concurrency(), compiler, __VERSION__,
      CBPSBENCH_BUILD_TYPE, CBPSBENCH_SANITIZED,
#ifdef NDEBUG
      1,
#else
      0,
#endif
      o.commit.c_str());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 1;
  }
  print_fingerprint(opt);
  if (!build_is_timable()) {
    std::fprintf(stderr,
                 "cbpsbench: refusing to time a Debug or sanitizer build\n");
    return 1;
  }
  // Fault runs log every dropped route; the oracle is the judge here.
  cbps::Logger::instance().set_level(cbps::LogLevel::kError);

  // --- inputs, before any clock ----------------------------------------------
  const auto gen_start = Clock::now();
  const auto workload = make_workload(opt.workload, opt.seed, opt.scale);
  if (!workload) {
    usage();
    return 1;
  }
  const Workload& w = *workload;
  const double gen_s =
      std::chrono::duration<double>(Clock::now() - gen_start).count();
  std::printf("workload: %s seed=%llu scale=%g nodes=%zu subscriptions=%zu "
              "publications=%zu faults=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              opt.scale, w.system.nodes, w.subscriptions, w.publications,
              w.faults.empty() ? "none" : "ge_loss+crash_burst");

  // --- replay 0: the oracle run (untimed) -------------------------------------
  cbps::pubsub::DeliveryChecker checker;
  std::unique_ptr<cbps::pubsub::PubSubSystem> kept;
  const RepResult first =
      run_rep(w, &checker, nullptr, opt.trace ? &kept : nullptr);
  const auto whole = checker.verify(w.grace);
  const auto judged =
      w.judged_after == 0 ? whole : checker.verify(w.grace, w.judged_after);
  const std::uint64_t whole_bad = whole.missing + whole.duplicates +
                                  whole.spurious + whole.wrong_subscriber;
  const std::uint64_t judged_bad = judged.missing + judged.duplicates +
                                   judged.spurious + judged.wrong_subscriber;
  bool correct = judged.ok() && judged.expected > 0;
  std::printf("oracle: expected=%llu delivered=%llu missing=%llu "
              "duplicates=%llu spurious=%llu wrong_subscriber=%llu "
              "(judged from t=%.0fs: expected=%llu failures=%llu) %s\n",
              static_cast<unsigned long long>(whole.expected),
              static_cast<unsigned long long>(whole.delivered),
              static_cast<unsigned long long>(whole.missing),
              static_cast<unsigned long long>(whole.duplicates),
              static_cast<unsigned long long>(whole.spurious),
              static_cast<unsigned long long>(whole.wrong_subscriber),
              cbps::sim::to_seconds(w.judged_after),
              static_cast<unsigned long long>(judged.expected),
              static_cast<unsigned long long>(judged_bad),
              correct ? "OK" : "FAILED");
  for (const std::string& issue : judged.issues) {
    std::printf("oracle issue: %s\n", issue.c_str());
  }

  // The system's high-water mark, before the reference kernel adds its own.
  const double peak_rss = peak_rss_mb();

  SimCounts layers;
  if (kept) {
    layers = time_layers(w, *kept);
    kept.reset();
  }

  // --- timed replays ------------------------------------------------------------
  // With --trace 1, untraced and traced replays alternate so both see the
  // same machine state; the untraced ones alone give the host metrics.
  // Host times are kept raw and scaled by the host-speed reference timed
  // around each replay (see reference.hpp); the end-to-end host metrics
  // use the scaled ones.
  std::vector<double> setup_s, replay_s, traced_replay_s;
  std::vector<double> scaled_setup_s, scaled_replay_s;
  std::vector<double> drain_self_s, subscribe_s, publish_s;
  reference_kernel_s();  // builds the kernel's data
  std::vector<double> reference_s{reference_kernel_s()};
  SpanRecorder last_spans;
  std::size_t reps = 1;
  const double ops = static_cast<double>(w.ops.size());
  const auto timed_start = Clock::now();
  const std::size_t min_reps = opt.trace ? 6 : 3;
  for (std::size_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - timed_start).count();
    if (i >= min_reps && elapsed >= opt.seconds) break;
    const bool traced = opt.trace && i % 2 == 1;
    SpanRecorder spans;
    const RepResult r = run_rep(w, nullptr, traced ? &spans : nullptr);
    ++reps;
    if (r.sim != first.sim) {
      correct = false;
      for (std::size_t k = 0; k < r.sim.size(); ++k) {
        if (r.sim[k] != first.sim[k]) {
          std::printf("nondeterminism: %s = %.17g on replay %zu, %.17g on "
                      "the oracle replay\n",
                      r.sim[k].first.c_str(), r.sim[k].second, i + 1,
                      first.sim[k].second);
        }
      }
    }
    // Set-up takes milliseconds; sampling it between replays spreads the
    // samples over the whole run, like the replays themselves.
    const std::vector<double> setups = time_setup(w, 5);
    reference_s.push_back(reference_kernel_s());
    const double speed =
        kReferenceSeconds /
        (0.5 * (reference_s.end()[-2] + reference_s.end()[-1]));
    for (const double t : setups) {
      setup_s.push_back(t);
      scaled_setup_s.push_back(t * speed);
    }
    if (traced) {
      traced_replay_s.push_back(r.replay_s);
      const auto d = static_cast<std::size_t>(SpanName::kDrain);
      const auto s = static_cast<std::size_t>(SpanName::kSubscribe);
      const auto p = static_cast<std::size_t>(SpanName::kPublish);
      drain_self_s.push_back(r.spans.self_s[d]);
      subscribe_s.push_back(r.spans.total_s[s]);
      publish_s.push_back(r.spans.total_s[p]);
      last_spans = std::move(spans);
    } else {
      replay_s.push_back(r.replay_s);
      scaled_replay_s.push_back(r.replay_s * speed);
    }
  }

  const SimCounts& sim = first.sim;
  const auto v = [&sim](const char* name) { return sim_value(sim, name); };
  const double subs = v("subscriptions");
  const double pubs = v("publications");
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"ops_per_s", ops / host_time(scaled_replay_s), "1/s"},
        {"setup_s", host_time(scaled_setup_s), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"hops_per_sub", ratio(v("hops.subscribe"), subs), "hops"},
        {"hops_per_pub", ratio(v("hops.publish"), pubs), "hops"},
        {"hops_per_notif", ratio(v("hops.notify"), v("notifications")), "hops"},
        {"control_hops_per_op", ratio(v("hops.control"), subs + pubs), "hops"},
        {"wire_bytes_per_op", ratio(v("bytes.total"), subs + pubs), "bytes"},
        {"max_subs_per_node", v("max_subs_per_node"), "subs"},
        {"notify_delay_p50_s", v("delay.p50_s"), "sim_s"},
        {"notify_delay_p99_s", v("delay.p99_s"), "sim_s"},
        // Delivered pairs over expected pairs plus every extra delivery:
        // 1.0 is perfect, never 0 while anything is delivered.
        {"delivery_ratio",
         ratio(static_cast<double>(whole.expected - whole.missing),
               static_cast<double>(whole.expected + whole.duplicates +
                                   whole.spurious + whole.wrong_subscriber)),
         "ratio"},
    };
  } else {
    const double drain_s = host_time(drain_self_s);
    const auto layer = [&layers](const char* name) {
      return sim_value(layers, name);
    };
    metrics = {
        {"sim.events", v("sim.events"), "count"},
        {"sim.events_per_s", ratio(v("sim.events"), drain_s), "1/s"},
        {"sim.stale_skipped", v("sim.stale_skipped"), "count"},
        {"sim.heap_compactions", v("sim.heap_compactions"), "count"},
        {"sim.drain_s", drain_s, "s"},
        {"chord.hops.subscribe", v("hops.subscribe"), "count"},
        {"chord.hops.publish", v("hops.publish"), "count"},
        {"chord.hops.notify", v("hops.notify"), "count"},
        {"chord.hops.control", v("hops.control"), "count"},
        {"chord.bytes.subscribe", v("bytes.subscribe"), "bytes"},
        {"chord.bytes.publish", v("bytes.publish"), "bytes"},
        {"chord.bytes.notify", v("bytes.notify"), "bytes"},
        {"chord.bytes.control", v("bytes.control"), "bytes"},
        {"chord.route_hops_p99", v("chord.route_hops_p99"), "hops"},
        {"chord.location_cache.find_owner_ns",
         layer("chord.location_cache.find_owner_ns"), "ns"},
        {"chord.retransmits", v("chord.retransmits"), "count"},
        {"chord.send_failed", v("chord.send_failed"), "count"},
        {"chord.net.lost", v("chord.net.lost"), "count"},
        {"chord.route_dropped", v("chord.route_dropped"), "count"},
        {"chord.dup_suppressed", v("chord.dup_suppressed"), "count"},
        {"overlay.mcast_partition_ns", layer("overlay.mcast_partition_ns"),
         "ns"},
        {"chord.mcast_fanout_p99", v("chord.mcast_fanout_p99"), "count"},
        {"pubsub.subscribe_call_s", host_time(subscribe_s), "s"},
        {"pubsub.sk_keys_per_sub", layer("pubsub.sk_keys_per_sub"), "count"},
        {"pubsub.mapping.sk_ns", layer("pubsub.mapping.sk_ns"), "ns"},
        {"pubsub.stored_records", v("pubsub.stored_records"), "count"},
        {"pubsub.store.insert_ns", layer("pubsub.store.insert_ns"), "ns"},
        {"pubsub.publish_call_s", host_time(publish_s), "s"},
        {"pubsub.ek_keys_per_pub", layer("pubsub.ek_keys_per_pub"), "count"},
        {"pubsub.mapping.ek_ns", layer("pubsub.mapping.ek_ns"), "ns"},
        {"pubsub.match_calls", v("pubsub.match_calls"), "count"},
        {"pubsub.match_units_per_call",
         ratio(v("pubsub.match_units"), v("pubsub.match_calls")), "count"},
        {"pubsub.store.match_ns", layer("pubsub.store.match_ns"), "ns"},
        {"metrics.topk_offers", v("metrics.topk_offers"), "count"},
        {"metrics.topk_offer_ns", layer("metrics.topk_offer_ns"), "ns"},
        {"metrics.histogram_samples", v("metrics.histogram_samples"),
         "count"},
        {"bench.gen_s", gen_s, "s"},
        {"bench.trace_overhead",
         ratio(host_time(traced_replay_s), host_time(replay_s)), "ratio"},
    };
    if (!opt.spans_out.empty()) {
      std::ofstream os(opt.spans_out);
      last_spans.write_jsonl(os);
      std::printf("spans: %zu of the last traced replay written to %s\n",
                  last_spans.spans().size(), opt.spans_out.c_str());
    }
  }

  // --- report -------------------------------------------------------------------
  std::printf("replays: %zu (1 oracle + %zu timed", reps, replay_s.size());
  if (opt.trace) std::printf(" + %zu traced", traced_replay_s.size());
  std::printf("), replay seconds lower quartile %.4f median %.4f, ops per "
              "replay %.0f, notify delay samples %.0f, "
              "missed_delivery_ratio %.6g\n",
              host_time(replay_s), median(replay_s), ops, v("delay.count"),
              ratio(static_cast<double>(whole_bad),
                    static_cast<double>(whole.expected)));
  std::printf("setup seconds (raw): %zu samples, min %.6f lower quartile "
              "%.6f median %.6f max %.6f\n",
              setup_s.size(), quantile(setup_s, 0), host_time(setup_s),
              median(setup_s), quantile(setup_s, 1));
  std::printf("reference kernel seconds: lower quartile %.5f median %.5f "
              "(host speed %.3f of the %.3f s reference); raw ops_per_s "
              "%.6g\n",
              host_time(reference_s), median(reference_s),
              kReferenceSeconds / median(reference_s), kReferenceSeconds,
              ops / host_time(replay_s));
  std::printf("replay seconds:");
  for (const double s : replay_s) std::printf(" %.4f", s);
  std::printf("\n");
  for (const auto& [name, value] : sim) {
    std::printf("sim %-28s %.17g\n", name.c_str(), value);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.17g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(static_cast<std::uint64_t>(ops) * reps) +
          ", \"failed\": " + std::to_string(judged_bad) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 3;
}
