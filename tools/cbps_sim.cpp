// cbps_sim — run a custom simulated experiment from the command line.
//
// Exposes every knob of the paper's evaluation (§5) so a user can design
// their own parameter sweep without writing C++:
//
//   $ cbps_sim --nodes=500 --mapping=m3 --transport=mcast
//              --subs=1000 --pubs=1000 --match-prob=0.5 --verify
//
// Prints the configuration, the per-request hop costs, storage stats and
// (with --verify) the delivery-correctness ledger.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "cbps/common/flags.hpp"
#include "cbps/workload/fault_script.hpp"
#include "harness.hpp"
#include "sweep.hpp"

using namespace cbps;
using namespace cbps::bench;

namespace {

bool parse_mapping(const std::string& s, pubsub::MappingKind* out) {
  if (s == "m1" || s == "attribute-split") {
    *out = pubsub::MappingKind::kAttributeSplit;
  } else if (s == "m2" || s == "key-space-split") {
    *out = pubsub::MappingKind::kKeySpaceSplit;
  } else if (s == "m3" || s == "selective-attribute") {
    *out = pubsub::MappingKind::kSelectiveAttribute;
  } else {
    return false;
  }
  return true;
}

bool parse_transport(const std::string& s,
                     pubsub::PubSubConfig::Transport* out) {
  if (s == "unicast") {
    *out = pubsub::PubSubConfig::Transport::kUnicast;
  } else if (s == "mcast" || s == "multicast") {
    *out = pubsub::PubSubConfig::Transport::kMulticast;
  } else if (s == "chain") {
    *out = pubsub::PubSubConfig::Transport::kChain;
  } else {
    return false;
  }
  return true;
}

/// `ok`, after printing "bad --<flag>: <value> (want <want>)" when it
/// is false.
template <class T>
bool in_range(bool ok, const char* flag, T value, const char* want) {
  if (!ok) {
    std::cerr << "bad --" << flag << ": " << value << " (want " << want
              << ")\n";
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t nodes = 500;
  std::int64_t ring_bits = 13;
  std::int64_t seed = 1;
  std::string mapping = "m3";
  std::string transport = "unicast";
  std::int64_t subs = 1000;
  std::int64_t pubs = 1000;
  std::int64_t selective = 0;
  double match_prob = 0.5;
  double locality = 0.0;
  double zipf = 0.7;
  std::int64_t discretization = 1;
  bool buffering = false;
  bool collecting = false;
  double buffer_period_s = 5.0;
  std::int64_t replication = 0;
  double ttl_s = 0.0;  // 0 = never expire
  std::string match_engine = "brute";
  bool verify = false;
  std::string save_trace;
  std::string replay_trace;
  double loss_rate = 0.0;
  std::int64_t max_retries = 5;
  double retry_base_ms = 250.0;
  std::string fault_script;
  std::int64_t seeds = 1;
  std::int64_t jobs = 0;
  std::string json_path;
  std::string trace_path;
  double trace_sample_rate = 0.0;
  std::string metrics_json;
  double sample_period_s = 0.0;

  FlagParser parser(
      "cbps_sim — content-based pub/sub over a simulated Chord overlay\n"
      "(Baldoni et al., ICDCS 2005). Runs one experiment and prints the\n"
      "measured per-request costs.");
  parser.add("nodes", "number of overlay nodes", &nodes);
  parser.add("ring-bits", "key space is 2^bits", &ring_bits);
  parser.add("seed", "PRNG seed (runs are deterministic)", &seed);
  parser.add("mapping", "m1|m2|m3 (attribute-split, key-space-split, "
             "selective-attribute)", &mapping);
  parser.add("transport", "unicast|mcast|chain", &transport);
  parser.add("subs", "subscriptions to inject (1 per 5s)", &subs);
  parser.add("pubs", "publications to inject (Poisson, mean 5s)", &pubs);
  parser.add("selective", "number of selective attributes (of 4)",
             &selective);
  parser.add("match-prob", "publication matching probability", &match_prob);
  parser.add("locality", "temporal locality of the event stream [0,1)",
             &locality);
  parser.add("zipf", "Zipf exponent for selective centers", &zipf);
  parser.add("discretization", "mapping interval width in values (1=off)",
             &discretization);
  parser.add("buffering", "buffer notifications (periodic batches)",
             &buffering);
  parser.add("collecting", "aggregate matches toward range agents",
             &collecting);
  parser.add("buffer-period-s", "buffering/collecting period in seconds",
             &buffer_period_s);
  parser.add("replication", "replicas per stored subscription",
             &replication);
  parser.add("ttl-s", "subscription expiration in seconds (0 = never)",
             &ttl_s);
  parser.add("match-engine",
             "rendezvous matching engine: brute | counting",
             &match_engine);
  parser.add("verify", "check exactly-once delivery at the end", &verify);
  parser.add("save-trace", "record the workload to this file", &save_trace);
  parser.add("replay-trace", "replay a recorded workload from this file",
             &replay_trace);
  parser.add("loss-rate", "per-message drop probability [0,1); non-zero "
             "arms ack/retry reliability", &loss_rate);
  parser.add("max-retries", "retransmissions per reliable message",
             &max_retries);
  parser.add("retry-base-ms", "first ack timeout in ms (doubles per retry)",
             &retry_base_ms);
  parser.add("fault-script",
             "scripted fault scenario, e.g. 'partition at=100 heal=400 "
             "frac=0.4; loss at=50 until=300 model=ge p=0.02 q=0.2 "
             "good=0.005 bad=0.7; slow at=10 nodes=3 factor=8; crash_burst "
             "at=200 count=5 correlation=0.7'",
             &fault_script);
  parser.add("seeds", "sweep over this many consecutive seeds (one "
             "independent run each, starting at --seed)", &seeds);
  parser.add("jobs", "worker threads for --seeds sweeps (0 = all hardware "
             "threads)", &jobs);
  parser.add("json", "dump per-run timings+metrics to this file",
             &json_path);
  parser.add("trace", "write the causal message trace here (.jsonl = one "
             "span per line; anything else = Chrome trace_event JSON for "
             "Perfetto)", &trace_path);
  parser.add("trace-sample-rate", "fraction of pub/sub roots traced "
             "(default: 1.0 when --trace is set, else off)",
             &trace_sample_rate);
  parser.add("metrics-json", "dump counters, latency/hop histograms "
             "(p50/p90/p99) and the time-series samples to this file",
             &metrics_json);
  parser.add("sample-period-s", "time-series sampler period in simulated "
             "seconds (default: 1 when --metrics-json is set, else off)",
             &sample_period_s);
  if (!parser.parse(argc, argv, std::cout, std::cerr)) return 1;
  if (verify && !replay_trace.empty()) {
    std::fprintf(stderr, "--verify cannot be combined with --replay-trace\n");
    return 1;
  }
  if (!fault_script.empty() && !replay_trace.empty()) {
    std::fprintf(stderr,
                 "--fault-script cannot be combined with --replay-trace\n");
    return 1;
  }
  // Out-of-range numbers are flag errors caught before any run starts.
  // Inside they become unsigned counts (a negative one wraps to ~2^64),
  // ring and hash widths, sampler parameters and timer delays, where
  // they would abort on an internal assert or run a meaningless
  // workload without a word.
  const bool numbers_ok =
      in_range(nodes >= 1, "nodes", nodes, ">= 1") &&
      // A subscription's key expansion enumerates its keys one by one;
      // beyond 24 bits a wide range runs for seconds per subscription
      // and soon exhausts memory.
      in_range(ring_bits >= 1 && ring_bits <= 24, "ring-bits", ring_bits,
               "[1, 24]: wider rings overflow the subscription key "
               "expansion") &&
      in_range(static_cast<std::uint64_t>(nodes) <=
                   (std::uint64_t{1} << ring_bits),
               "nodes", nodes, "<= 2^ring-bits") &&
      in_range(subs >= 0, "subs", subs, ">= 0") &&
      in_range(pubs >= 0, "pubs", pubs, ">= 0") &&
      in_range(selective >= 0 && selective <= 4, "selective", selective,
               "[0, 4]") &&
      in_range(match_prob >= 0.0 && match_prob <= 1.0, "match-prob",
               match_prob, "[0, 1]") &&
      in_range(locality >= 0.0 && locality < 1.0, "locality", locality,
               "[0, 1)") &&
      in_range(zipf > 0.0, "zipf", zipf, "> 0") &&
      in_range(discretization >= 1, "discretization", discretization,
               ">= 1") &&
      in_range(buffer_period_s >= 0.0, "buffer-period-s", buffer_period_s,
               ">= 0") &&
      in_range(replication >= 0, "replication", replication, ">= 0") &&
      in_range(ttl_s >= 0.0, "ttl-s", ttl_s, ">= 0") &&
      in_range(loss_rate >= 0.0 && loss_rate < 1.0, "loss-rate", loss_rate,
               "[0, 1)") &&
      in_range(max_retries >= 0 &&
                   max_retries <= std::numeric_limits<std::uint32_t>::max(),
               "max-retries", max_retries, "[0, 2^32)") &&
      in_range(retry_base_ms >= 0.0, "retry-base-ms", retry_base_ms,
               ">= 0") &&
      in_range(seeds >= 1, "seeds", seeds, ">= 1") &&
      in_range(jobs >= 0, "jobs", jobs, ">= 0") &&
      in_range(trace_sample_rate >= 0.0 && trace_sample_rate <= 1.0,
               "trace-sample-rate", trace_sample_rate, "[0, 1]") &&
      in_range(sample_period_s >= 0.0, "sample-period-s", sample_period_s,
               ">= 0");
  if (!numbers_ok) return 1;
  if (seeds > 1 && !(save_trace.empty() && replay_trace.empty())) {
    std::fprintf(stderr,
                 "--seeds > 1 cannot be combined with trace save/replay\n");
    return 1;
  }
  if (seeds > 1 && !(trace_path.empty() && metrics_json.empty())) {
    // Every run would clobber the same output file.
    std::fprintf(stderr,
                 "--seeds > 1 cannot be combined with --trace/--metrics-json\n");
    return 1;
  }

  ExperimentConfig cfg;
  if (!parse_mapping(mapping, &cfg.mapping)) {
    std::fprintf(stderr, "bad --mapping: %s\n", mapping.c_str());
    return 1;
  }
  pubsub::PubSubConfig::Transport t;
  if (!parse_transport(transport, &t)) {
    std::fprintf(stderr, "bad --transport: %s\n", transport.c_str());
    return 1;
  }
  cfg.sub_transport = t;
  cfg.pub_transport = t;
  cfg.nodes = static_cast<std::size_t>(nodes);
  cfg.ring_bits = static_cast<unsigned>(ring_bits);
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.subscriptions = static_cast<std::uint64_t>(subs);
  cfg.publications = static_cast<std::uint64_t>(pubs);
  cfg.selective_attributes = static_cast<int>(selective);
  cfg.matching_probability = match_prob;
  cfg.event_locality = locality;
  cfg.zipf_exponent = zipf;
  cfg.discretization = discretization;
  cfg.buffering = buffering;
  cfg.collecting = collecting;
  cfg.buffer_period = sim::from_seconds(buffer_period_s);
  cfg.replication_factor = static_cast<std::size_t>(replication);
  cfg.sub_ttl = ttl_s > 0 ? sim::from_seconds(ttl_s) : sim::kSimTimeNever;
  const auto engine = pubsub::match_engine_from_string(match_engine);
  if (!engine) {
    std::fprintf(stderr,
                 "bad --match-engine: %s (want brute|counting)\n",
                 match_engine.c_str());
    return 1;
  }
  cfg.match_engine = *engine;
  cfg.verify = verify;
  cfg.trace_save_path = save_trace;
  cfg.trace_replay_path = replay_trace;
  cfg.trace_path = trace_path;
  cfg.trace_sample_rate = trace_sample_rate;
  cfg.metrics_json_path = metrics_json;
  cfg.sample_period = sample_period_s > 0
                          ? sim::from_seconds(sample_period_s)
                          : 0;
  cfg.loss_rate = loss_rate;
  cfg.max_retries = static_cast<std::uint32_t>(max_retries);
  cfg.retry_base = sim::from_seconds(retry_base_ms / 1000.0);
  if (!fault_script.empty()) {
    std::string fs_error;
    if (!workload::FaultScript::parse(fault_script, &fs_error)) {
      std::fprintf(stderr, "bad --fault-script: %s\n", fs_error.c_str());
      return 1;
    }
    cfg.fault_script = fault_script;
  }

  std::printf("config: n=%zu ring=2^%u mapping=%s transport=%s subs=%llu "
              "pubs=%llu selective=%d p=%.2f disc=%lld buf=%d collect=%d "
              "repl=%zu ttl=%s seed=%llu%s\n\n",
              cfg.nodes, cfg.ring_bits, mapping_label(cfg.mapping).c_str(),
              transport_label(t).c_str(),
              static_cast<unsigned long long>(cfg.subscriptions),
              static_cast<unsigned long long>(cfg.publications),
              cfg.selective_attributes, cfg.matching_probability,
              static_cast<long long>(cfg.discretization),
              cfg.buffering ? 1 : 0, cfg.collecting ? 1 : 0,
              cfg.replication_factor,
              ttl_s > 0 ? (std::to_string(ttl_s) + "s").c_str() : "never",
              static_cast<unsigned long long>(cfg.seed),
              seeds > 1 ? (" (+" + std::to_string(seeds - 1) +
                           " consecutive seeds)").c_str()
                        : "");

  bench::Sweep<> sweep("cbps_sim");
  bench::SweepOptions so;
  so.jobs = static_cast<std::size_t>(jobs);
  so.json_path = json_path;
  sweep.set_options(so);
  for (std::int64_t i = 0; i < seeds; ++i) {
    ExperimentConfig point = cfg;
    point.seed = cfg.seed + static_cast<std::uint64_t>(i);
    sweep.add("seed=" + std::to_string(point.seed), point);
  }

  if (seeds > 1) {
    // Multi-seed sweep: one compact row per run plus a verify tally.
    std::printf("%-12s %10s %10s %12s %10s%s\n", "seed", "hops/sub",
                "hops/pub", "hops/notif", "delivered",
                verify ? "   verify" : "");
    std::uint64_t failed = 0;
    sweep.run([&](std::size_t i, const ExperimentResult& r) {
      std::printf("%-12s %10.2f %10.2f %12.2f %10llu",
                  sweep.label(i).c_str(), r.hops_per_subscription,
                  r.hops_per_publication, r.hops_per_notification,
                  static_cast<unsigned long long>(
                      r.notifications_delivered));
      if (verify) {
        std::printf("   %s", r.verified ? "OK" : "FAILED");
        if (!r.verified) ++failed;
      }
      std::puts("");
    });
    if (verify && failed > 0) {
      std::printf("\n%llu of %lld runs FAILED verification\n",
                  static_cast<unsigned long long>(failed),
                  static_cast<long long>(seeds));
      return 2;
    }
    return 0;
  }

  const ExperimentResult r = sweep.run().front();

  std::printf("network cost (one-hop messages):\n");
  std::printf("  hops per subscription        %10.2f\n",
              r.hops_per_subscription);
  std::printf("  hops per publication         %10.2f\n",
              r.hops_per_publication);
  std::printf("  hops per notification        %10.2f\n",
              r.hops_per_notification);
  std::printf("  notify+collect hops per pub  %10.2f\n",
              r.notify_hops_per_publication);
  std::printf("  avg unicast route length     %10.2f\n", r.avg_route_hops);
  std::printf("storage:\n");
  std::printf("  max subscriptions per node   %10zu\n", r.max_subs_per_node);
  std::printf("  avg subscriptions per node   %10.1f\n", r.avg_subs_per_node);
  std::printf("deliveries:\n");
  std::printf("  notifications delivered      %10llu\n",
              static_cast<unsigned long long>(r.notifications_delivered));
  std::printf("  avg notification delay       %9.2fs\n",
              r.avg_notification_delay_s);
  std::printf("  delay p50/p99/max            %.2fs / %.2fs / %.2fs\n",
              r.delay_p50_s, r.delay_p99_s, r.delay_max_s);
  std::printf("  route hops p50/p99           %.1f / %.1f\n", r.hops_p50,
              r.hops_p99);
  if (!trace_path.empty()) {
    std::printf("trace: %llu traces, %llu spans -> %s\n",
                static_cast<unsigned long long>(r.traces_started),
                static_cast<unsigned long long>(r.trace_spans),
                trace_path.c_str());
  }
  if (!metrics_json.empty()) {
    std::printf("metrics: %s\n", metrics_json.c_str());
  }
  if (cfg.loss_rate > 0.0) {
    std::printf("reliability (loss-rate %.3f, %u retries, base %.0fms):\n",
                cfg.loss_rate, cfg.max_retries, retry_base_ms);
    std::printf("  messages lost in flight      %10llu\n",
                static_cast<unsigned long long>(r.messages_lost));
    std::printf("  retransmissions              %10llu\n",
                static_cast<unsigned long long>(r.retransmits));
    std::printf("  sends failed (budget spent)  %10llu\n",
                static_cast<unsigned long long>(r.sends_failed));
    std::printf("  duplicates suppressed        %10llu\n",
                static_cast<unsigned long long>(r.duplicates_suppressed));
  }
  if (!cfg.fault_script.empty()) {
    std::printf("fault scenario:\n");
    std::printf("  messages cut by partitions   %10llu\n",
                static_cast<unsigned long long>(r.partition_cut));
    std::printf("  nodes crashed by script      %10llu\n",
                static_cast<unsigned long long>(r.fault_crashes));
    if (r.churn_ran) {
      std::printf("  churn joins                  %10llu\n",
                  static_cast<unsigned long long>(r.churn_joins));
      std::printf("  churn leaves                 %10llu\n",
                  static_cast<unsigned long long>(r.churn_leaves));
      std::printf("  churn crashes                %10llu\n",
                  static_cast<unsigned long long>(r.churn_crashes));
    }
    std::printf("  retransmissions              %10llu\n",
                static_cast<unsigned long long>(r.retransmits));
    std::printf("  duplicates suppressed        %10llu\n",
                static_cast<unsigned long long>(r.duplicates_suppressed));
  }
  if (verify) {
    if (!cfg.fault_script.empty()) {
      // The harness windows the check to post-fault publications (see
      // ExperimentConfig::verify); say so next to the verdict.
      std::printf("verification window: publications after all faults "
                  "cleared\n");
    }
    std::printf("verification: %s (%llu expected, %llu missing, "
                "%llu duplicate, %llu spurious)\n",
                r.verified ? "OK" : "FAILED",
                static_cast<unsigned long long>(r.expected_deliveries),
                static_cast<unsigned long long>(r.missing),
                static_cast<unsigned long long>(r.duplicates),
                static_cast<unsigned long long>(r.spurious));
    return r.verified ? 0 : 2;
  }
  return 0;
}
