#include "harness.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <utility>

#include "cbps/common/assert.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "cbps/workload/trace.hpp"

namespace cbps::bench {

using overlay::MessageClass;

namespace {

// The paper's attribute space (§5.1): d = 4 attributes over [0, 10^6].
constexpr std::size_t kDimensions = 4;
constexpr Value kAttrMax = 1'000'000;
// Entries per sketch in the metrics JSON hot-key tables.
constexpr std::size_t kHotKeyTableSize = 16;

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

void append_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Append one hot-key table: {"total": N, "entries": [{key,count,error}]}.
void append_topk(std::string& out, const metrics::TopK& sketch) {
  out += "{\"total\": " + std::to_string(sketch.total()) +
         ", \"entries\": [";
  bool first = true;
  for (const metrics::TopK::Entry& e : sketch.top(kHotKeyTableSize)) {
    if (!first) out += ", ";
    first = false;
    out += "{\"key\": " + std::to_string(e.key) +
           ", \"count\": " + std::to_string(e.count) +
           ", \"error\": " + std::to_string(e.error) + "}";
  }
  out += "]}";
}

/// One flat JSON document: every registry counter and histogram (the
/// histograms with their percentiles), the folded per-key hot-key
/// tables, the harness' derived summary fields, and the time-series
/// sampler's rows.
void write_metrics_json(const std::string& path,
                        pubsub::PubSubSystem& system,
                        const ExperimentResult& r) {
  const metrics::Registry& reg = system.network().registry();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : reg.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, name);
    out += "\": " + std::to_string(c.value());
  }
  // An empty "stats" object keeps the document's shape stable for its
  // readers; every sample summary is in "histograms".
  out += "\n  },\n  \"stats\": {";
  // The harness-side distributions live outside the registry; fold them
  // into the same histogram table under stable names.
  std::map<std::string, metrics::Histogram> hists(reg.histograms().begin(),
                                                  reg.histograms().end());
  hists["pubsub.delay_s"] = system.delay_histogram();
  hists["pubsub.publish_fanout"] = system.fanout_histogram();
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : hists) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, name);
    out += "\": {\"count\": " + std::to_string(h.count()) + ", \"mean\": ";
    append_num(out, h.mean());
    out += ", \"p50\": ";
    append_num(out, h.p50());
    out += ", \"p90\": ";
    append_num(out, h.p90());
    out += ", \"p99\": ";
    append_num(out, h.p99());
    out += ", \"min\": ";
    append_num(out, h.min());
    out += ", \"max\": ";
    append_num(out, h.max());
    out += "}";
  }
  // Per-rendezvous-key load tables, folded over every node in ring
  // order (see KeyLoad).
  const pubsub::KeyLoad key_load = system.key_load();
  const std::pair<const char*, const metrics::TopK*> tables[] = {
      {"subs_stored", &key_load.subs_stored},
      {"match_calls", &key_load.match_calls},
      {"match_units", &key_load.match_units},
      {"notify_fanout", &key_load.notify_fanout},
  };
  out += "\n  },\n  \"hot_keys\": {";
  first = true;
  for (const auto& [name, sketch] : tables) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += name;
    out += "\": ";
    append_topk(out, *sketch);
  }
  out += "\n  },\n  \"summary\": {";
  const std::pair<const char*, double> summary[] = {
      {"notifications_delivered",
       static_cast<double>(r.notifications_delivered)},
      {"delay_p50_s", r.delay_p50_s},  {"delay_p90_s", r.delay_p90_s},
      {"delay_p99_s", r.delay_p99_s},  {"delay_max_s", r.delay_max_s},
      {"hops_p50", r.hops_p50},        {"hops_p90", r.hops_p90},
      {"hops_p99", r.hops_p99},        {"hops_max", r.hops_max},
      {"fanout_p50", r.fanout_p50},    {"fanout_p99", r.fanout_p99},
      {"retries_p99", r.retries_p99},
      {"load_max_over_mean", r.load_max_over_mean},
      {"load_gini", r.load_gini},
      {"hot_key_top1", static_cast<double>(r.hot_key_top1)},
      {"hot_key_top1_share", r.hot_key_top1_share},
      {"traces_started", static_cast<double>(r.traces_started)},
      {"trace_spans", static_cast<double>(r.trace_spans)},
      {"sim_stale_entries_skipped",
       static_cast<double>(r.sim_stale_entries_skipped)},
      {"sim_heap_compactions",
       static_cast<double>(r.sim_heap_compactions)},
  };
  first = true;
  for (const auto& [name, v] : summary) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += name;
    out += "\": ";
    append_num(out, v);
  }
  out += "\n  },\n  \"timeseries\": ";
  std::ofstream os(path);
  CBPS_ASSERT_MSG(os.good(), "cannot write --metrics-json output file");
  os << out;
  system.timeseries().write_json(os);
  os << "\n}\n";
}

void write_trace_file(const std::string& path, metrics::TraceSink& sink) {
  std::ofstream os(path);
  CBPS_ASSERT_MSG(os.good(), "cannot write --trace output file");
  const bool jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  if (jsonl) {
    sink.write_jsonl(os);
  } else {
    sink.write_chrome_trace(os);
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  std::string fs_error;
  const auto fault_script =
      workload::FaultScript::parse(cfg.fault_script, &fs_error);
  CBPS_ASSERT_MSG(fault_script.has_value(), fs_error.c_str());

  pubsub::SystemConfig sys_cfg;
  sys_cfg.nodes = cfg.nodes;
  sys_cfg.seed = cfg.seed;
  sys_cfg.chord.ring = RingParams{cfg.ring_bits};
  sys_cfg.mapping = cfg.mapping;
  sys_cfg.mapping_options.discretization = cfg.discretization;
  sys_cfg.pubsub.sub_transport = cfg.sub_transport;
  sys_cfg.pubsub.pub_transport = cfg.pub_transport;
  sys_cfg.pubsub.buffering = cfg.buffering;
  sys_cfg.pubsub.collecting = cfg.collecting;
  sys_cfg.pubsub.buffer_period = cfg.buffer_period;
  sys_cfg.pubsub.match_engine = cfg.match_engine;
  sys_cfg.pubsub.replication_factor = cfg.replication_factor;
  sys_cfg.chord.loss_rate = cfg.loss_rate;
  sys_cfg.chord.max_retries = cfg.max_retries;
  sys_cfg.chord.retry_base = cfg.retry_base;
  sys_cfg.chord.force_reliable = fault_script->needs_reliable_transport();
  // An output path without an explicit rate means "trace everything".
  sys_cfg.trace_sample_rate = cfg.trace_sample_rate > 0.0
                                  ? cfg.trace_sample_rate
                                  : (cfg.trace_path.empty() ? 0.0 : 1.0);

  pubsub::Schema schema = pubsub::Schema::uniform(kDimensions, kAttrMax);
  pubsub::PubSubSystem system(sys_cfg, schema);

  pubsub::DeliveryChecker checker;
  std::optional<workload::FaultScriptRunner> faults;
  if (!fault_script->empty()) {
    // Fault scenarios need live maintenance for ring repair; the
    // fault-free figure benches keep the static ring (and its control-
    // traffic accounting) untouched.
    system.network().start_maintenance_all();
    faults.emplace(system, *fault_script, cfg.seed);
    if (cfg.verify) faults->set_delivery_checker(&checker);
    faults->start();
  }

  workload::WorkloadParams wp;
  wp.nonselective_range_frac = cfg.nonselective_frac;
  wp.matching_probability = cfg.matching_probability;
  wp.zipf_exponent = cfg.zipf_exponent;
  wp.selective.assign(kDimensions, false);
  for (int i = 0; i < cfg.selective_attributes &&
                  i < static_cast<int>(kDimensions);
       ++i) {
    wp.selective[static_cast<std::size_t>(i)] = true;
  }
  workload::WorkloadGenerator gen(schema, wp, cfg.seed * 7919 + 17);

  workload::DriverParams dp;
  dp.sub_interval = cfg.sub_interval;
  dp.sub_ttl = cfg.sub_ttl;
  dp.max_subscriptions = cfg.subscriptions;
  dp.max_publications = cfg.publications;
  dp.event_locality = cfg.event_locality;

  // Arm the time-series sampler when asked for (explicitly or implied by
  // a metrics dump). Its periodic timer keeps the event queue alive, so
  // the run paths below must stop it before draining to completion.
  const sim::SimTime sample_period =
      cfg.sample_period > 0
          ? cfg.sample_period
          : (cfg.metrics_json_path.empty() ? 0 : sim::sec(1));
  const bool sampling = sample_period > 0 && cfg.trace_replay_path.empty();
  if (sampling) system.start_sampler(sample_period);

  ExperimentResult r;
  if (!cfg.trace_replay_path.empty()) {
    CBPS_ASSERT_MSG(fault_script->empty(),
                    "fault scripts cannot run against a trace replay");
    // Replay a recorded workload instead of generating one.
    std::ifstream in(cfg.trace_replay_path);
    CBPS_ASSERT_MSG(in.good(), "cannot open trace file");
    std::string error;
    const auto trace = workload::Trace::load(in, &error);
    CBPS_ASSERT_MSG(trace.has_value(), error.c_str());
    workload::TraceReplayer replayer(system, *trace);
    replayer.start();
    system.quiesce();
    r.subscriptions_issued = trace->subscription_count();
    r.publications_issued = trace->publication_count();
  } else {
    workload::Trace trace;
    workload::Driver driver(
        system, gen, dp, cfg.verify ? &checker : nullptr,
        cfg.trace_save_path.empty() ? nullptr : &trace);
    driver.start();
    if (fault_script->empty() && !sampling) {
      driver.run_to_completion();
    } else if (fault_script->empty()) {
      // The sampler's periodic timer keeps the queue alive: advance in
      // time chunks until the workload completes, then disarm and drain.
      while (!driver.finished()) system.run_for(sim::sec(60));
      system.stop_sampler();
      system.quiesce();
    } else {
      // With maintenance timers armed the queue never drains: advance in
      // time chunks until the workload completes, give retries and
      // repairs a drain window, then stop maintenance and flush the rest.
      // Churn stops with the workload: a join after maintenance stops
      // would arm its node's timer again and the queue would never drain.
      while (!driver.finished()) system.run_for(sim::sec(60));
      faults->stop_churn();
      system.run_for(sim::sec(120));
      system.network().stop_maintenance_all();
      system.stop_sampler();
      system.quiesce();
    }
    r.subscriptions_issued = driver.subscriptions_issued();
    r.publications_issued = driver.publications_issued();
    if (!cfg.trace_save_path.empty()) {
      std::ofstream out(cfg.trace_save_path);
      CBPS_ASSERT_MSG(out.good(), "cannot write trace file");
      trace.save(out);
    }
  }

  const overlay::TrafficStats& traffic = system.traffic();
  r.subscribe_hops = traffic.hops(MessageClass::kSubscribe);
  r.publish_hops = traffic.hops(MessageClass::kPublish);
  r.notify_hops = traffic.hops(MessageClass::kNotify);
  r.collect_hops = traffic.hops(MessageClass::kCollect);
  r.control_hops = traffic.hops(MessageClass::kControl);
  r.notify_bytes = traffic.bytes(MessageClass::kNotify) +
                   traffic.bytes(MessageClass::kCollect);
  r.subscribe_bytes = traffic.bytes(MessageClass::kSubscribe);
  r.notifications_delivered = system.notifications_delivered();

  if (r.subscriptions_issued > 0) {
    r.hops_per_subscription = static_cast<double>(r.subscribe_hops) /
                              static_cast<double>(r.subscriptions_issued);
  }
  const std::uint64_t notify_leg_hops = r.notify_hops + r.collect_hops;
  if (r.publications_issued > 0) {
    r.hops_per_publication = static_cast<double>(r.publish_hops) /
                             static_cast<double>(r.publications_issued);
    r.notify_hops_per_publication =
        static_cast<double>(notify_leg_hops) /
        static_cast<double>(r.publications_issued);
  }
  if (r.notifications_delivered > 0) {
    r.hops_per_notification =
        static_cast<double>(notify_leg_hops) /
        static_cast<double>(r.notifications_delivered);
  }

  const auto storage = system.storage_stats();
  r.max_subs_per_node = storage.max_peak;
  r.avg_subs_per_node = storage.avg_peak;

  const metrics::Histogram delay_hist = system.delay_histogram();
  r.avg_notification_delay_s = delay_hist.mean();
  r.delay_p50_s = delay_hist.p50();
  r.delay_p90_s = delay_hist.p90();
  r.delay_p99_s = delay_hist.p99();
  r.delay_max_s = delay_hist.max();
  metrics::Registry& reg_mut = system.network().registry();
  // End-to-end length of every completed unicast route.
  const metrics::Histogram& hop_hist = reg_mut.histogram("chord.route_hops");
  r.avg_route_hops = hop_hist.mean();
  r.hops_p50 = hop_hist.p50();
  r.hops_p90 = hop_hist.p90();
  r.hops_p99 = hop_hist.p99();
  r.hops_max = hop_hist.max();
  const metrics::Histogram fanout_hist = system.fanout_histogram();
  r.fanout_p50 = fanout_hist.p50();
  r.fanout_p99 = fanout_hist.p99();
  r.retries_p99 = reg_mut.histogram("chord.retries_per_send").p99();
  const pubsub::PubSubSystem::LoadImbalance imbalance =
      system.load_imbalance();
  r.load_max_over_mean = imbalance.max_over_mean;
  r.load_gini = imbalance.gini;
  const pubsub::KeyLoad key_load = system.key_load();
  if (const auto top1 = key_load.match_calls.top(1); !top1.empty()) {
    r.hot_key_top1 = top1.front().key;
    r.hot_key_top1_share = static_cast<double>(top1.front().count) /
                           static_cast<double>(key_load.match_calls.total());
  }
  if (metrics::TraceSink* sink = system.trace_sink()) {
    r.traces_started = sink->traces_started();
    r.trace_spans = sink->spans().size();
  }

  const metrics::Registry& reg = system.network().registry();
  r.messages_lost = reg.counter_value("chord.net.lost");
  r.retransmits = reg.counter_value("chord.retransmits");
  r.sends_failed = reg.counter_value("chord.send_failed");
  r.duplicates_suppressed = system.duplicates_suppressed();
  r.partition_cut = reg.counter_value("chord.net.partition_refused") +
                    reg.counter_value("chord.net.partition_dropped");
  if (faults) {
    r.fault_crashes = faults->crashes();
    r.churn_ran = !faults->churn_drivers().empty();
    for (const auto& churn : faults->churn_drivers()) {
      r.churn_joins += churn->joins();
      r.churn_leaves += churn->leaves();
      r.churn_crashes += churn->crashes();
    }
  }

  r.sim_events = system.sim().events_processed();
  r.sim_stale_entries_skipped = system.sim().stale_entries_skipped();
  r.sim_heap_compactions = system.sim().heap_compactions();

  if (cfg.verify) {
    // A fault run is judged on the publications issued after every fault
    // cleared (plus a stabilization margin): mid-fault misses to cut-off
    // or crashed subscribers are the scenario, not a bug. Fault-free
    // runs keep the strict whole-run check.
    sim::SimTime pubs_after = 0;
    if (!fault_script->empty()) {
      pubs_after = fault_script->all_clear_at() +
                   8 * sys_cfg.chord.stabilize_period;
    }
    const auto report = fault_script->empty()
                            ? checker.verify()
                            : checker.verify(sim::sec(15), pubs_after);
    r.verified = report.ok();
    r.expected_deliveries = report.expected;
    r.missing = report.missing;
    r.duplicates = report.duplicates;
    r.spurious = report.spurious;
  }

  if (!cfg.trace_path.empty() && system.trace_sink() != nullptr) {
    write_trace_file(cfg.trace_path, *system.trace_sink());
  }
  if (!cfg.metrics_json_path.empty()) {
    write_metrics_json(cfg.metrics_json_path, system, r);
  }
  return r;
}

std::string mapping_label(pubsub::MappingKind kind) {
  switch (kind) {
    case pubsub::MappingKind::kAttributeSplit:
      return "M1 attribute-split";
    case pubsub::MappingKind::kKeySpaceSplit:
      return "M2 key-space-split";
    case pubsub::MappingKind::kSelectiveAttribute:
      return "M3 selective-attr";
  }
  return "?";
}

std::string transport_label(pubsub::PubSubConfig::Transport t) {
  switch (t) {
    case pubsub::PubSubConfig::Transport::kUnicast:
      return "unicast";
    case pubsub::PubSubConfig::Transport::kMulticast:
      return "m-cast";
    case pubsub::PubSubConfig::Transport::kChain:
      return "chain";
  }
  return "?";
}

}  // namespace cbps::bench
