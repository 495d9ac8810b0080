#include "replay.hpp"

#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "cbps/common/assert.hpp"
#include "cbps/workload/fault_script.hpp"

namespace cbpsbench {

namespace {

using cbps::overlay::MessageClass;
using cbps::pubsub::PubSubSystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Order-sensitive 64-bit mix of the notification stream (the serial
/// engine delivers in one canonical order, so equal runs hash equal).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

/// Delivered notifications by publish-to-notify delay (simulated).
using DelayCounts = std::map<SimTime, std::uint64_t>;

/// Percentile `p` (0..1) of the delays in seconds, interpolated for
/// grouped data: each distinct delay d_k is taken as spread evenly over
/// (d_{k-1}, d_k]. Delays are whole multiples of the fixed link latency,
/// so a plain order statistic jumps a full 50 ms step between otherwise
/// similar runs; the interpolated value moves with the distribution.
double grouped_percentile(const DelayCounts& delays, double p) {
  std::uint64_t total = 0;
  for (const auto& [d, c] : delays) total += c;
  if (total == 0) return 0;
  const double rank = p * static_cast<double>(total);
  double below = 0;
  SimTime prev = delays.begin()->first;
  for (const auto& [d, c] : delays) {
    const double n = static_cast<double>(c);
    if (below + n >= rank) {
      const double frac = (rank - below) / n;
      return cbps::sim::to_seconds(prev) +
             frac * cbps::sim::to_seconds(d - prev);
    }
    below += n;
    prev = d;
  }
  return cbps::sim::to_seconds(prev);
}

SimCounts read_counts(PubSubSystem& system, const Workload& w,
                      std::uint64_t delivery_hash, const DelayCounts& delays) {
  const cbps::overlay::TrafficStats& t = system.traffic();
  const auto hops = [&](MessageClass c) {
    return static_cast<double>(t.hops(c));
  };
  const auto bytes = [&](MessageClass c) {
    return static_cast<double>(t.bytes(c));
  };
  cbps::metrics::Registry& reg = system.network().registry();
  const cbps::metrics::Histogram delay = system.delay_histogram();
  const cbps::metrics::Histogram fanout = system.fanout_histogram();

  double stored = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    stored += static_cast<double>(system.pubsub_node(i).store().size());
  }
  double hist_samples = static_cast<double>(delay.count() + fanout.count());
  for (const auto& [name, h] : reg.histograms()) {
    hist_samples += static_cast<double>(h.count());
  }
  // Every TopK::offer the pub/sub layer makes: one per stored key, two
  // per matched key (calls and units) and one per notification.
  const cbps::pubsub::KeyLoad load = system.key_load();
  const double offers = static_cast<double>(
      load.subs_stored.total() + 2 * load.match_calls.total() +
      load.notify_fanout.total());
  const auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter_value(name));
  };

  return {
      {"subscriptions", static_cast<double>(w.subscriptions)},
      {"publications", static_cast<double>(w.publications)},
      {"notifications", static_cast<double>(system.notifications_delivered())},
      {"hops.subscribe", hops(MessageClass::kSubscribe)},
      {"hops.publish", hops(MessageClass::kPublish)},
      {"hops.notify", hops(MessageClass::kNotify) +
                          hops(MessageClass::kCollect) +
                          hops(MessageClass::kGossip)},
      {"hops.control", hops(MessageClass::kControl)},
      {"hops.state", hops(MessageClass::kStateTransfer) +
                         hops(MessageClass::kUnsubscribe)},
      {"bytes.subscribe", bytes(MessageClass::kSubscribe)},
      {"bytes.publish", bytes(MessageClass::kPublish)},
      {"bytes.notify", bytes(MessageClass::kNotify) +
                           bytes(MessageClass::kCollect) +
                           bytes(MessageClass::kGossip)},
      {"bytes.control", bytes(MessageClass::kControl)},
      {"bytes.total", static_cast<double>(t.total_bytes())},
      {"max_subs_per_node",
       static_cast<double>(system.storage_stats().max_peak)},
      {"delay.count", static_cast<double>(delay.count())},
      {"delay.p50_s", grouped_percentile(delays, 0.50)},
      {"delay.p99_s", grouped_percentile(delays, 0.99)},
      {"sim.events", static_cast<double>(system.sim().events_processed())},
      {"sim.stale_skipped",
       static_cast<double>(system.sim().stale_entries_skipped())},
      {"sim.heap_compactions",
       static_cast<double>(system.sim().heap_compactions())},
      {"chord.retransmits", counter("chord.retransmits")},
      {"chord.send_failed", counter("chord.send_failed")},
      {"chord.net.lost", counter("chord.net.lost")},
      {"chord.route_dropped", counter("chord.route_dropped")},
      {"chord.dup_suppressed", counter("chord.dup_suppressed")},
      {"chord.route_hops_p99", reg.histogram("chord.route_hops").p99()},
      {"chord.mcast_fanout_p99", reg.histogram("chord.mcast_fanout").p99()},
      {"pubsub.stored_records", stored},
      {"pubsub.match_calls", static_cast<double>(load.match_calls.total())},
      {"pubsub.match_units", static_cast<double>(load.match_units.total())},
      {"metrics.topk_offers", offers},
      {"metrics.histogram_samples", hist_samples},
      // 53 bits survive the double exactly.
      {"delivery.hash", static_cast<double>(delivery_hash >> 11)},
  };
}

}  // namespace

double sim_value(const SimCounts& counts, std::string_view name) {
  for (const auto& [n, v] : counts) {
    if (n == name) return v;
  }
  CBPS_ASSERT_MSG(false, "unknown simulated count");
  return 0;
}

std::vector<double> time_setup(const Workload& w, std::size_t samples) {
  std::vector<double> out;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto t0 = Clock::now();
    const PubSubSystem system(w.system, w.schema);
    out.push_back(seconds_since(t0));
  }
  return out;
}

RepResult run_rep(const Workload& w, cbps::pubsub::DeliveryChecker* checker,
                  SpanRecorder* spans, std::unique_ptr<PubSubSystem>* keep) {
  RepResult r;
  std::unique_ptr<PubSubSystem> system;
  {
    SpanScope span(spans, SpanName::kSetup);
    system = std::make_unique<PubSubSystem>(w.system, w.schema);
  }

  std::uint64_t delivery_hash = 0;
  DelayCounts delays;
  PubSubSystem* sys = system.get();
  system->set_notify_sink([&delivery_hash, &delays, sys, checker, spans](
                              cbps::Key subscriber,
                              const cbps::pubsub::Notification& n) {
    SpanScope span(spans, SpanName::kNotify);
    const SimTime now = sys->sim().now();
    ++delays[now - n.published_at];
    delivery_hash = mix(mix(mix(mix(delivery_hash, n.event->id),
                                n.subscription),
                            subscriber),
                        now);
    if (checker != nullptr) checker->on_notify(subscriber, n, now);
  });

  std::optional<cbps::workload::FaultScriptRunner> faults;
  if (!w.faults.empty()) {
    std::set<cbps::Key> clients;
    for (const std::size_t i : w.clients) clients.insert(system->node_id(i));
    system->network().start_maintenance_all();
    faults.emplace(*system, w.faults, w.system.seed,
                   [clients = std::move(clients)](cbps::Key id) {
                     return clients.count(id) != 0;
                   });
    if (checker != nullptr) faults->set_delivery_checker(checker);
    faults->start();
  }

  const auto replay_start = Clock::now();
  for (const Op& op : w.ops) {
    {
      SpanScope span(spans, SpanName::kDrain);
      system->sim().run_until(op.at);
    }
    if (op.kind == Op::Kind::kSubscribe) {
      cbps::pubsub::SubscriptionPtr sub;
      {
        SpanScope span(spans, SpanName::kSubscribe);
        sub = system->subscribe(op.node, op.constraints);
      }
      if (checker != nullptr) {
        checker->on_subscribe(std::move(sub), op.at, cbps::sim::kSimTimeNever);
      }
    } else {
      cbps::EventId id = 0;
      {
        SpanScope span(spans, SpanName::kPublish);
        id = system->publish(op.node, op.values);
      }
      if (checker != nullptr) {
        auto event = std::make_shared<cbps::pubsub::Event>();
        event->id = id;
        event->values = op.values;
        checker->on_publish(std::move(event), op.at);
      }
    }
  }
  {
    SpanScope span(spans, SpanName::kDrain);
    if (faults) {
      // Maintenance timers never drain on their own: leave retries and
      // repairs a window, then stop maintenance and flush the rest.
      system->run_for(cbps::sim::sec(120));
      system->network().stop_maintenance_all();
    }
    system->quiesce();
  }
  r.replay_s = seconds_since(replay_start);
  system->set_notify_sink(nullptr);  // the sink refers to this frame

  r.sim = read_counts(*system, w, delivery_hash, delays);
  if (spans != nullptr) r.spans = spans->totals();
  if (keep != nullptr) *keep = std::move(system);
  return r;
}

}  // namespace cbpsbench
