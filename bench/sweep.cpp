#include "sweep.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "cbps/common/assert.hpp"

namespace cbps::bench {

JsonFields json_fields(const ExperimentResult& r) {
  return {
      {"hops_per_subscription", r.hops_per_subscription},
      {"hops_per_publication", r.hops_per_publication},
      {"hops_per_notification", r.hops_per_notification},
      {"notify_hops_per_publication", r.notify_hops_per_publication},
      {"subscribe_hops", static_cast<double>(r.subscribe_hops)},
      {"publish_hops", static_cast<double>(r.publish_hops)},
      {"notify_hops", static_cast<double>(r.notify_hops)},
      {"collect_hops", static_cast<double>(r.collect_hops)},
      {"control_hops", static_cast<double>(r.control_hops)},
      {"notify_bytes", static_cast<double>(r.notify_bytes)},
      {"subscribe_bytes", static_cast<double>(r.subscribe_bytes)},
      {"max_subs_per_node", static_cast<double>(r.max_subs_per_node)},
      {"avg_subs_per_node", r.avg_subs_per_node},
      {"subscriptions_issued", static_cast<double>(r.subscriptions_issued)},
      {"publications_issued", static_cast<double>(r.publications_issued)},
      {"notifications_delivered",
       static_cast<double>(r.notifications_delivered)},
      {"avg_route_hops", r.avg_route_hops},
      {"avg_notification_delay_s", r.avg_notification_delay_s},
      {"max_notification_delay_s", r.delay_max_s},
      {"delay_p50_s", r.delay_p50_s},
      {"delay_p99_s", r.delay_p99_s},
      {"hops_p50", r.hops_p50},
      {"hops_p99", r.hops_p99},
      {"messages_lost", static_cast<double>(r.messages_lost)},
      {"retransmits", static_cast<double>(r.retransmits)},
      {"sends_failed", static_cast<double>(r.sends_failed)},
      {"duplicates_suppressed",
       static_cast<double>(r.duplicates_suppressed)},
  };
}

JsonFields metrics_fields(const ExperimentResult& r) {
  return {
      {"delay_p50_s", r.delay_p50_s},
      {"delay_p90_s", r.delay_p90_s},
      {"delay_p99_s", r.delay_p99_s},
      {"delay_max_s", r.delay_max_s},
      {"avg_notification_delay_s", r.avg_notification_delay_s},
      {"hops_p50", r.hops_p50},
      {"hops_p90", r.hops_p90},
      {"hops_p99", r.hops_p99},
      {"hops_max", r.hops_max},
      {"avg_route_hops", r.avg_route_hops},
      {"fanout_p50", r.fanout_p50},
      {"fanout_p99", r.fanout_p99},
      {"retries_p99", r.retries_p99},
      {"load_max_over_mean", r.load_max_over_mean},
      {"load_gini", r.load_gini},
      {"hot_key_top1_share", r.hot_key_top1_share},
      {"notifications_delivered",
       static_cast<double>(r.notifications_delivered)},
      {"traces_started", static_cast<double>(r.traces_started)},
      {"trace_spans", static_cast<double>(r.trace_spans)},
  };
}

namespace detail {

std::size_t resolve_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void run_indexed(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)>& body,
                 const std::function<void(std::size_t)>& done) {
  jobs = resolve_jobs(jobs);
  if (jobs > count) jobs = count;
  if (jobs <= 1) {
    // Fully serial: no threads, the reference execution mode.
    for (std::size_t i = 0; i < count; ++i) {
      body(i);
      done(i);
    }
    return;
  }

  std::mutex mu;
  std::condition_variable point_done;
  std::vector<char> completed(count, 0);
  std::vector<std::exception_ptr> errors(count);
  std::exception_ptr failed;  // the lowest failed index's error
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      std::exception_ptr error;
      try {
        body(i);
      } catch (...) {
        error = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        completed[i] = 1;
        errors[i] = error;
      }
      point_done.notify_all();
    }
  };
  {
    // jthreads join on scope exit, also when done() throws.
    std::vector<std::jthread> workers;
    workers.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) workers.emplace_back(work);
    // Report rows in sweep order as they become available, up to the
    // first failed point: the rows the serial mode prints.
    for (std::size_t i = 0; i < count; ++i) {
      std::unique_lock lock(mu);
      point_done.wait(lock, [&] { return completed[i] != 0; });
      failed = errors[i];
      lock.unlock();
      if (failed) break;
      done(i);
    }
  }
  if (failed) std::rethrow_exception(failed);
}

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[64];
  // Round-trippable without exponent soup for the magnitudes we emit.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

void write_json(const std::string& path, const std::string& bench,
                std::size_t jobs, double total_wall_s,
                const std::vector<std::string>& labels,
                const std::vector<PointTiming>& timings,
                const std::vector<JsonFields>& metrics) {
  std::string out;
  out += "{\n  \"bench\": \"";
  append_json_escaped(out, bench);
  out += "\",\n  \"jobs\": " + std::to_string(jobs);
  out += ",\n  \"total_wall_s\": ";
  append_double(out, total_wall_s);
  out += ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out += "    {\"label\": \"";
    append_json_escaped(out, labels[i]);
    out += "\", \"wall_s\": ";
    append_double(out, timings[i].wall_s);
    out += ", \"sim_events\": " + std::to_string(timings[i].sim_events);
    out += ", \"events_per_sec\": ";
    append_double(out, timings[i].events_per_sec);
    out += ", \"metrics\": {";
    for (std::size_t m = 0; m < metrics[i].size(); ++m) {
      if (m > 0) out += ", ";
      out += '"';
      append_json_escaped(out, metrics[i][m].first);
      out += "\": ";
      append_double(out, metrics[i][m].second);
    }
    out += "}}";
    out += i + 1 < labels.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  CBPS_ASSERT_MSG(f != nullptr, "cannot open --json output file");
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

}  // namespace detail
}  // namespace cbps::bench
