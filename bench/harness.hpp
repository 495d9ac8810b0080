// Shared experiment harness for the paper-reproduction benches.
//
// Each figure binary builds an ExperimentConfig (defaults = §5.1), calls
// run_experiment, and prints one table row per sweep point. All the
// figures' metrics come from the same instrumented run: per-class hop
// counts, per-request averages and stored-subscription statistics.
#pragma once

#include <cstdint>
#include <string>

#include "cbps/pubsub/system.hpp"
#include "cbps/workload/generator.hpp"

namespace cbps::bench {

struct ExperimentConfig {
  // Topology (§5.1 defaults).
  std::size_t nodes = 500;
  unsigned ring_bits = 13;  // key space 2^13
  std::uint64_t seed = 1;

  // Pub/sub layer.
  pubsub::MappingKind mapping = pubsub::MappingKind::kSelectiveAttribute;
  pubsub::PubSubConfig::Transport sub_transport =
      pubsub::PubSubConfig::Transport::kUnicast;
  pubsub::PubSubConfig::Transport pub_transport =
      pubsub::PubSubConfig::Transport::kUnicast;
  bool buffering = false;
  bool collecting = false;
  sim::SimTime buffer_period = sim::sec(5);
  Value discretization = 1;

  // Workload (§5.1 defaults; d = 4 attributes over [0, 10^6], and
  // selective ranges span 0.1% of the domain).
  int selective_attributes = 0;   // how many of the d attrs are selective
  double nonselective_frac = 0.03;
  // Zipf exponent for selective-attribute centers. The paper does not
  // state its value; 0.7 reproduces the reported Figure 6/8 shape
  // (moderate popularity skew — with s=1 a single rank-1 hotspot
  // dominates every mapping's max).
  double zipf_exponent = 0.7;
  double matching_probability = 0.5;
  std::uint64_t subscriptions = 1000;
  std::uint64_t publications = 1000;
  // One subscription every 5 s; publications arrive as a Poisson process
  // with the same mean (DriverParams').
  sim::SimTime sub_interval = sim::sec(5);
  sim::SimTime sub_ttl = sim::kSimTimeNever;  // expiration time
  double event_locality = 0.0;  // §4.3.2 temporal locality of the stream

  /// Track every operation in a DeliveryChecker and verify completeness /
  /// exactly-once at the end of the run (slower; O(subs x pubs)). When a
  /// fault_script is set, the check is windowed to publications issued
  /// after the script's last fault cleared: mid-fault misses to cut-off
  /// subscribers are the scenario under test, not a protocol bug.
  bool verify = false;

  /// Matching engine at the rendezvous nodes. The counting index is the
  /// default: it returns exactly the brute-force match set (the
  /// differential tests enforce this) at a per-event cost proportional
  /// to satisfied constraints instead of stored subscriptions.
  pubsub::MatchEngine match_engine = pubsub::MatchEngine::kCountingIndex;

  /// Subscription replication factor (§4.1).
  std::size_t replication_factor = 0;

  /// Fault injection: per-message drop probability. Non-zero arms the
  /// overlay's ack/retry reliability layer and the pub/sub duplicate
  /// filter; 0 leaves the wire bit-identical to a loss-free run.
  double loss_rate = 0.0;
  std::uint32_t max_retries = 5;
  sim::SimTime retry_base = sim::ms(250);

  /// Scripted fault scenario (workload::FaultScript text; empty = none).
  /// A non-empty script starts overlay maintenance, arms the reliable
  /// transport when the script needs it (partition/loss/crash_burst),
  /// and drives the directives against the live system.
  std::string fault_script;

  /// Record the generated workload to this file (empty = off).
  std::string trace_save_path;
  /// Replay a previously saved workload instead of generating one
  /// (empty = generate). Overrides subscriptions/publications counts.
  std::string trace_replay_path;

  // --- observability -------------------------------------------------------
  /// Write the run's causal trace here (empty = off). A ".jsonl" suffix
  /// selects the line-per-span format; anything else gets Chrome
  /// trace_event JSON (loadable in chrome://tracing / Perfetto).
  std::string trace_path;
  /// Fraction of publish/subscribe roots that start a trace. 0 with a
  /// trace_path set means "trace everything" (rate 1); 0 without one
  /// leaves tracing entirely off (no sink is allocated).
  double trace_sample_rate = 0.0;
  /// Dump the metrics registry (counters, histograms with percentiles)
  /// plus the per-key hot-key tables (the 16 heaviest keys of each
  /// sketch) and the time-series samples to this JSON file (empty = off).
  std::string metrics_json_path;
  /// Period of the time-series sampler. 0 = off, unless
  /// metrics_json_path is set (then it defaults to 1 simulated second).
  sim::SimTime sample_period = 0;
};

struct ExperimentResult {
  // Per-request network cost (one-hop messages, §5 metric (a)).
  double hops_per_subscription = 0;
  double hops_per_publication = 0;
  double hops_per_notification = 0;  // (notify + collect) / delivered
  double notify_hops_per_publication = 0;

  // Raw class totals.
  std::uint64_t subscribe_hops = 0;
  std::uint64_t publish_hops = 0;
  std::uint64_t notify_hops = 0;
  std::uint64_t collect_hops = 0;
  std::uint64_t control_hops = 0;
  std::uint64_t notify_bytes = 0;  // notify + collect classes
  std::uint64_t subscribe_bytes = 0;

  // Stored subscriptions (§5 metric (b)); peaks over the run.
  std::size_t max_subs_per_node = 0;
  double avg_subs_per_node = 0;

  // Sanity.
  std::uint64_t subscriptions_issued = 0;
  std::uint64_t publications_issued = 0;
  std::uint64_t notifications_delivered = 0;
  double avg_route_hops = 0;  // mean end-to-end hops of unicast routes
  double avg_notification_delay_s = 0;  // publish-to-notify latency

  // Distribution metrics (log-scale histograms; §5 reports averages only,
  // the percentiles expose the tail the averages hide).
  double delay_p50_s = 0;  // publish-to-notify latency percentiles
  double delay_p90_s = 0;
  double delay_p99_s = 0;
  double delay_max_s = 0;
  double hops_p50 = 0;     // end-to-end unicast route length
  double hops_p90 = 0;
  double hops_p99 = 0;
  double hops_max = 0;
  double fanout_p50 = 0;   // rendezvous keys per publish
  double fanout_p99 = 0;
  double retries_p99 = 0;  // retransmits per reliable send

  // Load observatory: ring-wide imbalance over per-node load units and
  // the hot-key concentration (top-1 share of per-key match calls).
  double load_max_over_mean = 0;
  double load_gini = 0;
  std::uint64_t hot_key_top1 = 0;      // hottest rendezvous key id
  double hot_key_top1_share = 0;       // its share of all match calls

  // Causal tracing (0 unless tracing was on).
  std::uint64_t traces_started = 0;
  std::uint64_t trace_spans = 0;

  // Populated when ExperimentConfig::verify is set.
  bool verified = false;
  std::uint64_t expected_deliveries = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t spurious = 0;

  // Fault-injection / reliability accounting (all 0 when loss_rate == 0).
  std::uint64_t messages_lost = 0;       // dropped in flight by the wire
  std::uint64_t retransmits = 0;         // timer-driven resends
  std::uint64_t sends_failed = 0;        // retry budget exhausted
  std::uint64_t duplicates_suppressed = 0;  // end-to-end filter drops

  // Fault-scenario accounting (0 unless cfg.fault_script ran).
  std::uint64_t partition_cut = 0;   // messages refused/dropped at a cut
  std::uint64_t fault_crashes = 0;   // nodes crashed by crash bursts
  bool churn_ran = false;            // a churn directive fired
  std::uint64_t churn_joins = 0;     // its membership events
  std::uint64_t churn_leaves = 0;
  std::uint64_t churn_crashes = 0;

  // Simulator events processed over the run (the sweep runner divides by
  // wall time for the simulated-events/sec throughput trajectory).
  std::uint64_t sim_events = 0;

  // Engine health: lazy-deleted heap entries skipped at pop, and full
  // heap rebuilds triggered.
  std::uint64_t sim_stale_entries_skipped = 0;
  std::uint64_t sim_heap_compactions = 0;
};

/// Run one simulated experiment to completion (all operations issued,
/// network drained).
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// "attribute-split" -> "M1 attr-split", etc. (row labels).
std::string mapping_label(pubsub::MappingKind kind);
std::string transport_label(pubsub::PubSubConfig::Transport t);

}  // namespace cbps::bench
