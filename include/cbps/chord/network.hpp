// Simulation-side container for a Chord ring.
//
// Owns the nodes, one Peer record each (liveness, partition group,
// gray-failure slowdown), their overlay::Wire (per-sender latency and
// loss, hop accounting), and a ground-truth key->node oracle used both
// to build static topologies and to verify routing in tests.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "cbps/chord/config.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/chord/wire.hpp"
#include "cbps/overlay/wire.hpp"

namespace cbps::chord {

/// The network's record of one node: the node itself, its wire streams
/// and scheduling domain, its liveness and the fault state of its links.
/// A node holds its own record, so the sending side of a hop looks
/// nothing up; the destination's record is one hash lookup, and the
/// delivery event carries both records, so it looks up nothing at all.
struct Peer {
  enum class Liveness : std::uint8_t {
    kAlive,
    kDeparted,  // left gracefully: a lame duck that still takes acks
    kCrashed,
  };

  std::unique_ptr<ChordNode> node;
  overlay::Wire::Sender* sender = nullptr;  // domain + latency/loss streams
  Liveness liveness = Liveness::kAlive;
  int partition_group = -1;  // while partitioned; -1 = remainder group
  double slow_factor = 1.0;  // gray-failure delay multiplier (>= 1)

  /// Whether `msg` may reach this node now. A departed node is still
  /// running and listening for the acks of its draining sends; every
  /// other message bounces — it has left the ring. A crashed node takes
  /// nothing.
  bool accepts(const WireMessage& msg) const {
    return liveness == Liveness::kAlive ||
           (liveness == Liveness::kDeparted &&
            std::holds_alternative<overlay::AckMsg>(msg));
  }
};

class ChordNetwork {
 public:
  ChordNetwork(sim::Simulator& sim, ChordConfig cfg, std::uint64_t seed,
               std::unique_ptr<sim::LatencyModel> latency = nullptr);
  ~ChordNetwork();

  ChordNetwork(const ChordNetwork&) = delete;
  ChordNetwork& operator=(const ChordNetwork&) = delete;

  // --- membership -------------------------------------------------------
  /// Create a node whose identifier is the consistent hash of `name`
  /// (salted on the rare id collision). The node is alive but not wired
  /// into the ring until build_static_ring() or begin_join().
  ChordNode& add_node(const std::string& name);

  /// Create a node with an explicit identifier (tests).
  ChordNode& add_node_with_id(Key id, std::string name);

  /// Install exact predecessor/successor/finger state on every alive
  /// node (equivalent to running the join + stabilization protocols to
  /// quiescence; what benches use).
  void build_static_ring();

  /// Dynamically join a new node through `bootstrap` using the message
  /// protocol. Returns the joining node.
  ChordNode& join_node(const std::string& name, Key bootstrap);

  /// Graceful departure with state handover.
  void leave_gracefully(Key id);

  /// Abrupt failure: the node simply stops responding.
  void crash(Key id);

  // --- fault injection ----------------------------------------------------
  /// Split the network: nodes in different groups cannot exchange
  /// messages (sends fail like a connection to a dead peer; in-flight
  /// messages are dropped at the cut). Nodes absent from every group —
  /// including nodes that join later — form an implicit remainder
  /// group, so set_partition({minority}) cuts `minority` off from
  /// everyone else. Every listed id must be a node of this network.
  void set_partition(const std::vector<std::vector<Key>>& groups);

  /// Remove the partition. Ring re-merge is the nodes' job (remembered-
  /// contact probing + stabilization); the wire just works again.
  void heal_partition();

  bool partitioned() const { return partitioned_; }

  /// Gray failure: multiply every transmission delay touching `id` (as
  /// sender or receiver) by `factor` (>= 1). factor == 1 clears. `id`
  /// must be a node of this network.
  void set_slow_factor(Key id, double factor);
  double slow_factor(Key id) const;

  /// Swap the in-flight loss model at runtime (nullptr = lossless).
  /// The model is a *prototype*: every node keeps its own clone as its
  /// sender-side channel, drawn from its own loss RNG stream, so loss
  /// decisions are a function of the sender's transmission history
  /// alone. Installing and later
  /// removing a model never perturbs latency or topology sampling.
  void set_loss_model(std::unique_ptr<sim::LossModel> model) {
    wire_.set_loss_model(std::move(model));
  }
  sim::LossModel* loss_model() { return wire_.loss_model(); }

  /// Number of alive senders whose Gilbert–Elliott channel is currently
  /// in the Bad state (0 when another/no loss model is installed).
  std::size_t loss_bad_state_count() const;

  // --- lookup / iteration ------------------------------------------------
  bool is_alive(Key id) const;
  ChordNode* node(Key id);
  const ChordNode* node(Key id) const;

  std::size_t alive_count() const { return alive_.size(); }
  /// Sorted identifiers of alive nodes.
  std::vector<Key> alive_ids() const { return alive_; }
  /// Alive node by dense index (0 <= i < alive_count()), in id order.
  /// O(1): the alive set is kept as a sorted vector (workload drivers
  /// call this on their random-node-pick hot path).
  ChordNode& alive_node(std::size_t i);

  /// Ground truth: the node that covers `key` (the successor of `key`
  /// among alive ring members).
  Key oracle_successor(Key key) const;

  /// Start periodic maintenance on every alive node.
  void start_maintenance_all();
  /// Stop periodic maintenance on every alive node (lets a simulation
  /// drain to quiescence after a fault scenario).
  void stop_maintenance_all();

  // --- wire ---------------------------------------------------------------
  /// Deliver `msg` from `from` to `to` after one network latency sample.
  /// Returns false without sending if `to` is unknown, crashed, departed
  /// (acks excepted) or cut off by a partition (models a failed
  /// connection attempt; the caller should evict the peer and retry).
  bool transmit(ChordNode& from, Key to, WireMessage&& msg,
                overlay::MessageClass cls);

  // --- environment ---------------------------------------------------------
  overlay::Wire& wire() { return wire_; }
  sim::Simulator& sim() { return wire_.sim(); }
  overlay::TrafficStats& traffic() { return wire_.traffic(); }
  const overlay::TrafficStats& traffic() const { return wire_.traffic(); }
  metrics::Registry& registry() { return wire_.registry(); }
  const ChordConfig& config() const { return cfg_; }
  RingParams ring() const { return cfg_.ring; }

  // --- observability ------------------------------------------------------
  /// Install a per-run trace sink (nullptr = tracing off, the default).
  /// Not owned; must outlive the network.
  void set_trace_sink(metrics::TraceSink* sink) { wire_.set_trace_sink(sink); }
  metrics::TraceSink* trace_sink() const { return wire_.trace_sink(); }

  /// Registry handles of Chord's own protocols (the data-plane ones are
  /// overlay::Wire::Stats), resolved once at construction so per-message
  /// code never does a std::map string lookup.
  struct HotStats {
    explicit HotStats(metrics::Registry& reg);

    metrics::Counter* lookup_dropped;
    metrics::Counter* lookup_no_candidate;
    metrics::Counter* net_partition_refused;
    metrics::Counter* net_partition_dropped;
    metrics::Counter* join_retry;
    // Per-message-class wire service time (sampled latency incl. the
    // gray-failure slowdown, microseconds): the load observatory's
    // per-class service-time profile ("chord.net.delay_us.<class>").
    std::array<metrics::Histogram*, overlay::kMessageClassCount>
        delay_us_by_class;
  };
  HotStats& hot() { return hot_; }

 private:
  ChordConfig cfg_;
  overlay::Wire wire_;
  HotStats hot_{wire_.registry()};

  // One record per node ever added, dead ones included. Records never
  // move (node-based map): nodes and in-flight deliveries point at them.
  std::unordered_map<Key, Peer> peers_;
  std::vector<Key> alive_;  // sorted; O(1) dense indexing for benches
  bool partitioned_ = false;  // Peer::partition_group is live
};

}  // namespace cbps::chord
