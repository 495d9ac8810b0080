#include "cbps/chord/network.hpp"

#include <algorithm>
#include <utility>

#include "cbps/common/hash.hpp"
#include "cbps/common/logging.hpp"

namespace cbps::chord {

ChordNetwork::HotStats::HotStats(metrics::Registry& reg)
    : lookup_dropped(reg.counter_handle("chord.lookup_dropped")),
      lookup_no_candidate(reg.counter_handle("chord.lookup_no_candidate")),
      net_partition_refused(
          reg.counter_handle("chord.net.partition_refused")),
      net_partition_dropped(
          reg.counter_handle("chord.net.partition_dropped")),
      join_retry(reg.counter_handle("chord.join_retry")) {
  for (std::size_t c = 0; c < overlay::kMessageClassCount; ++c) {
    delay_us_by_class[c] = reg.histogram_handle(
        std::string("chord.net.delay_us.") +
        std::string(overlay::to_string(static_cast<overlay::MessageClass>(c))));
  }
}

ChordNetwork::ChordNetwork(sim::SimulatorBase& sim, ChordConfig cfg,
                           std::uint64_t seed,
                           std::unique_ptr<sim::LatencyModel> latency)
    : cfg_(cfg),
      wire_(sim, "chord",
            {cfg.ring, cfg.max_route_hops, cfg.reliable_transport(),
             cfg.max_retries, cfg.retry_base},
            seed, cfg.loss_rate, std::move(latency)) {}

ChordNetwork::~ChordNetwork() {
  // Timers owned by nodes reference the simulator; stop them while the
  // nodes still exist.
  for (auto& [_, n] : nodes_) {
    n->stop_maintenance();
    n->cancel_pending_sends();
  }
}

ChordNode& ChordNetwork::add_node(const std::string& name) {
  Key id = consistent_hash(name, cfg_.ring);
  int salt = 0;
  while (nodes_.contains(id)) {
    id = consistent_hash(name + "#" + std::to_string(salt++), cfg_.ring);
  }
  return add_node_with_id(id, name);
}

ChordNode& ChordNetwork::add_node_with_id(Key id, std::string name) {
  CBPS_ASSERT_MSG(!nodes_.contains(id), "duplicate node id");
  CBPS_ASSERT(id <= cfg_.ring.max_key());
  const common::Domain domain = wire_.add_sender(id);
  auto node = std::make_unique<ChordNode>(*this, id, std::move(name), domain);
  ChordNode& ref = *node;
  nodes_.emplace(id, std::move(node));
  alive_.insert(std::lower_bound(alive_.begin(), alive_.end(), id), id);
  return ref;
}

void ChordNetwork::build_static_ring() {
  const std::vector<Key> ids = alive_ids();
  CBPS_ASSERT(!ids.empty());
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Key id = ids[i];
    ChordNode& node = *nodes_.at(id);

    std::optional<Key> pred;
    std::vector<Key> succs;
    if (n > 1) {
      pred = ids[(i + n - 1) % n];
      for (std::size_t j = 1; j <= cfg_.successor_list_size && j < n; ++j) {
        succs.push_back(ids[(i + j) % n]);
      }
    }

    std::vector<Key> fingers(cfg_.ring.bits());
    for (std::size_t f = 0; f < fingers.size(); ++f) {
      const Key start = cfg_.ring.add(id, std::uint64_t{1} << f);
      fingers[f] = oracle_successor(start);
    }
    node.install_state(pred, std::move(succs), std::move(fingers));
  }
}

ChordNode& ChordNetwork::join_node(const std::string& name, Key bootstrap) {
  CBPS_ASSERT_MSG(is_alive(bootstrap), "bootstrap node must be alive");
  ChordNode& node = add_node(name);
  node.begin_join(bootstrap);
  return node;
}

void ChordNetwork::leave_gracefully(Key id) {
  CBPS_ASSERT_MSG(is_alive(id),
                  "leave_gracefully: node is not alive (double removal?)");
  CBPS_ASSERT_MSG(alive_.size() > 1,
                  "leave_gracefully: cannot remove the last alive node");
  nodes_.at(id)->leave_gracefully();
  alive_.erase(std::lower_bound(alive_.begin(), alive_.end(), id));
  // The process is still up (lame duck): it keeps retransmitting its
  // pending reliable sends — the state handover above in particular —
  // and may receive the acks for them. See transmit().
  departed_.insert(id);
}

void ChordNetwork::crash(Key id) {
  CBPS_ASSERT_MSG(is_alive(id),
                  "crash: node is not alive (double removal?)");
  CBPS_ASSERT_MSG(alive_.size() > 1,
                  "crash: cannot remove the last alive node");
  nodes_.at(id)->go_offline();
  alive_.erase(std::lower_bound(alive_.begin(), alive_.end(), id));
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

void ChordNetwork::set_partition(const std::vector<std::vector<Key>>& groups) {
  partition_group_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (Key id : groups[g]) partition_group_[id] = static_cast<int>(g);
  }
  partitioned_ = true;
}

void ChordNetwork::heal_partition() {
  partitioned_ = false;
  partition_group_.clear();
}

bool ChordNetwork::reachable(Key a, Key b) const {
  if (!partitioned_) return true;
  const auto group = [this](Key id) {
    const auto it = partition_group_.find(id);
    return it == partition_group_.end() ? -1 : it->second;
  };
  return group(a) == group(b);
}

void ChordNetwork::set_slow_factor(Key id, double factor) {
  CBPS_ASSERT_MSG(factor >= 1.0, "slow factor must be >= 1");
  if (factor == 1.0) {
    slow_factors_.erase(id);
  } else {
    slow_factors_[id] = factor;
  }
}

void ChordNetwork::clear_slow_factors() { slow_factors_.clear(); }

double ChordNetwork::slow_factor(Key id) const {
  const auto it = slow_factors_.find(id);
  return it == slow_factors_.end() ? 1.0 : it->second;
}

std::size_t ChordNetwork::loss_bad_state_count() const {
  std::size_t n = 0;
  for (Key id : alive_) {
    const auto* ge =
        dynamic_cast<const sim::GilbertElliottLoss*>(wire_.sender_loss(id));
    if (ge != nullptr && ge->in_bad_state()) ++n;
  }
  return n;
}

bool ChordNetwork::is_alive(Key id) const {
  return std::binary_search(alive_.begin(), alive_.end(), id);
}

ChordNode* ChordNetwork::node(Key id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const ChordNode* ChordNetwork::node(Key id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

ChordNode& ChordNetwork::alive_node(std::size_t i) {
  CBPS_ASSERT(i < alive_.size());
  return *nodes_.at(alive_[i]);
}

Key ChordNetwork::oracle_successor(Key key) const {
  CBPS_ASSERT_MSG(!alive_.empty(), "no alive nodes");
  auto it = std::lower_bound(alive_.begin(), alive_.end(), key);
  return it == alive_.end() ? alive_.front() : *it;
}

void ChordNetwork::start_maintenance_all() {
  for (Key id : alive_) nodes_.at(id)->start_maintenance();
}

void ChordNetwork::stop_maintenance_all() {
  for (Key id : alive_) nodes_.at(id)->stop_maintenance();
}

namespace {

/// Approximate wire size of a message: the shared rule for the
/// application messages; the carried state or successor list for the
/// membership messages that have one, 16 bytes for the rest.
std::size_t wire_size_bytes(RingParams ring, const WireMessage& msg) {
  return std::visit(
      [ring](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (overlay::is_data_message_v<T>) {
          return overlay::wire_size_bytes(ring, m);
        } else if constexpr (std::is_same_v<T, StateTransferMsg>) {
          return m.state ? m.state->size_bytes() : 0;
        } else if constexpr (std::is_same_v<T, PredLeaveMsg>) {
          return (m.state ? m.state->size_bytes() : 0) + 8;
        } else if constexpr (std::is_same_v<T, GetNeighborsReply>) {
          return 8 * (1 + m.successors.size());
        } else {
          return 16;  // small fixed-size control messages
        }
      },
      msg);
}

}  // namespace

bool ChordNetwork::transmit(Key from, Key to, WireMessage msg,
                            overlay::MessageClass cls) {
  if (!is_alive(to)) {
    // Lame-duck exception: a gracefully-departed node is still running
    // and listening for the acks of its draining sends. Everything
    // else bounces — it has left the ring.
    const bool ack_to_lame_duck =
        std::holds_alternative<overlay::AckMsg>(msg) &&
        departed_.contains(to);
    if (!ack_to_lame_duck) return false;
  }
  if (!reachable(from, to)) {
    // Partitioned link: the connection attempt fails exactly like a
    // dead peer, so the caller evicts the peer and the successor-list /
    // finger repair machinery takes over inside each side of the cut.
    hot_.net_partition_refused->inc();
    return false;
  }
  const auto sampled = wire_.send(from, cls, wire_size_bytes(ring(), msg));
  // Lost in flight: the hop and bytes are charged, nothing arrives.
  if (!sampled) return true;

  const ChordNode& src = *nodes_.at(from);
  auto env = std::make_shared<Envelope>();
  env->from = from;
  env->from_has_pred = src.predecessor().has_value();
  env->from_pred = src.predecessor().value_or(0);
  env->msg = std::move(msg);

  sim::SimTime delay = *sampled;
  // Gray failure: a slow node stretches every message it touches.
  const double slow = std::max(slow_factor(from), slow_factor(to));
  if (slow > 1.0) {
    delay = static_cast<sim::SimTime>(static_cast<double>(delay) * slow);
  }
  // Integer-microsecond samples into a lock-free histogram: the sum is
  // order-independent, so concurrent shard senders stay deterministic.
  hot_.delay_us_by_class[static_cast<std::size_t>(cls)]->add(
      static_cast<double>(delay));
  // Deliver on the destination's scheduling domain: the receive callback
  // runs on (and is keyed by) the receiver's shard. The latency floor
  // (LatencyModel::min_delay) is the parallel engine's lookahead, which
  // is exactly what makes this cross-shard handoff legal mid-window.
  sim().schedule_for(wire_.domain(to), sim().now() + delay,
                     [this, from, to, env] {
    // Destination died in flight — except a lame-duck ack: the departed
    // process is still up, waiting for exactly this.
    if (!is_alive(to) && !(std::holds_alternative<overlay::AckMsg>(env->msg) &&
                           departed_.contains(to))) {
      return;
    }
    // A partition cut the link while the message was in flight: it is
    // silently lost, and the sender's ack/retry layer must recover it
    // (or fail the send and reroute).
    if (!reachable(from, to)) {
      hot_.net_partition_dropped->inc();
      return;
    }
    nodes_.at(to)->receive(std::move(*env));
  });
  return true;
}

}  // namespace cbps::chord
