#include "cbps/chord/network.hpp"

#include <algorithm>
#include <utility>

#include "cbps/common/hash.hpp"
#include "cbps/common/logging.hpp"

namespace cbps::chord {

ChordNetwork::HotStats::HotStats(metrics::Registry& reg)
    : send_to_dead(reg.counter_handle("chord.send_to_dead")),
      retransmits(reg.counter_handle("chord.retransmits")),
      send_failed(reg.counter_handle("chord.send_failed")),
      dup_suppressed(reg.counter_handle("chord.dup_suppressed")),
      route_dropped(reg.counter_handle("chord.route_dropped")),
      route_no_candidate(reg.counter_handle("chord.route_no_candidate")),
      mcast_dropped_keys(reg.counter_handle("chord.mcast_dropped_keys")),
      chain_dropped(reg.counter_handle("chord.chain_dropped")),
      chain_no_candidate(reg.counter_handle("chord.chain_no_candidate")),
      lookup_dropped(reg.counter_handle("chord.lookup_dropped")),
      lookup_no_candidate(reg.counter_handle("chord.lookup_no_candidate")),
      net_partition_refused(
          reg.counter_handle("chord.net.partition_refused")),
      net_partition_dropped(
          reg.counter_handle("chord.net.partition_dropped")),
      net_lost(reg.counter_handle("chord.net.lost")),
      join_retry(reg.counter_handle("chord.join_retry")),
      route_hops(reg.histogram_handle("chord.route_hops")),
      mcast_fanout(reg.histogram_handle("chord.mcast_fanout")),
      retries_per_send(reg.histogram_handle("chord.retries_per_send")) {
  for (std::size_t c = 0; c < overlay::kMessageClassCount; ++c) {
    net_lost_by_class[c] = reg.counter_handle(
        std::string("chord.net.lost.") +
        std::string(overlay::to_string(static_cast<overlay::MessageClass>(c))));
    delay_us_by_class[c] = reg.histogram_handle(
        std::string("chord.net.delay_us.") +
        std::string(overlay::to_string(static_cast<overlay::MessageClass>(c))));
  }
}

namespace {

// SplitMix64 finalizer: decorrelates the per-node wire-stream seeds
// derived from (run seed, node id).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ChordNetwork::ChordNetwork(sim::SimulatorBase& sim, ChordConfig cfg,
                           std::uint64_t seed,
                           std::unique_ptr<sim::LatencyModel> latency)
    : sim_(sim),
      cfg_(cfg),
      seed_(seed),
      rng_(seed),
      latency_(latency ? std::move(latency) : sim::default_latency()) {
  if (cfg_.loss_rate > 0.0) {
    loss_ = std::make_unique<sim::UniformLoss>(cfg_.loss_rate);
  }
}

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
  // Per-sender wire streams seeded from (run seed, node id): the draw
  // sequences are independent of registration order and engine choice.
  // Dedicated loss stream so enabling loss never perturbs latency.
  WireState ws{sim_.register_domain(), Rng(mix64(seed_ ^ mix64(id))),
               Rng(mix64(seed_ ^ mix64(id) ^ 0x9e3779b97f4a7c15ull)),
               loss_ ? loss_->clone() : nullptr};
  auto node =
      std::make_unique<ChordNode>(*this, id, std::move(name), ws.domain);
  ChordNode& ref = *node;
  nodes_.emplace(id, std::move(node));
  wire_.emplace(id, std::move(ws));
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

void ChordNetwork::set_loss_model(std::unique_ptr<sim::LossModel> model) {
  loss_ = std::move(model);
  // detlint: unordered-ok(every wire gets an identical fresh clone; commutative)
  for (auto& [_, ws] : wire_) {
    ws.loss = loss_ ? loss_->clone() : nullptr;
  }
}

std::size_t ChordNetwork::loss_bad_state_count() const {
  std::size_t n = 0;
  for (Key id : alive_) {
    const auto it = wire_.find(id);
    if (it == wire_.end()) continue;
    const auto* ge =
        dynamic_cast<const sim::GilbertElliottLoss*>(it->second.loss.get());
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

/// Approximate wire size of a message: the application payload plus
/// 8 bytes per carried key (an m-cast message is charged for every key
/// its runs cover).
std::size_t wire_size_bytes(RingParams ring, const WireMessage& msg) {
  return std::visit(
      [ring](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RouteMsg>) {
          return m.payload->size_bytes() + 8;
        } else if constexpr (std::is_same_v<T, McastMsg>) {
          return m.payload->size_bytes() + 8 * key_count(ring, m.targets);
        } else if constexpr (std::is_same_v<T, ChainMsg>) {
          return m.payload->size_bytes() + 8 * m.targets.size();
        } else if constexpr (std::is_same_v<T, NeighborMsg>) {
          return m.payload->size_bytes();
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
        std::holds_alternative<AckMsg>(msg) && departed_.contains(to);
    if (!ack_to_lame_duck) return false;
  }
  if (!reachable(from, to)) {
    // Partitioned link: the connection attempt fails exactly like a
    // dead peer, so the caller evicts the peer and the successor-list /
    // finger repair machinery takes over inside each side of the cut.
    hot_.net_partition_refused->inc();
    return false;
  }
  traffic_.record_hop(cls, wire_size_bytes(ring(), msg));

  // All wire randomness comes from the *sender's* streams: transmit is
  // only ever called from the sending node's own execution context (or
  // from the exclusive global context), so the draws race with nothing
  // and replay identically at any shard count.
  WireState& src_wire = wire_.at(from);
  if (src_wire.loss != nullptr && src_wire.loss->drop(src_wire.loss_rng)) {
    // The message hit the wire (hop/bytes recorded) but never arrives.
    hot_.net_lost->inc();
    hot_.net_lost_by_class[static_cast<std::size_t>(cls)]->inc();
    return true;
  }

  const ChordNode& src = *nodes_.at(from);
  auto env = std::make_shared<Envelope>();
  env->from = from;
  env->from_has_pred = src.predecessor().has_value();
  env->from_pred = src.predecessor().value_or(0);
  env->msg = std::move(msg);

  sim::SimTime delay = latency_->sample(src_wire.latency_rng);
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
  sim_.schedule_for(wire_.at(to).domain, sim_.now() + delay,
                    [this, from, to, env] {
    // Destination died in flight — except a lame-duck ack: the departed
    // process is still up, waiting for exactly this.
    if (!is_alive(to) && !(std::holds_alternative<AckMsg>(env->msg) &&
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

void ChordNetwork::self_deliver(std::function<void()> action) {
  sim_.schedule_after(0, std::move(action));
}

}  // namespace cbps::chord
