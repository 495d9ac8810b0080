#include "cbps/chord/network.hpp"

#include <algorithm>
#include <utility>

#include "cbps/common/hash.hpp"
#include "cbps/common/logging.hpp"
#include "cbps/common/sorted_view.hpp"

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

ChordNetwork::ChordNetwork(sim::Simulator& sim, ChordConfig cfg,
                           std::uint64_t seed,
                           std::unique_ptr<sim::LatencyModel> latency)
    : cfg_(cfg),
      wire_(sim,
            {cfg.ring, cfg.max_route_hops, cfg.reliable_transport(),
             cfg.max_retries, cfg.retry_base},
            seed, cfg.loss_rate, std::move(latency)) {}

ChordNetwork::~ChordNetwork() {
  // Timers owned by nodes reference the simulator; stop them while the
  // nodes still exist.
  for (auto* entry : sorted_view(peers_)) {
    entry->second.node->stop_maintenance();
    entry->second.node->cancel_pending_sends();
  }
}

ChordNode& ChordNetwork::add_node(const std::string& name) {
  // Every id ever used stays taken (departed nodes keep their record),
  // so a full ring would send the salt loop below round forever.
  CBPS_ASSERT_MSG(peers_.size() < cfg_.ring.size(),
                  "ring full: every id of the 2^ring-bits key space is taken");
  Key id = consistent_hash(name, cfg_.ring);
  int salt = 0;
  while (peers_.contains(id)) {
    id = consistent_hash(name + "#" + std::to_string(salt++), cfg_.ring);
  }
  return add_node_with_id(id, name);
}

ChordNode& ChordNetwork::add_node_with_id(Key id, std::string name) {
  CBPS_ASSERT_MSG(!peers_.contains(id), "duplicate node id");
  CBPS_ASSERT(id <= cfg_.ring.max_key());
  Peer& peer = peers_[id];
  peer.sender = &wire_.add_sender(id);
  peer.node = std::make_unique<ChordNode>(*this, peer, id, std::move(name));
  alive_.insert(std::lower_bound(alive_.begin(), alive_.end(), id), id);
  return *peer.node;
}

void ChordNetwork::build_static_ring() {
  const std::vector<Key> ids = alive_ids();
  CBPS_ASSERT(!ids.empty());
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Key id = ids[i];
    ChordNode& node = *peers_.at(id).node;

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
  Peer& peer = peers_.at(id);
  peer.node->leave_gracefully();
  alive_.erase(std::lower_bound(alive_.begin(), alive_.end(), id));
  // The process is still up (lame duck): it keeps retransmitting its
  // pending reliable sends — the state handover above in particular —
  // and may receive the acks for them. See Peer::accepts.
  peer.liveness = Peer::Liveness::kDeparted;
}

void ChordNetwork::crash(Key id) {
  CBPS_ASSERT_MSG(is_alive(id),
                  "crash: node is not alive (double removal?)");
  CBPS_ASSERT_MSG(alive_.size() > 1,
                  "crash: cannot remove the last alive node");
  Peer& peer = peers_.at(id);
  peer.node->go_offline();
  alive_.erase(std::lower_bound(alive_.begin(), alive_.end(), id));
  peer.liveness = Peer::Liveness::kCrashed;
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

void ChordNetwork::set_partition(const std::vector<std::vector<Key>>& groups) {
  for (auto* entry : sorted_view(peers_)) entry->second.partition_group = -1;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (Key id : groups[g]) {
      const auto it = peers_.find(id);
      CBPS_ASSERT_MSG(it != peers_.end(), "set_partition: unknown node");
      it->second.partition_group = static_cast<int>(g);
    }
  }
  partitioned_ = true;
}

void ChordNetwork::heal_partition() { partitioned_ = false; }

void ChordNetwork::set_slow_factor(Key id, double factor) {
  CBPS_ASSERT_MSG(factor >= 1.0, "slow factor must be >= 1");
  const auto it = peers_.find(id);
  CBPS_ASSERT_MSG(it != peers_.end(), "set_slow_factor: unknown node");
  it->second.slow_factor = factor;
}

double ChordNetwork::slow_factor(Key id) const {
  const auto it = peers_.find(id);
  return it == peers_.end() ? 1.0 : it->second.slow_factor;
}

std::size_t ChordNetwork::loss_bad_state_count() const {
  std::size_t n = 0;
  for (Key id : alive_) {
    const auto* ge = dynamic_cast<const sim::GilbertElliottLoss*>(
        peers_.at(id).sender->loss.get());
    if (ge != nullptr && ge->in_bad_state()) ++n;
  }
  return n;
}

bool ChordNetwork::is_alive(Key id) const {
  const auto it = peers_.find(id);
  return it != peers_.end() && it->second.liveness == Peer::Liveness::kAlive;
}

ChordNode* ChordNetwork::node(Key id) {
  const auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : it->second.node.get();
}

const ChordNode* ChordNetwork::node(Key id) const {
  const auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : it->second.node.get();
}

ChordNode& ChordNetwork::alive_node(std::size_t i) {
  CBPS_ASSERT(i < alive_.size());
  return *peers_.at(alive_[i]).node;
}

Key ChordNetwork::oracle_successor(Key key) const {
  CBPS_ASSERT_MSG(!alive_.empty(), "no alive nodes");
  auto it = std::lower_bound(alive_.begin(), alive_.end(), key);
  return it == alive_.end() ? alive_.front() : *it;
}

void ChordNetwork::start_maintenance_all() {
  for (Key id : alive_) peers_.at(id).node->start_maintenance();
}

void ChordNetwork::stop_maintenance_all() {
  for (Key id : alive_) peers_.at(id).node->stop_maintenance();
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

bool ChordNetwork::transmit(ChordNode& from, Key to, WireMessage&& msg,
                            overlay::MessageClass cls) {
  // The hop's only id lookup: the sender brought its own record.
  const auto it = peers_.find(to);
  if (it == peers_.end() || !it->second.accepts(msg)) return false;
  Peer& src = from.peer_;
  Peer& dst = it->second;
  if (partitioned_ && src.partition_group != dst.partition_group) {
    // Partitioned link: the connection attempt fails exactly like a
    // dead peer, so the caller evicts the peer and the successor-list /
    // finger repair machinery takes over inside each side of the cut.
    hot_.net_partition_refused->inc();
    return false;
  }
  const auto sampled =
      wire_.send(*src.sender, cls, wire_size_bytes(ring(), msg));
  // Lost in flight: the hop and bytes are charged, nothing arrives.
  if (!sampled) return true;

  sim::SimTime delay = *sampled;
  // Gray failure: a slow node stretches every message it touches.
  const double slow = std::max(src.slow_factor, dst.slow_factor);
  if (slow > 1.0) {
    delay = static_cast<sim::SimTime>(static_cast<double>(delay) * slow);
  }
  // Integer-microsecond samples.
  hot_.delay_us_by_class[static_cast<std::size_t>(cls)]->add(
      static_cast<double>(delay));
  // The envelope rides inside the event: no allocation per hop.
  auto deliver = [this, src = &src, dst = &dst,
                  env = Envelope{from.id(), from.predecessor().has_value(),
                                 from.predecessor().value_or(0),
                                 std::move(msg)}]() mutable {
    // Destination died in flight — except a lame-duck ack: the departed
    // process is still up, waiting for exactly this.
    if (!dst->accepts(env.msg)) return;
    // A partition cut the link while the message was in flight: it is
    // silently lost, and the sender's ack/retry layer must recover it
    // (or fail the send and reroute).
    if (partitioned_ && src->partition_group != dst->partition_group) {
      hot_.net_partition_dropped->inc();
      return;
    }
    dst->node->receive(std::move(env));
  };
  static_assert(sim::Simulator::Callback::stores_inline<decltype(deliver)>,
                "a Chord hop must not heap-allocate its delivery event");
  static_assert(sizeof(deliver) == sim::kCallbackBytes,
                "sim::kCallbackBytes is sized to this closure, the largest "
                "scheduled per hop: resize it along with the closure");
  // Deliver on the destination's scheduling domain: the receive callback
  // runs as the receiver (the key is still the sender's).
  sim().schedule_for(dst.sender->domain, sim().now() + delay,
                     std::move(deliver));
  return true;
}

}  // namespace cbps::chord
