#include <algorithm>
#include <utility>

#include "cbps/common/hash.hpp"
#include "cbps/pastry/pastry.hpp"

namespace cbps::pastry {

PastryNetwork::PastryNetwork(sim::Simulator& sim, PastryConfig cfg,
                             std::uint64_t seed,
                             std::unique_ptr<sim::LatencyModel> latency)
    : cfg_(cfg),
      wire_(sim, "pastry",
            {cfg.ring, cfg.max_route_hops, cfg.reliable_transport(),
             cfg.max_retries, cfg.retry_base},
            seed, cfg.loss_rate, std::move(latency)) {}

PastryNetwork::~PastryNetwork() {
  // Retry timers reference the simulator and capture node pointers;
  // cancel them while the nodes still exist.
  for (Key id : ids_) nodes_.at(id)->cancel_pending_sends();
}

PastryNode& PastryNetwork::add_node(const std::string& name) {
  // A full ring would send the salt loop below round forever.
  CBPS_ASSERT_MSG(nodes_.size() < cfg_.ring.size(),
                  "ring full: every id of the 2^ring-bits key space is taken");
  Key id = consistent_hash(name, cfg_.ring);
  int salt = 0;
  while (nodes_.contains(id)) {
    id = consistent_hash(name + "#" + std::to_string(salt++), cfg_.ring);
  }
  return add_node_with_id(id, name);
}

PastryNode& PastryNetwork::add_node_with_id(Key id, std::string name) {
  CBPS_ASSERT(!nodes_.contains(id));
  auto node = std::make_unique<PastryNode>(*this, wire_.add_sender(id), id,
                                           std::move(name));
  PastryNode& ref = *node;
  nodes_.emplace(id, std::move(node));
  ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), id), id);
  return ref;
}

void PastryNetwork::build_static_ring() {
  const std::vector<Key>& sorted = ids_;
  const std::size_t n = sorted.size();
  CBPS_ASSERT(n > 0);
  const unsigned m = cfg_.ring.bits();

  for (std::size_t i = 0; i < n; ++i) {
    const Key id = sorted[i];

    std::vector<Key> pred;
    std::vector<Key> succ;
    for (std::size_t j = 1; j <= cfg_.leaf_set_size && j < n; ++j) {
      pred.push_back(sorted[(i + n - j) % n]);
      succ.push_back(sorted[(i + j) % n]);
    }

    // Routing table: row r holds some node sharing the top r bits with
    // `id` and differing at bit r (bit 0 = most significant). The id
    // subtree with that prefix is a contiguous key interval.
    std::vector<std::optional<Key>> table(m);
    for (unsigned r = 0; r < m; ++r) {
      const unsigned low_bits = m - r - 1;
      const Key prefix = id >> (low_bits + 1);
      const Key flipped_bit = ((id >> low_bits) & 1) ^ 1;
      const Key lo = ((prefix << 1) | flipped_bit) << low_bits;
      const Key hi = lo | ((Key{1} << low_bits) - 1);
      auto it = std::lower_bound(ids_.begin(), ids_.end(), lo);
      if (it != ids_.end() && *it <= hi) {
        table[r] = *it;
      }
    }
    nodes_.at(id)->install_state(std::move(pred), std::move(succ),
                                 std::move(table));
  }
}

PastryNode* PastryNetwork::node(Key id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

PastryNode& PastryNetwork::node_at(std::size_t i) {
  CBPS_ASSERT(i < ids_.size());
  return *nodes_.at(ids_[i]);
}

Key PastryNetwork::oracle_successor(Key key) const {
  CBPS_ASSERT(!ids_.empty());
  auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  return it == ids_.end() ? ids_.front() : *it;
}

bool PastryNetwork::transmit(PastryNode& from, Key to,
                             overlay::DataMessage&& msg,
                             overlay::MessageClass cls) {
  const auto it = nodes_.find(to);
  if (it == nodes_.end()) return false;
  PastryNode& dst = *it->second;
  const std::size_t bytes = std::visit(
      [this](const auto& m) { return overlay::wire_size_bytes(ring(), m); },
      msg);
  const auto delay = wire_.send(from.sender(), cls, bytes);
  // Lost in flight: the hop and bytes are charged, nothing arrives.
  if (!delay) return true;

  // The message rides inside the event: no allocation per hop. It is a
  // named struct passed as a temporary, not a named lambda: GCC 12 at
  // -O3 reports -Wmaybe-uninitialized on destroying the moved-from
  // lambda's message variant.
  struct Deliver {
    PastryNode* dst;
    Key from;
    overlay::DataMessage msg;
    void operator()() { dst->receive(from, std::move(msg)); }
  };
  static_assert(sim::Simulator::Callback::stores_inline<Deliver>,
                "a Pastry hop must not heap-allocate its delivery event");
  sim().schedule_for(dst.domain(), sim().now() + *delay,
                     Deliver{&dst, from.id(), std::move(msg)});
  return true;
}

}  // namespace cbps::pastry
