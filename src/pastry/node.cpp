#include <algorithm>
#include <type_traits>
#include <utility>

#include "cbps/common/logging.hpp"
#include "cbps/pastry/pastry.hpp"

namespace cbps::pastry {

PastryNode::PastryNode(PastryNetwork& net, overlay::Wire::Sender& sender,
                       Key id, std::string name)
    : DataPlane(net.wire(), sender, id, std::move(name)), net_(net) {
  table_.resize(net_.ring().bits());
}

Key PastryNode::successor_id() const {
  return leaf_succ_.empty() ? id_ : leaf_succ_.front();
}

Key PastryNode::predecessor_id() const {
  return leaf_pred_.empty() ? id_ : leaf_pred_.front();
}

void PastryNode::install_state(std::vector<Key> leaf_pred,
                               std::vector<Key> leaf_succ,
                               std::vector<std::optional<Key>> table) {
  CBPS_ASSERT(table.size() == ring().bits());
  leaf_pred_ = std::move(leaf_pred);
  leaf_succ_ = std::move(leaf_succ);
  table_ = std::move(table);

  known_.clear();
  known_.insert(known_.end(), leaf_succ_.begin(), leaf_succ_.end());
  known_.insert(known_.end(), leaf_pred_.begin(), leaf_pred_.end());
  for (const auto& e : table_) {
    if (e) known_.push_back(*e);
  }
  std::sort(known_.begin(), known_.end(), [this](Key a, Key b) {
    return ring().distance(id_, a) < ring().distance(id_, b);
  });
  known_.erase(std::unique(known_.begin(), known_.end()), known_.end());
  std::erase(known_, id_);
}

bool PastryNode::wire_transmit(Key to, overlay::DataMessage&& msg,
                               overlay::MessageClass cls) {
  return net_.transmit(*this, to, std::move(msg), cls);
}

void PastryNode::on_peer_dead(Key /*peer*/) {
  // Every routing entry names a node of the static topology, and nodes
  // never leave it: a refused transmit is a broken invariant, and
  // retrying would loop forever on the same candidate.
  CBPS_ASSERT_MSG(false, "static Pastry topology: every peer is alive");
}

unsigned PastryNode::shared_prefix_bits(Key key) const {
  const unsigned m = ring().bits();
  const Key diff = (key ^ id_) & ring().max_key();
  if (diff == 0) return m;
  unsigned shared = 0;
  for (unsigned bit = m; bit-- > 0;) {
    if ((diff >> bit) & 1) break;
    ++shared;
  }
  return shared;
}

std::optional<Key> PastryNode::next_hop(Key key) {
  if (covers(key)) return std::nullopt;

  // Leaf-set completion: if the key falls inside the leaf span, hand it
  // to the leaf that covers it (successor-of-key among the leaves).
  if (!leaf_succ_.empty() &&
      ring().in_open_closed(id_, leaf_succ_.back(), key)) {
    for (Key l : leaf_succ_) {
      if (ring().in_open_closed(id_, l, key)) return l;
    }
  }

  // Prefix routing: the row-r entry shares r bits with us and differs at
  // bit r; if `key` also differs from us exactly at bit r, that entry is
  // one prefix digit closer to key.
  const unsigned shared = shared_prefix_bits(key);
  if (shared < ring().bits() && table_[shared]) {
    return table_[shared];
  }

  // Rare case: no table entry — fall back to the closest known node
  // strictly preceding the key (guaranteed ring progress, like Chord).
  std::optional<Key> best;
  std::uint64_t best_dist = 0;
  for (Key c : known_) {
    if (!ring().in_open_closed(id_, key, c)) continue;
    const std::uint64_t d = ring().distance(id_, c);
    if (!best || d > best_dist) {
      best = c;
      best_dist = d;
    }
  }
  if (best) return best;
  if (!leaf_succ_.empty()) return leaf_succ_.front();
  return std::nullopt;
}

void PastryNode::receive(Key from, overlay::DataMessage&& msg) {
  const logctx::ScopedNode log_node(id_);
  if (!ack_and_dedup(from, msg)) return;
  std::visit(
      [this, from](auto&& m) {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                     overlay::AckMsg>) {
          handle_data(from, m);
        } else {
          handle_data(std::move(m));
        }
      },
      std::move(msg));
}

}  // namespace cbps::pastry

template class cbps::overlay::DataPlane<cbps::overlay::DataMessage>;
