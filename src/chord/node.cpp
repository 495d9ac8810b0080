#include "cbps/chord/node.hpp"

#include <algorithm>
#include <utility>

#include "cbps/chord/network.hpp"
#include "cbps/common/logging.hpp"
#include "cbps/common/sorted_view.hpp"

namespace cbps::chord {

using overlay::MessageClass;
using overlay::PayloadPtr;

ChordNode::ChordNode(ChordNetwork& net, Peer& peer, Key id, std::string name)
    : wire_(net.wire()),
      id_(id),
      name_(std::move(name)),
      sender_(*peer.sender),
      net_(net),
      peer_(peer),
      fingers_(net.ring(), id),
      cache_(net.ring(), net.config().location_cache_size) {}

const ChordConfig& ChordNode::config() const { return net_.config(); }

sim::SimTime ChordNode::retry_timeout(const overlay::RttEstimate& rtt) const {
  if (!rtt.valid) return config().retry_base;
  const double rto = rtt.srtt_us + 4.0 * rtt.rttvar_us;
  return std::clamp(static_cast<sim::SimTime>(rto), kRtoMin, kRtoMax);
}

void ChordNode::go_offline() {
  offline_ = true;
  stop_maintenance();
  cancel_pending_sends();
}

void ChordNode::on_peer_dead(Key peer) {
  fingers_.evict(peer);
  cache_.evict(peer);
  std::erase(succs_, peer);
  if (has_pred_ && pred_ == peer) has_pred_ = false;
  remember_contact(peer);
}

void ChordNode::remember_contact(Key peer) {
  if (peer == id_ || remembered_.size() >= kMaxRemembered) return;
  remembered_.insert(peer);
}

void ChordNode::probe_remembered() {
  // Raw transmits on purpose: a probe that fails (the contact is truly
  // dead, or the partition still stands) must not re-trigger eviction —
  // the contact is already evicted; we are fishing for its return.
  // Probe in key order: each transmit draws wire randomness, so probe
  // order must be a function of the remembered set, not hash layout (D1).
  for (const Key* peer : sorted_view(remembered_)) {
    net_.transmit(*this, *peer, GetNeighborsReq{id_}, MessageClass::kControl);
  }
}

// ---------------------------------------------------------------------------
// Next-hop selection
// ---------------------------------------------------------------------------

std::optional<Key> ChordNode::closest_preceding(Key key) const {
  // Best candidate: maximal ring distance from us while still in
  // (id, key]. Scans fingers, successor list and predecessor (O(log n)
  // candidates); the location cache contributes only its own best, found
  // by ordered lookup. Distinct ids have distinct distances, so the scan
  // order cannot change the winner.
  std::optional<Key> best;
  std::uint64_t best_dist = 0;
  const auto consider = [&](Key c) {
    if (c == id_) return;
    if (!ring().in_open_closed(id_, key, c)) return;
    const std::uint64_t d = ring().distance(id_, c);
    if (!best || d > best_dist) {
      best = c;
      best_dist = d;
    }
  };
  for (std::size_t i = 0; i < fingers_.size(); ++i) {
    if (auto f = fingers_.get(i)) consider(*f);
  }
  for (Key s : succs_) consider(s);
  if (has_pred_) consider(pred_);
  if (const auto c = cache_.closest_preceding(id_, key)) consider(*c);
  return best;
}

std::optional<Key> ChordNode::next_hop(Key key) {
  if (covers(key)) return std::nullopt;
  // Location-cache shortcut: a peer we believe covers `key` can take the
  // message directly (it re-routes if the belief turned stale).
  if (auto owner = cache_.find_owner(key)) {
    if (*owner != id_) return owner;
  }
  if (!succs_.empty() &&
      ring().in_open_closed(id_, succs_.front(), key)) {
    return succs_.front();
  }
  if (auto c = closest_preceding(key)) return c;
  if (!succs_.empty()) return succs_.front();
  return std::nullopt;
}

const std::vector<Key>& ChordNode::mcast_candidates() {
  // Delegation candidates: the distinct finger nodes (f_1 is the
  // successor in a converged ring) plus the successor, sorted by ring
  // distance. Rebuilt only when the fingers or the successor moved.
  const std::optional<Key> succ =
      succs_.empty() ? std::nullopt : std::optional<Key>(succs_.front());
  if (candidates_valid_ && candidates_finger_version_ == fingers_.version() &&
      candidates_succ_ == succ) {
    return candidates_;
  }
  candidates_ = fingers_.distinct_nodes();
  if (succ && std::find(candidates_.begin(), candidates_.end(), *succ) ==
                  candidates_.end()) {
    candidates_.push_back(*succ);
    std::sort(candidates_.begin(), candidates_.end(), [this](Key a, Key b) {
      return ring().distance(id_, a) < ring().distance(id_, b);
    });
  }
  candidates_valid_ = true;
  candidates_finger_version_ = fingers_.version();
  candidates_succ_ = succ;
  return candidates_;
}

// ---------------------------------------------------------------------------
// Lookup protocol
// ---------------------------------------------------------------------------

void ChordNode::handle_find_successor(FindSuccessorReq msg) {
  if (covers(msg.target)) {
    if (msg.reply_to == id_) {
      handle_find_successor_reply(
          FindSuccessorReply{msg.target, id_, msg.req_id});
      return;
    }
    transmit(msg.reply_to, FindSuccessorReply{msg.target, id_, msg.req_id},
             MessageClass::kControl);
    return;
  }
  if (msg.hops >= config().max_route_hops) {
    net_.hot().lookup_dropped->inc();
    return;
  }
  for (;;) {
    if (covers(msg.target)) {
      handle_find_successor(msg);  // eviction made us the owner
      return;
    }
    const auto nh = next_hop(msg.target);
    if (!nh) {
      net_.hot().lookup_no_candidate->inc();
      return;
    }
    FindSuccessorReq out = msg;
    out.hops = msg.hops + 1;
    if (transmit(*nh, std::move(out), MessageClass::kControl)) return;
  }
}

void ChordNode::handle_find_successor_reply(const FindSuccessorReply& msg) {
  if (msg.req_id == kJoinReqId) {
    if (msg.owner == id_ && joining_) {
      // A stale routing path bounced the lookup back to us before we
      // were integrated; retry through the bootstrap after a beat.
      net_.hot().join_retry->inc();
      const Key bootstrap = join_bootstrap_;
      const common::ActorScope as(domain());
      net_.sim().schedule_after(sim::sec(1),
                                [this, bootstrap] { begin_join(bootstrap); });
      return;
    }
    // Join step 2: we found our successor.
    set_successor_front(msg.owner);
    if (msg.owner != id_) {
      transmit(msg.owner, PullStateReq{0, id_, id_},
               MessageClass::kStateTransfer);
      transmit(msg.owner, GetNeighborsReq{id_}, MessageClass::kControl);
      transmit(msg.owner, NotifyPredMsg{}, MessageClass::kControl);
    }
    joining_ = false;
    if (config().stabilize_period > 0) start_maintenance();
    return;
  }
  auto it = pending_finger_fixes_.find(msg.req_id);
  if (it == pending_finger_fixes_.end()) return;
  const std::size_t finger = it->second;
  pending_finger_fixes_.erase(it);
  fingers_.set(finger, msg.owner);
}

// ---------------------------------------------------------------------------
// Stabilization (Chord's periodic maintenance)
// ---------------------------------------------------------------------------

void ChordNode::start_maintenance() {
  if (maintenance_timer_ != 0 || config().stabilize_period == 0) return;
  // Self-owned periodic timer; see transmit_reliable for why the scope.
  const common::ActorScope as(domain());
  maintenance_timer_ = net_.sim().add_timer(config().stabilize_period,
                                            [this] { maintenance_tick(); });
}

void ChordNode::stop_maintenance() {
  if (maintenance_timer_ == 0) return;
  net_.sim().cancel_timer(maintenance_timer_);
  maintenance_timer_ = 0;
}

void ChordNode::maintenance_tick() {
  check_predecessor();
  stabilize();
  fix_fingers();
  probe_remembered();
}

void ChordNode::check_predecessor() {
  if (!has_pred_ || pred_ == id_) return;
  // A failed transmit evicts the dead predecessor via on_peer_dead.
  transmit(pred_, GetNeighborsReq{id_}, MessageClass::kControl);
}

void ChordNode::stabilize() {
  while (!succs_.empty()) {
    const Key s = succs_.front();
    if (s == id_) {
      succs_.erase(succs_.begin());
      continue;
    }
    if (transmit(s, GetNeighborsReq{id_}, MessageClass::kControl)) return;
  }
}

void ChordNode::fix_fingers() {
  for (std::size_t i = 0; i < fingers_.size(); ++i) {
    const Key target = fingers_.start(i);
    if (covers(target)) {
      fingers_.set(i, id_);
      continue;
    }
    const std::uint64_t req = next_req_id_++;
    pending_finger_fixes_[req] = i;
    handle_find_successor(FindSuccessorReq{target, id_, req, 0});
  }
}

void ChordNode::handle_get_neighbors(const GetNeighborsReq& msg) {
  if (msg.reply_to == id_) return;
  transmit(msg.reply_to, GetNeighborsReply{has_pred_, pred_, succs_},
           MessageClass::kControl);
}

void ChordNode::handle_get_neighbors_reply(const GetNeighborsReply& msg,
                                           Key from) {
  if (succs_.empty() || from != succs_.front()) {
    // A reply from our predecessor's liveness probe or a stale
    // successor; still useful as a predecessor hint while joining.
    if (!has_pred_ && msg.has_pred && msg.pred != id_) {
      adopt_predecessor(msg.pred);
    }
    return;
  }
  // Standard stabilize: if succ's predecessor sits between us, it is our
  // better successor.
  if (msg.has_pred && msg.pred != id_ &&
      ring().in_open_open(id_, succs_.front(), msg.pred)) {
    set_successor_front(msg.pred);
  } else {
    // Refresh the successor list from the successor's own list.
    std::vector<Key> fresh{succs_.front()};
    for (Key s : msg.successors) {
      if (s == id_) continue;
      if (std::find(fresh.begin(), fresh.end(), s) == fresh.end()) {
        fresh.push_back(s);
      }
      if (fresh.size() >= config().successor_list_size) break;
    }
    succs_ = std::move(fresh);
  }
  if (!has_pred_ && msg.has_pred && msg.pred != id_) {
    adopt_predecessor(msg.pred);
  }
  if (!succs_.empty() && succs_.front() != id_) {
    transmit(succs_.front(), NotifyPredMsg{}, MessageClass::kControl);
  }
}

void ChordNode::handle_notify_pred(Key candidate) {
  if (candidate == id_) return;
  if (!has_pred_ || ring().in_open_open(pred_, id_, candidate)) {
    adopt_predecessor(candidate);
  }
}

void ChordNode::adopt_predecessor(Key candidate) {
  if (has_pred_ && candidate == pred_) return;
  if (has_pred_ && app_ != nullptr &&
      ring().in_open_open(pred_, id_, candidate)) {
    // Our covered range shrank from (pred, id] to (candidate, id]; the
    // keys in (pred, candidate] belong to the new predecessor now.
    // Push the exported state to it: during a normal join the new owner
    // already pulled a copy (the import dedupes), but during a
    // post-partition ring merge this transfer is the only path that
    // returns the orphaned range's subscriptions to their owner.
    PayloadPtr st = app_->export_state(pred_, candidate, /*remove=*/true);
    if (st != nullptr && candidate != id_) {
      transmit(candidate, StateTransferMsg{std::move(st)},
               MessageClass::kStateTransfer);
    }
  }
  pred_ = candidate;
  has_pred_ = true;
}

// ---------------------------------------------------------------------------
// Join / leave
// ---------------------------------------------------------------------------

void ChordNode::begin_join(Key bootstrap) {
  CBPS_ASSERT_MSG(bootstrap != id_, "cannot bootstrap from self");
  if (offline_) return;  // crashed while a join retry was scheduled
  joining_ = true;
  join_bootstrap_ = bootstrap;
  transmit(bootstrap, FindSuccessorReq{id_, id_, kJoinReqId, 0},
           MessageClass::kControl);
}

void ChordNode::handle_pull_state(const PullStateReq& msg) {
  PayloadPtr st;
  if (app_ != nullptr) {
    const Key lo = has_pred_ ? pred_ : id_;
    st = app_->export_state(lo, msg.range_hi, /*remove=*/false);
  }
  transmit(msg.reply_to, StateTransferMsg{std::move(st)},
           MessageClass::kStateTransfer);
}

void ChordNode::handle_pred_leave(const PredLeaveMsg& msg, Key from) {
  // Our predecessor left and handed us its range and state.
  on_peer_dead(from);
  if (msg.has_new_pred && msg.new_pred != id_) {
    pred_ = msg.new_pred;
    has_pred_ = true;
  } else {
    has_pred_ = false;
  }
  if (msg.state != nullptr && app_ != nullptr) app_->import_state(msg.state);
}

void ChordNode::handle_succ_leave(const SuccLeaveMsg& msg, Key from) {
  on_peer_dead(from);
  if (msg.new_succ != id_) set_successor_front(msg.new_succ);
}

void ChordNode::leave_gracefully() {
  stop_maintenance();
  // Pending reliable sends are deliberately NOT cancelled: the leaver
  // lingers as a lame duck, retransmitting its in-flight messages (and
  // the handover below) until they are acked or the budget runs out.
  // The network keeps delivering acks to departed-but-not-crashed
  // nodes for exactly this reason.
  const Key succ = successor_id();
  if (succ == id_) return;  // alone; nothing to hand over
  PayloadPtr st;
  if (app_ != nullptr) {
    const Key lo = has_pred_ ? pred_ : id_;
    st = app_->export_state(lo, id_, /*remove=*/true);
  }
  transmit(succ, PredLeaveMsg{has_pred_, pred_, std::move(st)},
           MessageClass::kStateTransfer);
  if (has_pred_ && pred_ != id_) {
    transmit(pred_, SuccLeaveMsg{succ}, MessageClass::kControl);
  }
}

void ChordNode::install_state(std::optional<Key> pred,
                              std::vector<Key> succs,
                              std::vector<Key> finger_nodes) {
  has_pred_ = pred.has_value();
  pred_ = pred.value_or(0);
  std::erase(succs, id_);
  succs_ = std::move(succs);
  CBPS_ASSERT(finger_nodes.size() == fingers_.size());
  for (std::size_t i = 0; i < finger_nodes.size(); ++i) {
    fingers_.set(i, finger_nodes[i]);
  }
  joining_ = false;
}

void ChordNode::set_successor_front(Key s) {
  if (s == id_) return;
  std::erase(succs_, s);
  succs_.insert(succs_.begin(), s);
  if (succs_.size() > config().successor_list_size) {
    succs_.resize(config().successor_list_size);
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void ChordNode::receive(Envelope&& env) {
  // A crashed process reads nothing off the wire (a message can already
  // be scheduled for delivery when the crash lands).
  if (offline_) return;

  // Log lines emitted while handling this message carry our identity.
  const logctx::ScopedNode log_node(id_);

  // Passive learning: every envelope reveals the sender and its claimed
  // covered range. Senders with no predecessor are not ring-integrated
  // (joining nodes) and must not become routing candidates.
  if (env.from_has_pred) cache_.insert(env.from, env.from_pred);

  // An evicted contact is talking to us again — the partition healed (or
  // the eviction was spurious); stop probing for it.
  if (!remembered_.empty()) remembered_.erase(env.from);

  // Opportunistic ring repair: if an integrated sender sits between us
  // and our current successor, the ring merged (or healed) and the
  // sender is our better successor. Mirrors the stabilize rule, but
  // fires on every message instead of once per maintenance period.
  // An isolated node (every peer evicted: empty successor list, or
  // collapsed to itself) takes any integrated sender as its way back in.
  const bool isolated = succs_.empty() || succs_.front() == id_;
  if (env.from_has_pred && !joining_ && env.from != id_ &&
      (isolated ||
       ring().in_open_open(id_, succs_.front(), env.from))) {
    set_successor_front(env.from);
    transmit(env.from, NotifyPredMsg{}, MessageClass::kControl);
  }

  if (!ack_and_dedup(env.from, env.msg)) return;

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, overlay::AckMsg>) {
          handle_data(env.from, m);
        } else if constexpr (overlay::is_data_message_v<T>) {
          handle_data(std::move(m));
        } else if constexpr (std::is_same_v<T, OwnerInfoMsg>) {
          cache_.insert(m.owner, m.owner_range_lo);
        } else if constexpr (std::is_same_v<T, FindSuccessorReq>) {
          handle_find_successor(std::move(m));
        } else if constexpr (std::is_same_v<T, FindSuccessorReply>) {
          handle_find_successor_reply(m);
        } else if constexpr (std::is_same_v<T, GetNeighborsReq>) {
          handle_get_neighbors(m);
        } else if constexpr (std::is_same_v<T, GetNeighborsReply>) {
          handle_get_neighbors_reply(m, env.from);
        } else if constexpr (std::is_same_v<T, NotifyPredMsg>) {
          handle_notify_pred(env.from);
        } else if constexpr (std::is_same_v<T, PullStateReq>) {
          handle_pull_state(m);
        } else if constexpr (std::is_same_v<T, StateTransferMsg>) {
          if (m.state != nullptr && app_ != nullptr) {
            app_->import_state(m.state);
          }
        } else if constexpr (std::is_same_v<T, PredLeaveMsg>) {
          handle_pred_leave(m, env.from);
        } else if constexpr (std::is_same_v<T, SuccLeaveMsg>) {
          handle_succ_leave(m, env.from);
        }
      },
      env.msg);
}

}  // namespace cbps::chord
