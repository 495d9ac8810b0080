// Wire-level messages exchanged between Chord nodes.
//
// Everything a node sends travels as one of these variants inside an
// Envelope that also carries the sender's identity and (claimed) covered
// range — receivers learn ring structure passively from every message.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "cbps/common/key_range.hpp"
#include "cbps/common/types.hpp"
#include "cbps/overlay/payload.hpp"

namespace cbps::chord {

/// Application unicast being routed to the node covering `target`
/// (paper's send(m, k)).
struct RouteMsg {
  Key target = 0;
  overlay::PayloadPtr payload;
  std::uint32_t hops = 0;  // transmissions so far
  Key origin = 0;          // node that issued the send()
  std::uint64_t seq = 0;   // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the previous hop
};

/// Native multicast (paper §4.3.1, Figure 4). `targets` is the part of
/// the original key runs delegated to the recipient, in ring order from
/// the delegating sender.
struct McastMsg {
  std::vector<KeyRange> targets;
  overlay::PayloadPtr payload;
  std::uint32_t hops = 0;  // delegation depth guard
  std::uint64_t seq = 0;   // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the delegating split
};

/// Conservative unicast-based one-to-many baseline: the remaining keys
/// are visited in ring order, hopping successor-by-successor.
struct ChainMsg {
  std::vector<Key> targets;  // sorted in ring order from targets.front()
  overlay::PayloadPtr payload;
  std::uint32_t hops = 0;
  std::uint64_t seq = 0;     // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the previous hop
};

/// Direct one-hop application message to a ring neighbor (§4.3.2
/// collecting uses these).
struct NeighborMsg {
  overlay::PayloadPtr payload;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Hop-level acknowledgment of a reliable application message. The
/// field is deliberately not named `seq` so acks never look like
/// ack-requesting traffic themselves.
struct AckMsg {
  std::uint64_t acked_seq = 0;
};

/// Routing feedback: `owner` covers (owner_range_lo, owner] and delivered
/// a route for the origin; the origin caches this.
struct OwnerInfoMsg {
  Key owner = 0;
  Key owner_range_lo = 0;
};

/// Lookup request: find the node covering `target`; routed like a
/// RouteMsg, the owner replies directly to `reply_to`.
struct FindSuccessorReq {
  Key target = 0;
  Key reply_to = 0;
  std::uint64_t req_id = 0;
  std::uint32_t hops = 0;
};

struct FindSuccessorReply {
  Key target = 0;
  Key owner = 0;
  std::uint64_t req_id = 0;
};

/// Stabilization: ask a node for its predecessor and successor list.
struct GetNeighborsReq {
  Key reply_to = 0;
};

struct GetNeighborsReply {
  bool has_pred = false;
  Key pred = 0;
  std::vector<Key> successors;
};

/// Chord notify(): "I believe I am your predecessor."
struct NotifyPredMsg {};

/// Ask the recipient (our successor) for the application state of keys in
/// (range_lo, range_hi]; used when joining.
struct PullStateReq {
  Key range_lo = 0;
  Key range_hi = 0;
  Key reply_to = 0;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Application state produced by OverlayApp::export_state.
struct StateTransferMsg {
  overlay::PayloadPtr state;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Graceful leave: sent to the successor with the leaver's state.
struct PredLeaveMsg {
  bool has_new_pred = false;
  Key new_pred = 0;
  overlay::PayloadPtr state;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Graceful leave: sent to the predecessor with the leaver's successor.
struct SuccLeaveMsg {
  Key new_succ = 0;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

using WireMessage =
    std::variant<RouteMsg, McastMsg, ChainMsg, NeighborMsg, AckMsg,
                 OwnerInfoMsg, FindSuccessorReq, FindSuccessorReply,
                 GetNeighborsReq, GetNeighborsReply, NotifyPredMsg,
                 PullStateReq, StateTransferMsg, PredLeaveMsg, SuccLeaveMsg>;

/// Pointer to the reliability sequence field of ack-eligible message
/// types (application traffic plus the state-carrying membership
/// messages: RouteMsg, McastMsg, ChainMsg, NeighborMsg, PullStateReq,
/// StateTransferMsg, PredLeaveMsg, SuccLeaveMsg), nullptr for
/// everything else. AckMsg is excluded by its field name.
inline std::uint64_t* seq_field(WireMessage& msg) {
  return std::visit(
      [](auto& m) -> std::uint64_t* {
        if constexpr (requires { m.seq; }) {
          return &m.seq;
        } else {
          return nullptr;
        }
      },
      msg);
}

inline const std::uint64_t* seq_field(const WireMessage& msg) {
  return seq_field(const_cast<WireMessage&>(msg));
}

/// Sender identity attached to every transmission.
struct Envelope {
  Key from = 0;
  bool from_has_pred = false;
  Key from_pred = 0;  // sender's covered range is (from_pred, from]
  WireMessage msg;
};

}  // namespace cbps::chord
