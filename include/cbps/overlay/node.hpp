// Overlay-facing interfaces between the key-based routing substrate and
// the CB-pub/sub layer (paper Figure 2).
//
// The pub/sub layer is written only against these interfaces (the
// paper's §4.1 API); the Chord library implements them, and a test can
// stand in a fake overlay of its own.
#pragma once

#include <span>
#include <vector>

#include "cbps/common/exec_context.hpp"
#include "cbps/common/key_range.hpp"
#include "cbps/common/ring.hpp"
#include "cbps/common/types.hpp"
#include "cbps/overlay/payload.hpp"

namespace cbps::overlay {

/// Upcalls from the overlay into the application layer. One instance is
/// attached per overlay node.
class OverlayApp {
 public:
  virtual ~OverlayApp() = default;

  /// A unicast message routed to `key` arrived; this node covers `key`.
  virtual void on_deliver(Key key, const PayloadPtr& payload) = 0;

  /// An m-cast message arrived; `covered` is the subset of the multicast
  /// target keys this node covers (non-empty, delivered at most once per
  /// m-cast invocation, §4.3.1).
  virtual void on_deliver_mcast(std::span<const Key> covered,
                                const PayloadPtr& payload) = 0;

  /// The overlay is handing the key range (range_lo, range_hi] to another
  /// node (join) or taking it over (leave). The app must return its state
  /// for those keys as an opaque payload; if `remove`, it must also drop
  /// that state locally.
  virtual PayloadPtr export_state(Key range_lo, Key range_hi,
                                  bool remove) = 0;

  /// State produced by export_state() on another node arrives here.
  virtual void import_state(const PayloadPtr& state) = 0;
};

/// The primitives the overlay offers the application — the paper's
/// send(m, k) plus the proposed m-cast() extension and neighbor access
/// (each overlay "provides a proprietary way of sending messages to
/// neighbors", §4.1).
class OverlayNode {
 public:
  virtual ~OverlayNode() = default;

  virtual Key id() const = 0;
  virtual RingParams ring() const = 0;

  /// The scheduling domain this node's events run on (see
  /// common::ExecContext). The application layer wraps scheduling of its
  /// own per-node timers in an ActorScope of this domain so they are
  /// keyed like the overlay node's own events. Default: global.
  virtual common::Domain domain() const { return common::kGlobalDomain; }

  /// Route `payload` to the node covering `key` (the standard unicast
  /// send(m, k)).
  virtual void send(Key key, PayloadPtr payload) = 0;

  /// Native one-to-many primitive (§4.3.1, Figure 4): deliver `payload`
  /// to every node covering at least one key of `runs`, at most once per
  /// node. Runs may come in any order and overlap; runs in ring order
  /// (as AkMapping::subscription_ranges emits them) are cheapest.
  virtual void m_cast_runs(std::vector<KeyRange> runs,
                           PayloadPtr payload) = 0;

  /// m_cast_runs over a key list, which may be unsorted and contain
  /// duplicates.
  void m_cast(std::vector<Key> keys, PayloadPtr payload) {
    m_cast_runs(compress_keys(ring(), std::move(keys)), std::move(payload));
  }

  /// Conservative unicast-based one-to-many baseline (§4.3.1): route to
  /// the first key, then walk the remaining keys in ring order node by
  /// node. Same worst-case message count as m_cast but O(log n + N)
  /// dilation.
  virtual void chain_cast(std::vector<Key> keys, PayloadPtr payload) = 0;

  /// Direct one-hop sends to ring neighbors (used by the collecting
  /// optimization, §4.3.2).
  virtual void send_to_successor(PayloadPtr payload) = 0;
  virtual void send_to_predecessor(PayloadPtr payload) = 0;

  /// Ring neighbors' identifiers (this node covers (predecessor_id, id]).
  virtual Key successor_id() const = 0;
  virtual Key predecessor_id() const = 0;

  /// Attach the application layer. Must be called before any traffic.
  virtual void set_app(OverlayApp* app) = 0;
};

}  // namespace cbps::overlay
