// Application payloads routed through the overlay, and traffic accounting.
//
// The overlay routes opaque payloads: it never inspects pub/sub content,
// mirroring the strict layering of the paper's architecture (Figure 2).
// The only thing a payload exposes is its MessageClass, used to attribute
// one-hop messages to the traffic category the evaluation counts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "cbps/metrics/trace.hpp"

namespace cbps::overlay {

/// Traffic category of a message, for per-class hop accounting
/// (the paper's figures count hops per subscription / publication /
/// notification separately).
enum class MessageClass : std::uint8_t {
  kSubscribe = 0,   // subscription propagation to rendezvous keys
  kUnsubscribe,     // explicit unsubscription propagation
  kPublish,         // event propagation to rendezvous keys
  kNotify,          // rendezvous (or agent) -> subscriber notifications
  kCollect,         // ring-neighbor aggregation toward an agent (§4.3.2)
  kStateTransfer,   // subscription-state handover on join/leave, replicas
  kControl,         // overlay maintenance: stabilization, lookups, acks
  // Nothing sends kGossip since the gossip notify backend was removed.
  // It stays because cbpsbench's replay reads the "gossip" class into
  // its notify totals (always 0 now).
  kGossip,
  kCount,
};

constexpr std::size_t kMessageClassCount =
    static_cast<std::size_t>(MessageClass::kCount);

std::string_view to_string(MessageClass cls);

/// Base class for everything the overlay can carry.
class Payload {
 public:
  virtual ~Payload() = default;
  virtual MessageClass message_class() const = 0;

  /// Approximate serialized size of the payload in bytes (used for
  /// bandwidth accounting; §4.3.2 argues for "fewer exchange messages
  /// ... but those messages are longer", which hop counts alone cannot
  /// show). Default: one cache line.
  virtual std::size_t size_bytes() const { return 64; }

  /// Trace context ({0,0} = unsampled). Set by the originating layer
  /// before the payload pointer is shared as const; read-only from then
  /// on — payloads are shared across m-cast branches, so per-hop parent
  /// chaining rides on the copied wire messages instead.
  metrics::TraceRef trace;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// One-hop message and byte counts, split by MessageClass.
///
/// A "hop" is one node-to-node message transmission (the unit all the
/// paper's network figures are expressed in). Self-deliveries are free.
class TrafficStats {
 public:
  void record_hop(MessageClass cls, std::size_t payload_bytes) {
    ++hops_[index(cls)];
    bytes_[index(cls)] += payload_bytes + kHeaderBytes;
  }

  /// Approximate bytes transmitted, per class (payload + per-message
  /// header).
  std::uint64_t bytes(MessageClass cls) const { return bytes_[index(cls)]; }
  std::uint64_t total_bytes() const;

  /// Fixed per-message envelope overhead assumed by the accounting.
  static constexpr std::size_t kHeaderBytes = 48;

  std::uint64_t hops(MessageClass cls) const { return hops_[index(cls)]; }

  std::uint64_t total_hops() const;

 private:
  static std::size_t index(MessageClass cls) {
    return static_cast<std::size_t>(cls);
  }

  std::array<std::uint64_t, kMessageClassCount> hops_{};
  std::array<std::uint64_t, kMessageClassCount> bytes_{};
};

}  // namespace cbps::overlay
