#include "cbps/overlay/payload.hpp"

#include <numeric>

namespace cbps::overlay {

std::string_view to_string(MessageClass cls) {
  switch (cls) {
    case MessageClass::kSubscribe:
      return "subscribe";
    case MessageClass::kUnsubscribe:
      return "unsubscribe";
    case MessageClass::kPublish:
      return "publish";
    case MessageClass::kNotify:
      return "notify";
    case MessageClass::kCollect:
      return "collect";
    case MessageClass::kStateTransfer:
      return "state_transfer";
    case MessageClass::kControl:
      return "control";
    case MessageClass::kGossip:
      return "gossip";
    case MessageClass::kCount:
      break;
  }
  return "unknown";
}

std::uint64_t TrafficStats::hops(MessageClass cls) const {
  std::uint64_t n = 0;
  for (const Block& b : blocks_) n += b.hops[index(cls)];
  return n;
}

std::uint64_t TrafficStats::bytes(MessageClass cls) const {
  std::uint64_t n = 0;
  for (const Block& b : blocks_) n += b.bytes[index(cls)];
  return n;
}

std::uint64_t TrafficStats::total_hops() const {
  std::uint64_t n = 0;
  for (const Block& b : blocks_) {
    n = std::accumulate(b.hops.begin(), b.hops.end(), n);
  }
  return n;
}

std::uint64_t TrafficStats::total_bytes() const {
  std::uint64_t n = 0;
  for (const Block& b : blocks_) {
    n = std::accumulate(b.bytes.begin(), b.bytes.end(), n);
  }
  return n;
}

}  // namespace cbps::overlay
