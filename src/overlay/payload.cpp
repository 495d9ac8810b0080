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

std::uint64_t TrafficStats::total_hops() const {
  return std::accumulate(hops_.begin(), hops_.end(), std::uint64_t{0});
}

std::uint64_t TrafficStats::total_bytes() const {
  return std::accumulate(bytes_.begin(), bytes_.end(), std::uint64_t{0});
}

}  // namespace cbps::overlay
