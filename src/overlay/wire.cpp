#include "cbps/overlay/wire.hpp"

#include <string>
#include <utility>

namespace cbps::overlay {

Wire::Stats::Stats(metrics::Registry& reg)
    : send_to_dead(reg.counter_handle("chord.send_to_dead")),
      retransmits(reg.counter_handle("chord.retransmits")),
      send_failed(reg.counter_handle("chord.send_failed")),
      dup_suppressed(reg.counter_handle("chord.dup_suppressed")),
      route_dropped(reg.counter_handle("chord.route_dropped")),
      route_no_candidate(reg.counter_handle("chord.route_no_candidate")),
      mcast_dropped_keys(reg.counter_handle("chord.mcast_dropped_keys")),
      chain_dropped(reg.counter_handle("chord.chain_dropped")),
      chain_no_candidate(reg.counter_handle("chord.chain_no_candidate")),
      net_lost(reg.counter_handle("chord.net.lost")),
      route_hops(reg.histogram_handle("chord.route_hops")),
      mcast_fanout(reg.histogram_handle("chord.mcast_fanout")),
      retries_per_send(reg.histogram_handle("chord.retries_per_send")) {
  for (std::size_t c = 0; c < kMessageClassCount; ++c) {
    net_lost_by_class[c] = reg.counter_handle(
        std::string("chord.net.lost.") +
        std::string(to_string(static_cast<MessageClass>(c))));
  }
}

Wire::Wire(sim::Simulator& sim, Limits limits, std::uint64_t seed,
           double loss_rate, std::unique_ptr<sim::LatencyModel> latency)
    : sim_(sim),
      limits_(limits),
      seed_(seed),
      latency_(latency ? std::move(latency) : sim::default_latency()),
      stats_(registry_) {
  if (loss_rate > 0.0) loss_ = std::make_unique<sim::UniformLoss>(loss_rate);
}

Wire::Sender& Wire::add_sender(Key id) {
  // Dedicated loss stream so enabling loss never perturbs latency.
  return senders_.emplace_back(
      Sender{sim_.register_domain(), Rng(mix64(seed_ ^ mix64(id))),
             Rng(mix64(seed_ ^ mix64(id) ^ 0x9e3779b97f4a7c15ull)),
             loss_ ? loss_->clone() : nullptr});
}

std::optional<sim::SimTime> Wire::send(Sender& from, MessageClass cls,
                                       std::size_t bytes) {
  traffic_.record_hop(cls, bytes);
  // Only the sender's own streams are consulted, so the draws depend on
  // the sender's transmission history alone.
  if (from.loss != nullptr && from.loss->drop(from.loss_rng)) {
    stats_.net_lost->inc();
    stats_.net_lost_by_class[static_cast<std::size_t>(cls)]->inc();
    return std::nullopt;
  }
  return latency_->sample(from.latency_rng);
}

void Wire::set_loss_model(std::unique_ptr<sim::LossModel> model) {
  loss_ = std::move(model);
  for (Sender& s : senders_) s.loss = loss_ ? loss_->clone() : nullptr;
}

}  // namespace cbps::overlay
