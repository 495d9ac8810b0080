#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cbps/workload/generator.hpp"

namespace cbpsbench {

namespace {

using cbps::pubsub::MappingKind;
using cbps::pubsub::PubSubConfig;
using cbps::sim::sec;

constexpr std::size_t kNodes = 500;  // paper default (§5.1)

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
}

cbps::pubsub::SystemConfig base_config(std::uint64_t seed, MappingKind mapping) {
  cbps::pubsub::SystemConfig c;
  c.nodes = kNodes;
  c.seed = seed;
  c.chord.ring = cbps::RingParams{13};
  c.mapping = mapping;
  c.pubsub.sub_transport = PubSubConfig::Transport::kMulticast;
  c.pubsub.pub_transport = PubSubConfig::Transport::kUnicast;
  // The figure benches' default engine (bench/harness.hpp).
  c.pubsub.match_engine = cbps::pubsub::MatchEngine::kCountingIndex;
  return c;
}

/// Appends operations to a workload from one seeded generator stream.
class OpWriter {
 public:
  OpWriter(Workload& w, std::uint64_t seed)
      : w_(w), gen_(w.schema, params(), seed * 7919 + 17) {}

  static cbps::workload::WorkloadParams params() {
    cbps::workload::WorkloadParams wp;
    wp.selective.assign(4, false);  // Fig. 5-8: no selective attribute
    wp.zipf_exponent = 0.7;         // bench/harness.hpp default
    wp.matching_probability = 0.5;
    return wp;
  }

  void subscribe(SimTime at) {
    Op op;
    op.kind = Op::Kind::kSubscribe;
    op.at = at;
    op.node = pick_client();
    op.constraints = gen_.make_constraints();
    cbps::pubsub::Subscription sub;
    sub.constraints = op.constraints;
    issued_.push_back(std::move(sub));
    w_.ops.push_back(std::move(op));
    ++w_.subscriptions;
  }

  /// With the matching probability, a point inside a uniformly chosen
  /// earlier subscription; otherwise uniform over the event space.
  void publish(SimTime at) {
    Op op;
    op.kind = Op::Kind::kPublish;
    op.at = at;
    if (!issued_.empty() &&
        gen_.rng().bernoulli(gen_.params().matching_probability)) {
      const auto pick = static_cast<std::size_t>(gen_.rng().uniform_int(
          0, static_cast<std::int64_t>(issued_.size()) - 1));
      op.values = gen_.make_matching_values(issued_[pick]);
    } else {
      op.values = gen_.make_random_values();
    }
    op.node = pick_client();
    w_.ops.push_back(std::move(op));
    ++w_.publications;
  }

  /// `count` publications as a Poisson process starting after `from`.
  SimTime publish_poisson(SimTime from, std::size_t count, double mean_s) {
    SimTime t = from;
    for (std::size_t i = 0; i < count; ++i) {
      t += cbps::sim::from_seconds(gen_.rng().exponential(mean_s));
      publish(t);
    }
    return t;
  }

 private:
  std::size_t pick_client() {
    const auto i = static_cast<std::size_t>(gen_.rng().uniform_int(
        0, static_cast<std::int64_t>(w_.clients.size()) - 1));
    return w_.clients[i];
  }

  Workload& w_;
  cbps::workload::WorkloadGenerator gen_;
  std::vector<cbps::pubsub::Subscription> issued_;
};

void all_nodes_are_clients(Workload& w) {
  w.clients.resize(w.system.nodes);
  for (std::size_t i = 0; i < w.clients.size(); ++i) w.clients[i] = i;
}

/// Fig. 6/8 shape: M1 attribute-split, m-cast subscriptions one every 5 s.
/// A tail of unicast publications (one per 2 subscriptions) keeps every
/// end-to-end metric defined; it adds under 10% of the replayed host time.
Workload subscribe_m1_mcast(std::uint64_t seed, double scale) {
  Workload w;
  w.system = base_config(seed, MappingKind::kAttributeSplit);
  all_nodes_are_clients(w);
  OpWriter out(w, seed);
  const std::size_t subs = scaled(2000, scale);
  for (std::size_t i = 0; i < subs; ++i) out.subscribe(sec(5) * (i + 1));
  out.publish_poisson(sec(5) * subs + sec(10), scaled(1000, scale), 5.0);
  return w;
}

/// Fig. 5/7 read path: M3 selective-attribute, m-cast subscriptions, then
/// six unicast publications per subscription (Poisson, mean 5 s).
Workload publish_m3_unicast(std::uint64_t seed, double scale) {
  Workload w;
  w.system = base_config(seed, MappingKind::kSelectiveAttribute);
  all_nodes_are_clients(w);
  OpWriter out(w, seed);
  const std::size_t subs = scaled(3000, scale);
  for (std::size_t i = 0; i < subs; ++i) out.subscribe(sec(5) * (i + 1));
  out.publish_poisson(sec(5) * subs + sec(10), 6 * subs, 5.0);
  return w;
}

/// Upkeep under faults: Chord maintenance on, replication 2, ack/retry
/// armed by the script, Gilbert–Elliott burst loss (~18% long-run) and
/// then a correlated crash burst. 100 nodes, so upkeep does not drown the
/// pub/sub work; routes are capped at 64 hops, so a transient loop during
/// ring repair costs a bounded number of hops. The fault side (wire
/// randomness, crash victims, the 25 client nodes the crash burst spares)
/// is the same for every seed; the seed draws the operations. Seeded
/// crash victims made most simulated metrics swing by 10-30% between
/// seeds, which would hide the change under test.
Workload churn_loss_m3(std::uint64_t seed, double scale) {
  constexpr std::uint64_t kFaultSeed = 4242;
  Workload w;
  w.system = base_config(kFaultSeed, MappingKind::kSelectiveAttribute);
  w.system.nodes = 100;
  w.system.chord.max_route_hops = 64;
  w.system.pubsub.replication_factor = 2;

  // Clients: a fixed sample of 25 distinct nodes, in index order.
  {
    cbps::Rng rng(kFaultSeed);
    std::vector<std::size_t> all(w.system.nodes);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    for (std::size_t i = 0; i < 25; ++i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(i),
          static_cast<std::int64_t>(all.size()) - 1));
      std::swap(all[i], all[j]);
    }
    w.clients.assign(all.begin(), all.begin() + 25);
    std::sort(w.clients.begin(), w.clients.end());
  }

  // Subscriptions arrive under burst loss (their m-casts and the ring's
  // upkeep retransmit); publications follow on a loss-free wire and see
  // the crash burst and its repair. Publish-to-notify delays then show
  // crash repair, not retransmission backoff: a p99 taken inside the
  // sparse backoff tail swung by 25% between seeds.
  OpWriter out(w, seed);
  const std::size_t subs = scaled(3000, scale);
  const std::size_t pubs = scaled(24000, scale);
  const double sub_gap = 300.0 / static_cast<double>(subs);
  for (std::size_t i = 0; i < subs; ++i) {
    out.subscribe(cbps::sim::from_seconds(sub_gap * static_cast<double>(i + 1)));
  }
  const double t0 = 320.0;
  const double span = 1000.0;
  out.publish_poisson(cbps::sim::from_seconds(t0), pubs,
                      span / static_cast<double>(pubs));

  char script[256];
  std::snprintf(script, sizeof script,
                "loss at=10 until=300 model=ge p=0.05 q=0.15 good=0.01 "
                "bad=0.7\ncrash_burst at=%.0f count=4 correlation=0.7",
                t0 + 0.2 * span);
  std::string error;
  auto parsed = cbps::workload::FaultScript::parse(script, &error);
  CBPS_ASSERT_MSG(parsed.has_value(), error.c_str());
  w.faults = std::move(*parsed);
  w.system.chord.force_reliable = w.faults.needs_reliable_transport();

  // Judge delivery after the faults cleared plus eight stabilization
  // rounds (bench/harness.cpp's rule); 15 s grace for retry delays.
  w.grace = sec(15);
  w.judged_after =
      w.faults.all_clear_at() + 8 * w.system.chord.stabilize_period;
  return w;
}

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {
      "subscribe_m1_mcast", "publish_m3_unicast", "churn_loss_m3"};
  return names;
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, double scale) {
  std::optional<Workload> w;
  if (name == "subscribe_m1_mcast") {
    w = subscribe_m1_mcast(seed, scale);
  } else if (name == "publish_m3_unicast") {
    w = publish_m3_unicast(seed, scale);
  } else if (name == "churn_loss_m3") {
    w = churn_loss_m3(seed, scale);
  } else {
    return std::nullopt;
  }
  w->name = std::string(name);
  w->seed = seed;
  return w;
}

}  // namespace cbpsbench
