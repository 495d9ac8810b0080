#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "cbps/chord/location_cache.hpp"
#include "cbps/metrics/topk.hpp"
#include "cbps/overlay/mcast_partition.hpp"
#include "cbps/pubsub/store.hpp"

namespace cbpsbench {

namespace {

using cbps::Key;
using cbps::pubsub::PubSubSystem;

// Results feed this so the timed loops cannot be optimised away.
volatile std::uint64_t g_sink = 0;

/// Median over three passes of (pass time / calls), in nanoseconds.
/// `prepare` runs untimed before each pass; `body` runs one full pass
/// and returns a checksum.
template <class Prepare, class Body>
double ns_per_call(std::size_t calls, Prepare&& prepare, Body&& body) {
  if (calls == 0) return 0;
  double pass_ns[3];
  for (double& ns : pass_ns) {
    prepare();
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t check = body();
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + check;
    ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(calls);
  }
  std::sort(std::begin(pass_ns), std::end(pass_ns));
  return pass_ns[1];
}

template <class Body>
double ns_per_call(std::size_t calls, Body&& body) {
  return ns_per_call(calls, [] {}, std::forward<Body>(body));
}

/// Delegation candidates of node `i` exactly as ChordNode::run_mcast
/// builds them: distinct fingers plus the successor, by ring distance.
std::vector<Key> mcast_candidates(PubSubSystem& system, std::size_t i) {
  const cbps::chord::ChordNode& node = system.chord_node(i);
  const cbps::RingParams ring = system.network().ring();
  std::vector<Key> c = node.finger_table().distinct_nodes();
  const auto& succs = node.successor_list();
  if (!succs.empty() &&
      std::find(c.begin(), c.end(), succs.front()) == c.end()) {
    c.push_back(succs.front());
    std::sort(c.begin(), c.end(), [&](Key a, Key b) {
      return ring.distance(node.id(), a) < ring.distance(node.id(), b);
    });
  }
  return c;
}

/// Fill the empty `cache` with node `i`'s cached peers in the same LRU
/// order, each with its ring predecessor as the covered range's lower
/// end. (Filled in place: a copied LocationCache would keep iterators
/// into the source's LRU list.)
void fill_cache(PubSubSystem& system, std::size_t i,
                cbps::chord::LocationCache& cache) {
  cbps::chord::ChordNetwork& net = system.network();
  const auto& lru = system.chord_node(i).location_cache().nodes();
  for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
    const cbps::chord::ChordNode* peer = net.node(*it);
    cache.insert(*it, peer != nullptr ? peer->predecessor_id() : *it);
  }
}

}  // namespace

SimCounts time_layers(const Workload& w, PubSubSystem& system) {
  const cbps::pubsub::AkMapping& mapping = system.mapping();
  const cbps::RingParams ring = system.network().ring();

  // The run's own inputs as library objects.
  std::vector<cbps::pubsub::Subscription> subs;
  std::vector<std::size_t> sub_nodes;
  std::vector<cbps::pubsub::Event> events;
  std::vector<std::size_t> event_nodes;
  for (const Op& op : w.ops) {
    if (op.kind == Op::Kind::kSubscribe) {
      cbps::pubsub::Subscription s;
      s.id = subs.size() + 1;
      s.subscriber = system.node_id(op.node);
      s.constraints = op.constraints;
      subs.push_back(std::move(s));
      sub_nodes.push_back(op.node);
    } else {
      cbps::pubsub::Event e;
      e.id = events.size() + 1;
      e.values = op.values;
      events.push_back(std::move(e));
      event_nodes.push_back(op.node);
    }
  }

  // --- mapping: SK and EK ---------------------------------------------------
  std::vector<std::vector<Key>> sk(subs.size());
  std::vector<std::vector<Key>> ek(events.size());
  std::size_t sk_keys = 0;
  std::size_t ek_keys = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    sk[i] = mapping.subscription_keys(subs[i]);
    sk_keys += sk[i].size();
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    ek[i] = mapping.event_keys(events[i]);
    ek_keys += ek[i].size();
  }
  const double sk_ns = ns_per_call(subs.size(), [&] {
    std::uint64_t n = 0;
    for (const auto& s : subs) n += mapping.subscription_keys(s).size();
    return n;
  });
  const double ek_ns = ns_per_call(events.size(), [&] {
    std::uint64_t n = 0;
    for (const auto& e : events) n += mapping.event_keys(e).size();
    return n;
  });

  // --- store: the hottest rendezvous node's population ----------------------
  std::size_t hottest = 0;
  for (std::size_t i = 1; i < system.node_count(); ++i) {
    if (system.pubsub_node(i).store().size() >
        system.pubsub_node(hottest).store().size()) {
      hottest = i;
    }
  }
  std::vector<cbps::pubsub::SubscriptionStore::Record> records;
  system.pubsub_node(hottest).store().for_each(
      [&](const cbps::pubsub::SubscriptionStore::Record& r) {
        records.push_back(r);
      });
  std::sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
    return a.sub->id < b.sub->id;
  });
  const cbps::pubsub::MatchEngine engine = w.system.pubsub.match_engine;
  const double insert_ns = ns_per_call(records.size(), [&] {
    cbps::pubsub::SubscriptionStore store;
    store.use_engine(engine, w.schema);
    std::uint64_t n = 0;
    for (const auto& r : records) n += store.insert(r) ? 1 : 0;
    return n;
  });
  cbps::pubsub::SubscriptionStore hot_store;
  hot_store.use_engine(engine, w.schema);
  for (const auto& r : records) hot_store.insert(r);
  const double match_ns = ns_per_call(events.size(), [&] {
    std::uint64_t n = 0;
    for (const auto& e : events) n += hot_store.match(e, 0).size();
    return n;
  });

  // --- overlay: m-cast partition over real finger sets ----------------------
  std::map<std::size_t, std::vector<Key>> candidates;
  for (const std::size_t node : sub_nodes) {
    if (!candidates.count(node)) {
      candidates.emplace(node, mcast_candidates(system, node));
    }
  }
  // Each call consumes its key list (run_mcast moves it in), so every
  // pass gets fresh copies, made outside the clock.
  std::vector<std::vector<Key>> targets;
  const auto copy_targets = [&] { targets = sk; };
  const double partition_ns = ns_per_call(subs.size(), copy_targets, [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const cbps::chord::ChordNode& node = system.chord_node(sub_nodes[i]);
      const Key self = node.id();
      const Key pred = node.predecessor_id();
      const auto part = cbps::overlay::partition_mcast_targets(
          ring, self,
          [&](Key k) { return ring.in_open_closed(pred, self, k); },
          std::move(targets[i]), candidates.at(sub_nodes[i]));
      n += part.local.size() + part.delegated.size();
    }
    return n;
  });

  // --- chord: location-cache lookups for every EK key at its publisher ------
  std::map<std::size_t, cbps::chord::LocationCache> caches;
  for (const std::size_t node : event_nodes) {
    const auto [it, fresh] = caches.try_emplace(
        node, ring, system.network().config().location_cache_size);
    if (fresh) fill_cache(system, node, it->second);
  }
  const double find_owner_ns = ns_per_call(ek_keys, [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      cbps::chord::LocationCache& cache = caches.at(event_nodes[i]);
      for (const Key k : ek[i]) n += cache.find_owner(k).value_or(0);
    }
    return n;
  });

  // --- metrics: TopK offers of the subscribe path ---------------------------
  // One offer per stored key at the node covering it, as handle_subscribe
  // does, into per-node sketches of the configured capacity.
  std::vector<std::pair<std::size_t, Key>> offers;
  for (const auto& keys : sk) {
    for (const Key k : keys) {
      offers.emplace_back(system.index_of(system.network().oracle_successor(k)),
                          k);
    }
  }
  const std::size_t capacity = w.system.pubsub.key_topk_capacity;
  const double topk_ns = ns_per_call(offers.size(), [&] {
    std::vector<cbps::metrics::TopK> sketches(system.node_count(),
                                              cbps::metrics::TopK(capacity));
    for (const auto& [node, k] : offers) sketches[node].offer(k);
    std::uint64_t n = 0;
    for (const auto& s : sketches) n += s.size();
    return n;
  });

  const auto per = [](std::size_t n, std::size_t d) {
    return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
  };
  return {
      {"pubsub.sk_keys_per_sub", per(sk_keys, subs.size())},
      {"pubsub.mapping.sk_ns", sk_ns},
      {"pubsub.ek_keys_per_pub", per(ek_keys, events.size())},
      {"pubsub.mapping.ek_ns", ek_ns},
      {"pubsub.store.insert_ns", insert_ns},
      {"pubsub.store.match_ns", match_ns},
      {"overlay.mcast_partition_ns", partition_ns},
      {"chord.location_cache.find_owner_ns", find_owner_ns},
      {"metrics.topk_offer_ns", topk_ns},
  };
}

}  // namespace cbpsbench
