// Per-layer cost probes: the run's own generated subscriptions, events
// and key lists replayed through each layer's public functions, timed
// in isolation (host nanoseconds per call).
#pragma once

#include "cbps/pubsub/system.hpp"
#include "replay.hpp"
#include "workload.hpp"

namespace cbpsbench {

/// Time the mapping, store, m-cast partition, location cache and TopK
/// against `system`, a drained replay of `w`. Returns the probe rows by
/// name (pubsub.mapping.sk_ns, pubsub.store.match_ns, ...).
SimCounts time_layers(const Workload& w, cbps::pubsub::PubSubSystem& system);

}  // namespace cbpsbench
