// Figure 8 — "Scalability of memory consumption": maximum number of
// subscriptions stored per node when 25,000 subscriptions are injected,
// as a function of the number of nodes, with zero and one selective
// attributes.
//
// Expected shape: with no selective attributes, M1 and M3 degrade as n
// grows (ranges split across more rendezvous, so subscriptions are
// copied more often) while M2 stays roughly flat; with one selective
// attribute, M3's duplication is rare and it beats M2 for n below
// ~2500 (§5.2).
#include <cstdio>
#include <string>
#include <vector>

#include "sweep.hpp"

using namespace cbps;
using namespace cbps::bench;

int main(int argc, char** argv) {
  Sweep<> sweep("fig8_memory_scaling");
  if (!sweep.parse_args(argc, argv)) return 1;

  const std::vector<std::size_t> node_counts = {100, 250, 500, 1000, 2500};
  const pubsub::MappingKind mappings[] = {
      pubsub::MappingKind::kAttributeSplit,
      pubsub::MappingKind::kKeySpaceSplit,
      pubsub::MappingKind::kSelectiveAttribute};

  for (const int selective : {0, 1}) {
    for (const pubsub::MappingKind mapping : mappings) {
      for (const std::size_t n : node_counts) {
        ExperimentConfig cfg;
        cfg.nodes = n;
        cfg.mapping = mapping;
        cfg.selective_attributes = selective;
        cfg.subscriptions = 25'000;
        cfg.publications = 0;
        cfg.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
        // Inject back-to-back: with no publications and no expiry the
        // stored-subscription peak does not depend on the pacing.
        cfg.sub_interval = 0;
        sweep.add(mapping_label(mapping) + "/sel" +
                      std::to_string(selective) + "/n=" + std::to_string(n),
                  cfg);
      }
    }
  }

  std::puts("=== Figure 8: max subscriptions per node vs number of nodes ===");
  std::puts("25000 subscriptions, no publications, no expiration\n");

  const std::size_t per_row = node_counts.size();
  const std::size_t per_group = per_row * std::size(mappings);
  sweep.run([&](std::size_t i, const ExperimentResult& r) {
    const std::size_t group = i / per_group;  // selective 0/1
    const std::size_t in_group = i % per_group;
    const std::size_t mapping_idx = in_group / per_row;
    if (in_group == 0) {
      std::printf("--- %zu selective attribute(s) ---\n", group);
      std::printf("%-20s", "mapping");
      for (std::size_t n : node_counts) std::printf(" %9zu", n);
      std::puts("");
    }
    if (in_group % per_row == 0) {
      std::printf("%-20s", mapping_label(mappings[mapping_idx]).c_str());
    }
    std::printf(" %9zu", r.max_subs_per_node);
    if ((in_group + 1) % per_row == 0) std::puts("");
    if (in_group + 1 == per_group) std::puts("");
  });
  return 0;
}
