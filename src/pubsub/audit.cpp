#include "cbps/pubsub/audit.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "cbps/common/sorted_view.hpp"

namespace cbps::pubsub {

namespace {

constexpr std::size_t kMaxIssues = 20;

void add_issue(std::vector<std::string>& issues, const std::string& msg) {
  if (issues.size() < kMaxIssues) issues.push_back(msg);
}

/// Does [r.lo, r.hi] intersect the arc (lo, hi] on `ring`?
bool range_intersects(const RingParams& ring, Key lo, Key hi,
                      const KeyRange& r) {
  return ring.in_open_closed(lo, hi, r.lo) ||
         ring.in_closed_closed(r.lo, r.hi, ring.add(lo, 1));
}

}  // namespace

RingAuditReport audit_ring(chord::ChordNetwork& net) {
  RingAuditReport report;
  const std::vector<Key> ids = net.alive_ids();
  const std::size_t n = ids.size();
  report.nodes_audited = n;
  if (n == 0) return report;

  for (std::size_t i = 0; i < n; ++i) {
    const Key id = ids[i];
    const chord::ChordNode& node = *net.node(id);
    const Key true_succ = ids[(i + 1) % n];
    const Key true_pred = ids[(i + n - 1) % n];

    if (n > 1) {
      if (node.successor_id() != true_succ) {
        ++report.successor_mismatches;
        std::ostringstream os;
        os << "node " << id << ": successor " << node.successor_id()
           << ", oracle says " << true_succ;
        add_issue(report.issues, os.str());
      }
      const auto pred = node.predecessor();
      if (!pred || *pred != true_pred) {
        ++report.predecessor_mismatches;
        std::ostringstream os;
        os << "node " << id << ": predecessor "
           << (pred ? std::to_string(*pred) : std::string("<none>"))
           << ", oracle says " << true_pred;
        add_issue(report.issues, os.str());
      }
    }

    for (Key s : node.successor_list()) {
      if (net.is_alive(s)) continue;
      ++report.dead_successor_entries;
      std::ostringstream os;
      os << "node " << id << ": dead successor-list entry " << s;
      add_issue(report.issues, os.str());
    }

    const chord::FingerTable& fingers = node.finger_table();
    for (std::size_t f = 0; f < fingers.size(); ++f) {
      const auto entry = fingers.get(f);
      if (!entry) continue;
      if (!net.is_alive(*entry)) {
        ++report.dead_fingers;
        std::ostringstream os;
        os << "node " << id << ": finger " << f << " -> dead node "
           << *entry;
        add_issue(report.issues, os.str());
      } else if (*entry != net.oracle_successor(fingers.start(f))) {
        ++report.stale_fingers;
      }
    }
  }
  return report;
}

SystemAuditReport audit_system(PubSubSystem& system) {
  SystemAuditReport report;
  chord::ChordNetwork& net = system.network();
  report.ring = audit_ring(net);

  const std::vector<Key> ids = net.alive_ids();
  const std::size_t n = ids.size();
  if (n == 0) return report;
  const RingParams ring = net.ring();
  const std::size_t rf = system.config().pubsub.replication_factor;

  // Ground-truth coverage of node ids[i] is (ids[i-1], ids[i]].
  const auto true_pred_of = [&](std::size_t i) {
    return ids[(i + n - 1) % n];
  };

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = system.index_of(ids[i]);
    const PubSubNode& pn = system.pubsub_node(idx);
    const Key pred = true_pred_of(i);

    pn.store().for_each([&](const SubscriptionStore::Record& rec) {
      if (rec.replica) return;
      // Placement: an owned record must intersect this node's true
      // coverage through at least one of its key runs (a single-node
      // ring covers everything).
      const bool placed =
          n == 1 || std::any_of(rec.runs->begin(), rec.runs->end(),
                                [&](const KeyRange& r) {
                                  return range_intersects(ring, pred,
                                                          ids[i], r);
                                });
      if (!placed) {
        ++report.misplaced_records;
        std::ostringstream os;
        os << "node " << ids[i] << ": stores sub " << rec.sub->id
           << " but covers none of its keys";
        add_issue(report.issues, os.str());
      }
      // Replica coverage: the next min(rf, n-1) alive successors must
      // each hold a copy (replica or owned — a chain member that took
      // over ownership still protects the record).
      const std::size_t want = std::min(rf, n - 1);
      std::size_t holding = 0;
      for (std::size_t k = 1; k <= want; ++k) {
        const std::size_t succ_idx =
            system.index_of(ids[(i + k) % n]);
        if (system.pubsub_node(succ_idx).store().find(rec.sub->id) !=
            nullptr) {
          ++holding;
        }
      }
      if (holding < want) {
        ++report.under_replicated;
        std::ostringstream os;
        os << "node " << ids[i] << ": sub " << rec.sub->id << " has "
           << holding << "/" << want << " replicas";
        add_issue(report.issues, os.str());
      }
    });

    // Rendezvous completeness: every subscription this node still holds
    // (issued, never withdrawn) must be stored at each of its oracle
    // rendezvous nodes.
    for (const auto* own_entry : sorted_view(pn.own_subscriptions())) {
      const SubscriptionId sub_id = own_entry->first;
      const auto& own = own_entry->second;
      std::unordered_set<Key> owners;
      for (Key k : system.mapping().subscription_keys(*own.sub)) {
        owners.insert(net.oracle_successor(k));
      }
      // Issue text order must track subscription/owner ids, not hash
      // layout (D1) — these lines land in test logs and audit output.
      for (const Key* owner_p : sorted_view(owners)) {
        const Key owner = *owner_p;
        const std::size_t oidx = system.index_of(owner);
        const auto* rec = system.pubsub_node(oidx).store().find(sub_id);
        if (rec != nullptr) continue;
        ++report.unstored_subscriptions;
        std::ostringstream os;
        os << "sub " << sub_id << " (subscriber " << ids[i]
           << ") missing at rendezvous " << owner;
        add_issue(report.issues, os.str());
      }
    }
  }
  return report;
}

}  // namespace cbps::pubsub
