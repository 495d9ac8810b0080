#include "cbps/pubsub/covering_index.hpp"

#include <algorithm>
#include <utility>

namespace cbps::pubsub {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

ClosedInterval hull_of(const ClosedInterval& a, const ClosedInterval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

}  // namespace

CoveringIndex::CoveringIndex(const SlotTable& table, const Schema& schema,
                             CoveringOptions opts)
    : table_(table),
      schema_(schema),
      opts_(opts),
      index_(*this, schema, opts.buckets_per_attribute) {
  CBPS_ASSERT(opts_.max_children_per_root >= 2);
}

const Subscription& CoveringIndex::at(std::uint32_t root) const {
  const Root& info = roots_[root];
  return info.umbrella ? *info.umbrella : table_.at(info.slot);
}

std::uint64_t CoveringIndex::signature(const Subscription& sub,
                                       std::size_t free_attr) const {
  // Hash the free attribute plus every *other* constrained attribute's
  // clamped interval, in attribute order (constraint order in the
  // subscription is arbitrary).
  std::uint64_t h = fnv1a(kFnvOffset, free_attr);
  for (std::size_t attr = 0; attr < schema_.dimensions(); ++attr) {
    if (attr == free_attr) continue;
    const Constraint* c = sub.constraint_on(attr);
    if (c == nullptr) continue;
    const ClosedInterval eff = sub.effective_interval(schema_, attr);
    h = fnv1a(h, attr);
    h = fnv1a(h, static_cast<std::uint64_t>(eff.lo));
    h = fnv1a(h, static_cast<std::uint64_t>(eff.hi));
  }
  return h;
}

std::uint64_t CoveringIndex::merge_covered(
    std::vector<ClosedInterval>& covered, ClosedInterval iv) {
  // Insert preserving sort order, then coalesce overlapping/adjacent
  // runs. Lists are tiny (<= max_children_per_root entries).
  const auto pos = std::lower_bound(
      covered.begin(), covered.end(), iv,
      [](const ClosedInterval& a, const ClosedInterval& b) {
        return a.lo < b.lo;
      });
  covered.insert(pos, iv);
  std::vector<ClosedInterval> merged;
  merged.reserve(covered.size());
  for (const ClosedInterval& c : covered) {
    if (!merged.empty() &&
        (c.lo <= merged.back().hi ||
         static_cast<std::uint64_t>(c.lo - merged.back().hi) == 1)) {
      merged.back().hi = std::max(merged.back().hi, c.hi);
    } else {
      merged.push_back(c);
    }
  }
  covered = std::move(merged);
  return covered_width(covered);
}

std::uint64_t CoveringIndex::covered_width(
    const std::vector<ClosedInterval>& covered) {
  std::uint64_t w = 0;
  for (const ClosedInterval& c : covered) w += c.width();
  return w;
}

bool CoveringIndex::insert(std::uint32_t slot, const Subscription& sub) {
  CBPS_ASSERT_MSG(sub.well_formed_for(schema_),
                  "subscription/schema mismatch");
  if (slot >= roles_.size()) roles_.resize(slot + 1);
  if (roles_[slot].role != Role::kNone) return false;
  insert_internal(slot, sub);
  ++logical_size_;
  return true;
}

void CoveringIndex::insert_internal(std::uint32_t slot,
                                    const Subscription& sub) {
  if (!sub.satisfiable_for(schema_)) {
    // Can never match any event; hold it only for remove()/duplicate
    // bookkeeping, exactly like the other engines skip it.
    roles_[slot] = {Role::kInert, 0};
    ++inert_count_;
    return;
  }
  if (try_cover(slot, sub)) return;
  if (try_merge(slot, sub)) return;
  add_root(slot);
}

bool CoveringIndex::try_cover(std::uint32_t slot, const Subscription& sub) {
  // Any root covering `sub` must match every point of sub's subspace, so
  // probing the index with one such point yields a candidate superset.
  Event probe;
  probe.id = 0;
  probe.values.reserve(schema_.dimensions());
  for (std::size_t attr = 0; attr < schema_.dimensions(); ++attr) {
    probe.values.push_back(sub.effective_interval(schema_, attr).lo);
  }
  scratch_roots_.clear();
  index_.match_into(probe, scratch_roots_);
  std::size_t tested = 0;
  for (const std::uint32_t r : scratch_roots_) {
    if (tested++ >= opts_.max_cover_candidates) break;
    Root& info = roots_[r];
    if (info.children.size() >= opts_.max_children_per_root) continue;
    if (!at(r).covers(schema_, sub)) continue;
    info.children.push_back(slot);
    roles_[slot] = {Role::kChild, r};
    ++children_count_;
    if (info.umbrella) {
      // The child lies inside the hull; folding its interval in can only
      // shrink the uncovered (false-positive) fraction.
      merge_covered(info.covered,
                    sub.effective_interval(schema_, info.free_attr));
    }
    return true;
  }
  return false;
}

bool CoveringIndex::try_merge(std::uint32_t slot, const Subscription& sub) {
  // Look for a root identical to `sub` on every constrained attribute
  // but one ("the free attribute"), then group both under an umbrella
  // whose free-attribute interval is the hull.
  auto same_except = [&](const Subscription& a, const Subscription& b,
                         std::size_t free_attr) {
    for (std::size_t attr = 0; attr < schema_.dimensions(); ++attr) {
      const Constraint* ca = a.constraint_on(attr);
      const Constraint* cb = b.constraint_on(attr);
      if ((ca == nullptr) != (cb == nullptr)) return false;
      if (ca == nullptr) continue;
      if (attr == free_attr) continue;
      if (a.effective_interval(schema_, attr) !=
          b.effective_interval(schema_, attr)) {
        return false;
      }
    }
    return a.constraint_on(free_attr) != nullptr &&
           b.constraint_on(free_attr) != nullptr;
  };

  for (const Constraint& c : sub.constraints) {
    const std::size_t free_attr = c.attribute;
    const std::uint64_t sig = signature(sub, free_attr);
    const auto mit = merge_map_.find(sig);
    if (mit == merge_map_.end()) continue;
    const ClosedInterval sub_iv = sub.effective_interval(schema_, free_attr);
    std::size_t tested = 0;
    for (const std::uint32_t r : mit->second) {
      if (tested++ >= opts_.max_merge_candidates) break;
      Root& info = roots_[r];
      if (info.umbrella && info.free_attr != free_attr) continue;
      const Subscription& root_sub = at(r);
      if (!same_except(root_sub, sub, free_attr)) continue;

      const ClosedInterval root_iv =
          root_sub.effective_interval(schema_, free_attr);
      const ClosedInterval hull = hull_of(root_iv, sub_iv);
      std::vector<ClosedInterval> covered =
          info.umbrella ? info.covered
                        : std::vector<ClosedInterval>{root_iv};
      const std::uint64_t union_w = merge_covered(covered, sub_iv);
      const double fp =
          1.0 - static_cast<double>(union_w) /
                    static_cast<double>(hull.width());
      if (fp > opts_.merge_fp_budget) continue;

      if (info.umbrella) {
        if (info.children.size() >= opts_.max_children_per_root) continue;
        if (hull != root_iv) {
          // The hull grew: rebuild the umbrella subscription (same root,
          // new interval) and re-register its bucket entries.
          auto grown = std::make_shared<Subscription>(root_sub);
          for (Constraint& gc : grown->constraints) {
            if (gc.attribute == free_attr) gc.range = hull;
          }
          index_.remove(r);
          info.umbrella = std::move(grown);
          index_.insert(r, *info.umbrella);
        }
        info.covered = std::move(covered);
        info.children.push_back(slot);
        roles_[slot] = {Role::kChild, r};
        ++children_count_;
        return true;
      }

      // Real root: demote it (and its covered children) under a fresh
      // umbrella spanning the hull.
      if (info.children.size() + 2 > opts_.max_children_per_root) continue;
      auto umbrella = std::make_shared<Subscription>();
      for (std::size_t attr = 0; attr < schema_.dimensions(); ++attr) {
        if (root_sub.constraint_on(attr) == nullptr) continue;
        umbrella->constraints.push_back(
            {attr, attr == free_attr
                       ? hull
                       : root_sub.effective_interval(schema_, attr)});
      }
      Root uinfo;
      uinfo.umbrella = std::move(umbrella);
      uinfo.free_attr = free_attr;
      uinfo.covered = std::move(covered);
      const std::uint32_t demoted = info.slot;
      // `info` and `mit` die here: the root table and the merge map
      // change below, and the loop ends.
      uinfo.children = remove_root_entry(r);
      uinfo.children.push_back(demoted);
      uinfo.children.push_back(slot);
      children_count_ += 2;
      const std::uint32_t u = add_root_entry(std::move(uinfo));
      for (const std::uint32_t child : roots_[u].children) {
        roles_[child] = {Role::kChild, u};
      }
      register_sigs(u);
      ++umbrella_count_;
      return true;
    }
  }
  return false;
}

void CoveringIndex::add_root(std::uint32_t slot) {
  Root root;
  root.slot = slot;
  const std::uint32_t r = add_root_entry(std::move(root));
  roles_[slot] = {Role::kRoot, r};
  register_sigs(r);
}

std::uint32_t CoveringIndex::add_root_entry(Root root) {
  std::uint32_t r;
  if (!free_roots_.empty()) {
    r = free_roots_.back();
    free_roots_.pop_back();
    roots_[r] = std::move(root);
  } else {
    r = static_cast<std::uint32_t>(roots_.size());
    roots_.push_back(std::move(root));
  }
  index_.insert(r, at(r));
  return r;
}

std::vector<std::uint32_t> CoveringIndex::remove_root_entry(std::uint32_t r) {
  index_.remove(r);
  unregister_sigs(r);
  std::vector<std::uint32_t> children = std::move(roots_[r].children);
  roots_[r] = Root{};
  free_roots_.push_back(r);
  return children;
}

void CoveringIndex::register_sigs(std::uint32_t r) {
  // Umbrellas only ever merge on their free attribute; real roots can
  // merge on any constrained attribute.
  Root& info = roots_[r];
  const Subscription& sub = at(r);
  info.sigs.clear();
  if (info.umbrella) {
    info.sigs.push_back(signature(sub, info.free_attr));
  } else {
    for (const Constraint& c : sub.constraints) {
      info.sigs.push_back(signature(sub, c.attribute));
    }
  }
  for (const std::uint64_t sig : info.sigs) {
    merge_map_[sig].push_back(r);
  }
}

void CoveringIndex::unregister_sigs(std::uint32_t r) {
  for (const std::uint64_t sig : roots_[r].sigs) {
    const auto it = merge_map_.find(sig);
    if (it == merge_map_.end()) continue;
    std::erase(it->second, r);
    if (it->second.empty()) merge_map_.erase(it);
  }
}

void CoveringIndex::promote_children(
    const std::vector<std::uint32_t>& children) {
  // Expansion: re-admit each orphan through the full insert path so it
  // can be re-covered, merged, or become a root of its own.
  children_count_ -= children.size();
  for (const std::uint32_t child : children) roles_[child] = {};
  for (const std::uint32_t child : children) {
    insert_internal(child, table_.at(child));
  }
}

bool CoveringIndex::remove(std::uint32_t slot) {
  if (slot >= roles_.size() || roles_[slot].role == Role::kNone) return false;
  const SlotRole role = std::exchange(roles_[slot], SlotRole{});
  --logical_size_;
  if (role.role == Role::kInert) {
    --inert_count_;
  } else if (role.role == Role::kRoot) {
    promote_children(remove_root_entry(role.root));
  } else {
    Root& parent = roots_[role.root];
    std::erase(parent.children, slot);
    --children_count_;
    if (parent.umbrella && parent.children.size() < 2) {
      // One member left: the umbrella earns nothing — dissolve it.
      --umbrella_count_;
      promote_children(remove_root_entry(role.root));
    } else if (parent.umbrella) {
      // Recompute the member-coverage union the removed interval may
      // have been carrying.
      parent.covered.clear();
      for (const std::uint32_t c : parent.children) {
        merge_covered(parent.covered, table_.at(c).effective_interval(
                                          schema_, parent.free_attr));
      }
    }
  }
  return true;
}

void CoveringIndex::match_into(const Event& e,
                               std::vector<std::uint32_t>& slots) const {
  scratch_roots_.clear();
  index_.match_into(e, scratch_roots_);
  for (const std::uint32_t r : scratch_roots_) {
    const Root& info = roots_[r];
    // A real root hit is exact (the counting index checks the original
    // ranges); an umbrella hit is only a candidate and is never
    // reported itself.
    if (!info.umbrella) slots.push_back(info.slot);
    for (const std::uint32_t child : info.children) {
      if (table_.at(child).matches(e)) slots.push_back(child);
    }
  }
}

std::size_t CoveringIndex::memory_bytes() const {
  std::size_t bytes = index_.memory_bytes();
  bytes += roots_.capacity() * sizeof(Root);
  for (const Root& root : roots_) {
    bytes += root.children.capacity() * sizeof(std::uint32_t);
    bytes += root.covered.capacity() * sizeof(ClosedInterval);
    bytes += root.sigs.capacity() * sizeof(std::uint64_t);
  }
  bytes += free_roots_.capacity() * sizeof(std::uint32_t);
  bytes += roles_.capacity() * sizeof(SlotRole);
  bytes += merge_map_.size() *
           (sizeof(std::pair<const std::uint64_t,
                             std::vector<std::uint32_t>>) +
            2 * sizeof(void*));
  // detlint: unordered-ok(order-independent byte sum)
  for (const auto& [_, roots] : merge_map_) {
    bytes += roots.capacity() * sizeof(std::uint32_t);
  }
  bytes += merge_map_.bucket_count() * sizeof(void*);
  bytes += scratch_roots_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace cbps::pubsub
