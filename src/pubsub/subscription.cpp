#include "cbps/pubsub/subscription.hpp"

#include <algorithm>

namespace cbps::pubsub {

std::ostream& operator<<(std::ostream& os, const Event& e) {
  os << "event#" << e.id << '(';
  for (std::size_t i = 0; i < e.values.size(); ++i) {
    if (i) os << ", ";
    os << e.values[i];
  }
  return os << ')';
}

const Constraint* Subscription::constraint_on(std::size_t attr) const {
  for (const Constraint& c : constraints) {
    if (c.attribute == attr) return &c;
  }
  return nullptr;
}

bool Subscription::matches(const Event& e) const {
  return std::all_of(
      constraints.begin(), constraints.end(), [&](const Constraint& c) {
        return c.attribute < e.values.size() &&
               c.range.contains(e.values[c.attribute]);
      });
}

bool Subscription::matches_within(const Event& e,
                                  const Schema& schema) const {
  return std::all_of(
      constraints.begin(), constraints.end(), [&](const Constraint& c) {
        if (c.attribute >= e.values.size()) return false;
        const Value v = e.values[c.attribute];
        return c.range.contains(v) && schema.domain(c.attribute).contains(v);
      });
}

bool Subscription::valid_for(const Schema& schema) const {
  if (!well_formed_for(schema)) return false;
  return std::all_of(
      constraints.begin(), constraints.end(), [&](const Constraint& c) {
        const ClosedInterval& dom = schema.domain(c.attribute);
        return dom.lo <= c.range.lo && c.range.hi <= dom.hi;
      });
}

bool Subscription::well_formed_for(const Schema& schema) const {
  // At most one constraint per attribute, so more constraints than
  // dimensions must repeat one. Below that bound the duplicate scan is
  // quadratic in at most dimensions() constraints, with no allocation:
  // every rendezvous insert asserts this check.
  if (constraints.size() > schema.dimensions()) return false;
  for (auto it = constraints.begin(); it != constraints.end(); ++it) {
    if (it->attribute >= schema.dimensions()) return false;
    if (std::any_of(constraints.begin(), it, [&](const Constraint& c) {
          return c.attribute == it->attribute;
        })) {
      return false;  // duplicate attr
    }
  }
  return true;
}

bool Subscription::satisfiable_for(const Schema& schema) const {
  return std::all_of(
      constraints.begin(), constraints.end(), [&](const Constraint& c) {
        return c.attribute < schema.dimensions() &&
               c.range.overlaps(schema.domain(c.attribute));
      });
}

ClosedInterval Subscription::effective_interval(const Schema& schema,
                                                std::size_t attr) const {
  const ClosedInterval& dom = schema.domain(attr);
  const Constraint* c = constraint_on(attr);
  if (c == nullptr) return dom;
  const auto clamped = c->range.intersect(dom);
  CBPS_ASSERT_MSG(clamped.has_value(),
                  "effective_interval on unsatisfiable constraint");
  return *clamped;
}

bool Subscription::covers(const Schema& schema,
                          const Subscription& other) const {
  // Only our own constraints can exclude events; attributes we leave
  // unconstrained span the whole domain and contain anything.
  for (const Constraint& c : constraints) {
    const ClosedInterval mine = effective_interval(schema, c.attribute);
    const ClosedInterval theirs =
        other.effective_interval(schema, c.attribute);
    if (theirs.lo < mine.lo || theirs.hi > mine.hi) return false;
  }
  return true;
}

double Subscription::selectivity(const Schema& schema,
                                 std::size_t attr) const {
  const Constraint* c = constraint_on(attr);
  if (c == nullptr) return 1.0;
  return static_cast<double>(c->range.width()) /
         static_cast<double>(schema.domain_size(attr));
}

std::optional<std::size_t> Subscription::most_selective_attribute(
    const Schema& schema) const {
  std::optional<std::size_t> best;
  double best_sel = 0.0;
  for (const Constraint& c : constraints) {
    const double sel = selectivity(schema, c.attribute);
    if (!best || sel < best_sel ||
        (sel == best_sel && c.attribute < *best)) {
      best = c.attribute;
      best_sel = sel;
    }
  }
  return best;
}

std::ostream& operator<<(std::ostream& os, const Subscription& s) {
  os << "sub#" << s.id << '{';
  for (std::size_t i = 0; i < s.constraints.size(); ++i) {
    if (i) os << " && ";
    const Constraint& c = s.constraints[i];
    os << c.range.lo << "<=a" << c.attribute << "<=" << c.range.hi;
  }
  return os << '}';
}

}  // namespace cbps::pubsub
