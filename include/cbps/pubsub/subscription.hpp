// Subscriptions: conjunctions of range constraints (paper §3.2).
//
// A subscription sigma captures the subspace of Omega where every
// constraint holds. Disjunctions are expressed as separate subscriptions,
// exactly as the paper prescribes.
#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "cbps/common/interval.hpp"
#include "cbps/common/types.hpp"
#include "cbps/pubsub/event.hpp"
#include "cbps/pubsub/schema.hpp"

namespace cbps::pubsub {

/// A single range constraint sigma.c_i: lo <= a_attribute <= hi.
/// Equality constraints are degenerate ranges (lo == hi).
struct Constraint {
  std::size_t attribute = 0;
  ClosedInterval range;

  friend constexpr bool operator==(const Constraint&,
                                   const Constraint&) = default;
};

/// A conjunction of constraints, at most one per attribute. Attributes
/// with no constraint are unconstrained ("partially defined
/// subscriptions", §4.2).
struct Subscription {
  SubscriptionId id = 0;
  Key subscriber = 0;  // overlay key of the subscribing node
  std::vector<Constraint> constraints;

  /// The constraint on `attr`, if any.
  const Constraint* constraint_on(std::size_t attr) const;

  /// e in sigma: every constraint satisfied (paper's matching relation).
  bool matches(const Event& e) const;

  /// matches(e) under the schema's domains: a constraint holds only for
  /// a value inside both its range and its attribute's domain, so a
  /// value outside the domain satisfies no constraint (and still passes
  /// an unconstrained attribute). This is the counting index's contract.
  bool matches_within(const Event& e, const Schema& schema) const;

  /// Constraint attributes are distinct, in-range for the schema, and
  /// ranges lie within the attribute domains.
  bool valid_for(const Schema& schema) const;

  /// Structural validity only: constraint attributes are distinct and
  /// in-range for the schema. Unlike valid_for, ranges may extend past
  /// (or lie entirely outside) the attribute domains.
  bool well_formed_for(const Schema& schema) const;

  /// True when some event inside the schema's domains can satisfy every
  /// constraint — i.e. no constraint range is disjoint from its
  /// attribute domain. An unsatisfiable subscription never matches any
  /// event; every match engine skips it.
  bool satisfiable_for(const Schema& schema) const;

  /// The constraint on `attr` clamped to the attribute domain, or the
  /// whole domain when unconstrained ("effective interval"). Requires
  /// satisfiable_for(schema).
  ClosedInterval effective_interval(const Schema& schema,
                                    std::size_t attr) const;

  /// Subsumption: every event matching `other` also matches this
  /// subscription (this' subspace contains other's, intervals compared
  /// after clamping to the schema domains). Both subscriptions must be
  /// satisfiable.
  bool covers(const Schema& schema, const Subscription& other) const;

  /// Selectivity of the constraint on `attr`: r_i / |Omega_i|
  /// (1.0 when unconstrained). Lower is more selective.
  double selectivity(const Schema& schema, std::size_t attr) const;

  /// The most selective constrained attribute
  /// (argmin_i r_i / |Omega_i|; ties break to the lowest index), or
  /// nullopt if there are no constraints. This is the "selective
  /// attribute" sigma.c_s of Mapping 3.
  std::optional<std::size_t> most_selective_attribute(
      const Schema& schema) const;
};

using SubscriptionPtr = std::shared_ptr<const Subscription>;

std::ostream& operator<<(std::ostream& os, const Subscription& s);

}  // namespace cbps::pubsub
