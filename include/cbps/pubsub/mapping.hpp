// The ak-mapping module (paper Figure 2): stateless mappings from the
// subscription space Sigma and the event space Omega into the overlay key
// space K.
//
//   SK : Sigma -> 2^K   keys a subscription is stored at
//   EK : Omega -> 2^K   rendezvous keys of an event
//
// Every mapping must satisfy the *mapping intersection rule*:
//   e in sigma  =>  EK(e) ∩ SK(sigma) != ∅            (paper §3.2)
//
// Three concrete mappings are provided (§4.2): Attribute-Split,
// Key Space-Split and Selective-Attribute, all parameterized by the
// scaling hash h_i(x) = x * 2^l / |Omega_i| and an optional
// discretization interval (§4.3.3).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "cbps/common/interval.hpp"
#include "cbps/common/key_range.hpp"
#include "cbps/common/ring.hpp"
#include "cbps/common/types.hpp"
#include "cbps/pubsub/event.hpp"
#include "cbps/pubsub/schema.hpp"
#include "cbps/pubsub/subscription.hpp"

namespace cbps::pubsub {

/// The paper's scaling hash h_i(x) = x * 2^l / |Omega_i| (§4.2), shifted
/// to general domains and composed with the discretization of §4.3.3
/// (values are first rounded down to a multiple of the interval width, so
/// every value in an interval shares one rendezvous key).
class ScalingHasher {
 public:
  ScalingHasher(ClosedInterval domain, unsigned bits,
                Value interval_width = 1);

  unsigned bits() const { return bits_; }
  Value interval_width() const { return width_; }

  /// h(x) for x in the domain; an l-bit value.
  std::uint64_t hash(Value x) const;

  /// H(c): all distinct hash values over the (clamped) value range,
  /// ascending. Without discretization this is the contiguous integer
  /// range [h(lo), h(hi)]; with discretization, one value per overlapped
  /// interval.
  std::vector<std::uint64_t> hash_set(ClosedInterval r) const;

  /// H(c) as maximal runs of consecutive hash values, ascending. Without
  /// discretization this is the single run [h(lo), h(hi)], computed
  /// without listing its values.
  std::vector<KeyRange> hash_runs(ClosedInterval r) const;

 private:
  ClosedInterval domain_;
  unsigned bits_;
  Value width_;  // discretization interval width (1 = none)
};

/// Options shared by all mappings.
struct MappingOptions {
  /// Discretization interval width in attribute values (1 disables,
  /// §4.3.3). Applied uniformly to every attribute.
  Value discretization = 1;

  /// Key-space rotation: every SK/EK key is shifted by this offset
  /// modulo 2^m. This is the "nearly static" mapping adjustment of §4.2:
  /// when the mapped region of the event space turns into a hotspot, an
  /// (infrequently disseminated) epoch offset relocates it to different
  /// nodes. Applied uniformly to SK and EK, it trivially preserves the
  /// mapping intersection rule.
  Key rotation = 0;
};

/// Abstract stateless mapping (the paper's "subscription-static"
/// mappings: SK/EK never depend on which subscriptions are stored).
///
/// Concrete mappings implement the *_impl virtuals; the public methods
/// apply the shared key-space rotation on top.
class AkMapping {
 public:
  AkMapping(Schema schema, RingParams ring, Key rotation = 0)
      : schema_(std::move(schema)), ring_(ring), rotation_(rotation) {}
  virtual ~AkMapping() = default;

  virtual std::string_view name() const = 0;

  /// SK(sigma).  Sorted, deduplicated: the keys of subscription_ranges.
  std::vector<Key> subscription_keys(const Subscription& sub) const {
    return expand_ascending(ring_, subscription_ranges(sub));
  }

  /// EK(e).  Sorted, deduplicated.
  std::vector<Key> event_keys(const Event& e) const {
    return rotate(event_keys_impl(e));
  }

  /// Rendezvous-side filter: whether a rendezvous that received `e` via
  /// `delivered_key` should notify `sub`'s subscriber. Mappings whose EK
  /// returns multiple keys (Selective-Attribute) use this to guarantee
  /// exactly-once notification; single-key EK mappings always say yes.
  bool should_notify(const Subscription& sub, const Event& e,
                     Key delivered_key) const {
    return should_notify_impl(sub, e, ring_.sub(delivered_key, rotation_));
  }

  /// SK(sigma) as maximal runs of consecutive keys, sorted by lo except
  /// that a run wrapping past 2^m - 1 comes first (see compress_keys).
  /// This is the form the subscribe path carries end to end; the
  /// collecting optimization elects the node covering each run's middle
  /// key as the run's agent (§4.3.2).
  std::vector<KeyRange> subscription_ranges(const Subscription& sub) const {
    return rotate(subscription_ranges_impl(sub));
  }

  const Schema& schema() const { return schema_; }
  RingParams ring() const { return ring_; }
  Key rotation() const { return rotation_; }

 protected:
  /// Unrotated SK(sigma) as runs in any order; they may overlap, touch
  /// or wrap.
  virtual std::vector<KeyRange> subscription_ranges_impl(
      const Subscription& sub) const = 0;
  virtual std::vector<Key> event_keys_impl(const Event& e) const = 0;
  virtual bool should_notify_impl(const Subscription& sub, const Event& e,
                                  Key unrotated_key) const {
    (void)sub;
    (void)e;
    (void)unrotated_key;
    return true;
  }

  std::vector<Key> rotate(std::vector<Key> keys) const;
  std::vector<KeyRange> rotate(std::vector<KeyRange> runs) const;

  Schema schema_;
  RingParams ring_;
  Key rotation_;
};

enum class MappingKind {
  kAttributeSplit,    // Mapping 1
  kKeySpaceSplit,     // Mapping 2
  kSelectiveAttribute // Mapping 3
};

std::string_view to_string(MappingKind kind);

/// How Attribute-Split's EK picks "some i" (§4.2 leaves the choice free).
enum class EventAttrPolicy {
  kFixedFirst,  // always attribute 0
  kByEventId,   // event id modulo d — spreads rendezvous load
};

std::unique_ptr<AkMapping> make_mapping(MappingKind kind, Schema schema,
                                        RingParams ring,
                                        MappingOptions options = {});

/// Attribute-Split with an explicit event-attribute policy.
std::unique_ptr<AkMapping> make_attribute_split(
    Schema schema, RingParams ring, MappingOptions options,
    EventAttrPolicy policy);

}  // namespace cbps::pubsub
