#include "cbps/pubsub/mapping.hpp"

#include <algorithm>

#include "cbps/common/assert.hpp"

namespace cbps::pubsub {

// ---------------------------------------------------------------------------
// ScalingHasher
// ---------------------------------------------------------------------------

ScalingHasher::ScalingHasher(ClosedInterval domain, unsigned bits,
                             Value interval_width)
    : domain_(domain), bits_(bits), width_(interval_width) {
  CBPS_ASSERT_MSG(bits >= 1 && bits <= 63, "hash width out of range");
  CBPS_ASSERT_MSG(interval_width >= 1, "discretization width must be >= 1");
}

std::uint64_t ScalingHasher::hash(Value x) const {
  CBPS_ASSERT_MSG(domain_.contains(x), "value outside attribute domain");
  std::uint64_t shifted = static_cast<std::uint64_t>(x - domain_.lo);
  if (width_ > 1) {
    const auto w = static_cast<std::uint64_t>(width_);
    shifted = shifted / w * w;
  }
  // h(x) = x * 2^l / |Omega|, in 128-bit to avoid overflow.
  const Uint128 scaled =
      (static_cast<Uint128>(shifted) << bits_) / domain_.width();
  const auto h = static_cast<std::uint64_t>(scaled);
  CBPS_ASSERT(h < (std::uint64_t{1} << bits_));
  return h;
}

std::vector<std::uint64_t> ScalingHasher::hash_set(ClosedInterval r) const {
  const auto clamped = r.intersect(domain_);
  if (!clamped) return {};
  std::vector<std::uint64_t> out;
  if (width_ == 1) {
    // The image of a contiguous value range is the contiguous integer
    // range [h(lo), h(hi)] (h is monotone; when 2^l <= |Omega| it hits
    // every integer in between, and the contiguous superset is still a
    // correct, and contiguous, SK otherwise).
    const std::uint64_t lo = hash(clamped->lo);
    const std::uint64_t hi = hash(clamped->hi);
    out.reserve(hi - lo + 1);
    for (std::uint64_t v = lo; v <= hi; ++v) out.push_back(v);
    return out;
  }
  // One hash value per overlapped discretization interval.
  const auto w = static_cast<std::uint64_t>(width_);
  const std::uint64_t first =
      static_cast<std::uint64_t>(clamped->lo - domain_.lo) / w;
  const std::uint64_t last =
      static_cast<std::uint64_t>(clamped->hi - domain_.lo) / w;
  out.reserve(last - first + 1);
  for (std::uint64_t a = first; a <= last; ++a) {
    const Value bucket_start =
        domain_.lo + static_cast<Value>(a * w);
    const std::uint64_t h = hash(std::min(bucket_start, domain_.hi));
    if (out.empty() || out.back() != h) out.push_back(h);
  }
  return out;
}

std::vector<KeyRange> ScalingHasher::hash_runs(ClosedInterval r) const {
  if (width_ == 1) {
    const auto clamped = r.intersect(domain_);
    if (!clamped) return {};
    return {{hash(clamped->lo), hash(clamped->hi)}};
  }
  std::vector<KeyRange> runs;
  for (const std::uint64_t h : hash_set(r)) {
    if (!runs.empty() && runs.back().hi + 1 == h) {
      runs.back().hi = h;
    } else {
      runs.push_back({h, h});
    }
  }
  return runs;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

namespace {

void sort_unique(std::vector<Key>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

std::vector<ScalingHasher> make_hashers(const Schema& schema, unsigned bits,
                                        const MappingOptions& opt) {
  std::vector<ScalingHasher> hs;
  hs.reserve(schema.dimensions());
  for (std::size_t i = 0; i < schema.dimensions(); ++i) {
    hs.emplace_back(schema.domain(i), bits, opt.discretization);
  }
  return hs;
}

}  // namespace

std::vector<Key> AkMapping::rotate(std::vector<Key> keys) const {
  if (rotation_ == 0) return keys;
  for (Key& k : keys) k = ring_.add(k, rotation_);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<KeyRange> AkMapping::rotate(std::vector<KeyRange> runs) const {
  if (rotation_ != 0) {
    for (KeyRange& r : runs) {
      r = {ring_.add(r.lo, rotation_), ring_.add(r.hi, rotation_)};
    }
  }
  return normalize_runs(ring_, runs);
}

std::string_view to_string(MappingKind kind) {
  switch (kind) {
    case MappingKind::kAttributeSplit:
      return "attribute-split";
    case MappingKind::kKeySpaceSplit:
      return "key-space-split";
    case MappingKind::kSelectiveAttribute:
      return "selective-attribute";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Mapping 1: Attribute-Split
// ---------------------------------------------------------------------------
//
// l = m. Each constraint hashes independently; SK is the union over all
// attributes (unconstrained attributes contribute their full domain so
// that EK may pick any attribute). EK hashes one attribute of the event.

namespace {

class AttributeSplitMapping final : public AkMapping {
 public:
  AttributeSplitMapping(Schema schema, RingParams ring,
                        MappingOptions opt, EventAttrPolicy policy)
      : AkMapping(std::move(schema), ring, opt.rotation),
        hashers_(make_hashers(schema_, ring.bits(), opt)),
        policy_(policy) {}

  std::string_view name() const override { return "attribute-split"; }

  std::vector<KeyRange> subscription_ranges_impl(
      const Subscription& sub) const override {
    std::vector<KeyRange> runs;
    for (std::size_t i = 0; i < schema_.dimensions(); ++i) {
      const Constraint* c = sub.constraint_on(i);
      const ClosedInterval r = c ? c->range : schema_.domain(i);
      for (const KeyRange& run : hashers_[i].hash_runs(r)) {
        runs.push_back(run);
      }
    }
    return runs;
  }

  std::vector<Key> event_keys_impl(const Event& e) const override {
    const std::size_t i =
        policy_ == EventAttrPolicy::kFixedFirst
            ? 0
            : static_cast<std::size_t>(e.id % schema_.dimensions());
    return {hashers_[i].hash(e.value(i))};
  }

 private:
  std::vector<ScalingHasher> hashers_;
  EventAttrPolicy policy_;
};

// ---------------------------------------------------------------------------
// Mapping 2: Key Space-Split
// ---------------------------------------------------------------------------
//
// l = floor(m / d) bits per attribute. SK is every concatenation of
// per-attribute fragments; EK is the single concatenation of the event's
// fragments. The concatenation occupies the high key bits so the produced
// keys spread uniformly over the whole ring even when d*l < m.

class KeySpaceSplitMapping final : public AkMapping {
 public:
  KeySpaceSplitMapping(Schema schema, RingParams ring, MappingOptions opt)
      : AkMapping(std::move(schema), ring, opt.rotation),
        frag_bits_(ring.bits() / static_cast<unsigned>(schema_.dimensions())),
        pad_bits_(ring.bits() -
                  frag_bits_ * static_cast<unsigned>(schema_.dimensions())),
        hashers_(make_hashers(schema_, frag_bits_, opt)) {
    CBPS_ASSERT_MSG(frag_bits_ >= 1,
                    "key space too small: need m >= d for Key Space-Split");
  }

  std::string_view name() const override { return "key-space-split"; }

  std::vector<KeyRange> subscription_ranges_impl(
      const Subscription& sub) const override {
    // Cartesian product of the per-attribute fragment sets.
    std::vector<Key> partial{0};
    for (std::size_t i = 0; i < schema_.dimensions(); ++i) {
      const Constraint* c = sub.constraint_on(i);
      const ClosedInterval r = c ? c->range : schema_.domain(i);
      const std::vector<std::uint64_t> frags = hashers_[i].hash_set(r);
      CBPS_ASSERT(!frags.empty());
      std::vector<Key> next;
      next.reserve(partial.size() * frags.size());
      for (Key p : partial) {
        for (std::uint64_t f : frags) next.push_back((p << frag_bits_) | f);
      }
      partial = std::move(next);
      CBPS_ASSERT_MSG(partial.size() <= (std::size_t{1} << 22),
                      "Key Space-Split product exploded; coarsen the "
                      "discretization or constrain more attributes");
    }
    for (Key& k : partial) k <<= pad_bits_;
    return compress_keys(ring_, std::move(partial));
  }

  std::vector<Key> event_keys_impl(const Event& e) const override {
    Key k = 0;
    for (std::size_t i = 0; i < schema_.dimensions(); ++i) {
      k = (k << frag_bits_) | hashers_[i].hash(e.value(i));
    }
    return {k << pad_bits_};
  }

 private:
  unsigned frag_bits_;
  unsigned pad_bits_;
  std::vector<ScalingHasher> hashers_;
};

// ---------------------------------------------------------------------------
// Mapping 3: Selective-Attribute
// ---------------------------------------------------------------------------
//
// l = m. A subscription maps only by its most selective constraint; an
// event maps by every attribute (d keys worst case). A rendezvous
// notifies a subscription only when the key the event arrived on is the
// subscription's own selective-attribute key — this keeps notification
// exactly-once even when several event keys land in one stored range.

class SelectiveAttributeMapping final : public AkMapping {
 public:
  SelectiveAttributeMapping(Schema schema, RingParams ring,
                            MappingOptions opt)
      : AkMapping(std::move(schema), ring, opt.rotation),
        hashers_(make_hashers(schema_, ring.bits(), opt)) {}

  std::string_view name() const override { return "selective-attribute"; }

  std::vector<KeyRange> subscription_ranges_impl(
      const Subscription& sub) const override {
    const std::size_t s = selective_attr(sub);
    const Constraint* c = sub.constraint_on(s);
    return hashers_[s].hash_runs(c ? c->range : schema_.domain(s));
  }

  std::vector<Key> event_keys_impl(const Event& e) const override {
    std::vector<Key> keys;
    keys.reserve(schema_.dimensions());
    for (std::size_t i = 0; i < schema_.dimensions(); ++i) {
      keys.push_back(hashers_[i].hash(e.value(i)));
    }
    sort_unique(keys);
    return keys;
  }

  bool should_notify_impl(const Subscription& sub, const Event& e,
                          Key delivered_key) const override {
    const std::size_t s = selective_attr(sub);
    return hashers_[s].hash(e.value(s)) == delivered_key;
  }

 private:
  std::size_t selective_attr(const Subscription& sub) const {
    return sub.most_selective_attribute(schema_).value_or(0);
  }

  std::vector<ScalingHasher> hashers_;
};

}  // namespace

std::unique_ptr<AkMapping> make_mapping(MappingKind kind, Schema schema,
                                        RingParams ring,
                                        MappingOptions options) {
  switch (kind) {
    case MappingKind::kAttributeSplit:
      return std::make_unique<AttributeSplitMapping>(
          std::move(schema), ring, options, EventAttrPolicy::kByEventId);
    case MappingKind::kKeySpaceSplit:
      return std::make_unique<KeySpaceSplitMapping>(std::move(schema), ring,
                                                    options);
    case MappingKind::kSelectiveAttribute:
      return std::make_unique<SelectiveAttributeMapping>(std::move(schema),
                                                         ring, options);
  }
  CBPS_ASSERT_MSG(false, "unknown mapping kind");
  return nullptr;
}

std::unique_ptr<AkMapping> make_attribute_split(Schema schema,
                                                RingParams ring,
                                                MappingOptions options,
                                                EventAttrPolicy policy) {
  return std::make_unique<AttributeSplitMapping>(std::move(schema), ring,
                                                 options, policy);
}

}  // namespace cbps::pubsub
