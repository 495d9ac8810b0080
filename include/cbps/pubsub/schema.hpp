// The event space Omega: a d-dimensional space of named, typed numeric
// attributes (paper §3.2). String attributes are reduced to numbers by
// hashing before they enter the schema.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/interval.hpp"
#include "cbps/common/types.hpp"

namespace cbps::pubsub {

struct AttributeDef {
  std::string name;
  ClosedInterval domain;  // Omega_i: the attribute's value range
};

class Schema {
 public:
  explicit Schema(std::vector<AttributeDef> attributes)
      : attributes_(std::move(attributes)) {
    CBPS_ASSERT_MSG(!attributes_.empty(), "schema needs >= 1 attribute");
  }

  /// d, the dimensionality of the event space.
  std::size_t dimensions() const { return attributes_.size(); }

  const AttributeDef& attribute(std::size_t i) const {
    CBPS_ASSERT(i < attributes_.size());
    return attributes_[i];
  }

  const ClosedInterval& domain(std::size_t i) const {
    return attribute(i).domain;
  }

  /// Index of the attribute named `name`, or nullopt.
  std::optional<std::size_t> attribute_index(std::string_view name) const {
    for (std::size_t i = 0; i < attributes_.size(); ++i) {
      if (attributes_[i].name == name) return i;
    }
    return std::nullopt;
  }

  /// |Omega_i|, the number of values in attribute i's domain.
  std::uint64_t domain_size(std::size_t i) const {
    return domain(i).width();
  }

  /// The paper's evaluation schema: `d` integer attributes named a0..a<d>
  /// ranging over [0, attr_max] (§5.1 uses d=4, attr_max=1,000,000).
  static Schema uniform(std::size_t d, Value attr_max) {
    std::vector<AttributeDef> attrs;
    attrs.reserve(d);
    for (std::size_t i = 0; i < d; ++i) {
      std::string name(1, 'a');
      name += std::to_string(i);
      attrs.push_back({std::move(name), {0, attr_max}});
    }
    return Schema(std::move(attrs));
  }

  /// Reduce a string attribute value to a number inside attribute i's
  /// domain (the paper's §3.2 footnote 2: "string values can be reduced
  /// to numbers by applying a hashing"). Equality constraints on the
  /// resulting value behave exactly like string-equality subscriptions;
  /// range constraints over hashed strings are not meaningful.
  Value value_from_string(std::size_t attr, std::string_view s) const;

 private:
  std::vector<AttributeDef> attributes_;
};

}  // namespace cbps::pubsub
