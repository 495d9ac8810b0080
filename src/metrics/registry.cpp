#include "cbps/metrics/registry.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>
#include <vector>

namespace cbps::metrics {

std::uint64_t Registry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

void Registry::reset_all() {
  // Reset in place: callers hold Counter&/Histogram&
  // handles across resets (per-phase measurement), so entries must
  // never be destroyed.
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, h] : histograms_) h.reset();
}

void Registry::print(std::ostream& os) const {
  // Merge the two maps into one name-sorted table: each source map is
  // already sorted, so collecting and sorting by name yields a single
  // deterministic interleaving regardless of entry kinds.
  std::vector<std::pair<const std::string*, std::string>> lines;
  lines.reserve(counters_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    lines.emplace_back(&name, std::to_string(c.value()));
  }
  for (const auto& [name, h] : histograms_) {
    std::ostringstream line;
    h.print(line);
    lines.emplace_back(&name, line.str());
  }
  std::sort(lines.begin(), lines.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& [name, text] : lines) {
    os << std::left << std::setw(44) << *name << ' ' << text << '\n';
  }
}

}  // namespace cbps::metrics
