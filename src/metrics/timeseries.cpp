#include "cbps/metrics/timeseries.hpp"

#include <ostream>

#include "cbps/common/assert.hpp"

namespace cbps::metrics {

void TimeSeries::append(std::uint64_t t_us, std::vector<double> row) {
  CBPS_ASSERT_MSG(row.size() == columns_.size(),
                  "TimeSeries row arity mismatch");
  times_us_.push_back(t_us);
  rows_.push_back(std::move(row));
}

void TimeSeries::write_json(std::ostream& os) const {
  os << "{\"columns\":[\"t_s\"";
  for (const auto& c : columns_) os << ",\"" << c << "\"";
  os << "],\"rows\":[";
  for (std::size_t i = 0; i < times_us_.size(); ++i) {
    if (i) os << ",";
    os << "\n[" << static_cast<double>(times_us_[i]) / 1e6;
    for (double v : rows_[i]) os << "," << v;
    os << "]";
  }
  os << "\n]}";
}

}  // namespace cbps::metrics
