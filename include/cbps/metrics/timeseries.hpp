// Periodic time-series recorder: a fixed column schema plus rows of
// (sim-time, values). The sampling *task* lives with whoever owns a
// simulator (PubSubSystem arms a periodic timer); this class is just the
// deterministic storage + JSON export, so fault-script runs can plot
// degradation and recovery curves.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cbps::metrics {

class TimeSeries {
 public:
  explicit TimeSeries(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Append one sample row; `row` must match the column schema's arity.
  void append(std::uint64_t t_us, std::vector<double> row);

  const std::vector<std::string>& columns() const { return columns_; }
  std::size_t size() const { return times_us_.size(); }
  const std::vector<std::uint64_t>& times_us() const { return times_us_; }
  const std::vector<double>& row(std::size_t i) const { return rows_[i]; }

  /// {"columns":[...],"rows":[[t_s, v0, v1, ...], ...]}
  void write_json(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::uint64_t> times_us_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace cbps::metrics
