#pragma once
/// \file report.hpp
/// Named metrics and the benchmark's output: "name = value unit" lines
/// for people, and the one-line JSON result that ends stdout
/// ({"correct", "attempted", "failed", "metrics"}).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// 1-64 characters of [A-Za-z0-9_.-], the first a letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Add or overwrite a metric; std::invalid_argument for a bad name.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(std::string_view name) const noexcept;
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
};

/// "  name = value unit", the value with all its digits.
void print_metric(std::ostream& os, const Metric& metric);

/// The metric sets BENCHMARK.json declares, in its order.
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
[[nodiscard]] const std::vector<std::string>& per_layer_names();

/// Names of `names` the report lacks or holds a non-finite value for.
[[nodiscard]] std::vector<std::string> missing_metrics(
    const Report& report, const std::vector<std::string>& names);

/// The JSON result line over `names`. A missing metric is written as 0
/// and makes the line say "correct": false, so a gap never passes.
[[nodiscard]] std::string result_line(const Report& report,
                                      const std::vector<std::string>& names,
                                      bool correct, std::uint64_t attempted,
                                      std::uint64_t failed);

}  // namespace perfbench
