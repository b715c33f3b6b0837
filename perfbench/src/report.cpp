#include "report.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "voprof/util/numeric.hpp"

namespace perfbench {

namespace {

bool alnum(char c) noexcept {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("metric name outside [A-Za-z0-9_.-]+: '" +
                                name + "'");
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* Report::find(std::string_view name) const noexcept {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_metric(std::ostream& os, const Metric& metric) {
  os << "  " << std::left << std::setw(36) << metric.name << " = "
     << voprof::util::format_double(metric.value) << ' ' << metric.unit
     << '\n';
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s", "p50_ms", "heavy_p50_ms", "cpu_ms_per_op", "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "gen.lag_ms_p99",
      "serve.transport_us",
      "serve.service_us",
      "serve.api_parse_us",
      "serve.api_encode_us",
      "serve.handler_ms_mean",
      "serve.queue_wait_ms_mean",
      "serve.accepted",
      "serve.rejected_overloaded",
      "serve.timed_out",
      "serve.failed",
      "serve.self_ms",
      "runner.cache_hits",
      "runner.cache_misses",
      "runner.cache_get_hit_us",
      "runner.cache_stall_ms_p99",
      "runner.sweep_cells",
      "runner.self_ms",
      "util.task_pool_busy_pct",
      "util.self_ms",
      "core.collect_s",
      "core.fit_lms_s",
      "core.fit_ols_s",
      "core.predict_ns",
      "core.self_ms",
      "xensim.events_fired",
      "xensim.events_stale",
      "xensim.ticks",
      "xensim.heap_depth_max",
      "xensim.host_ns_per_event",
      "xensim.stale_ratio",
      "xensim.credit_micro_contended_ticks",
      "monitor.samples",
      "monitor.measure_s",
      "monitor.self_ms",
      "scenario.replication_ms",
      "scenario.self_ms",
      "placement.run_cell_s",
      "placement.place_us",
      "placement.self_ms",
      "rubis.requests_completed",
      "obs.trace_overhead_pct"};
  return names;
}

std::vector<std::string> missing_metrics(
    const Report& report, const std::vector<std::string>& names) {
  std::vector<std::string> missing;
  for (const std::string& name : names) {
    const Metric* m = report.find(name);
    if (m == nullptr || !std::isfinite(m->value)) missing.push_back(name);
  }
  return missing;
}

std::string result_line(const Report& report,
                        const std::vector<std::string>& names, bool correct,
                        std::uint64_t attempted, std::uint64_t failed) {
  const bool complete = missing_metrics(report, names).empty();
  std::ostringstream os;
  os << "{\"correct\": " << (correct && complete ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric* m = report.find(names[i]);
    const bool usable = m != nullptr && std::isfinite(m->value);
    os << (i > 0 ? ", " : "") << '"' << names[i] << "\": {\"value\": "
       << voprof::util::format_double(usable ? m->value : 0.0)
       << ", \"unit\": \"" << (m != nullptr ? m->unit : "count") << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
