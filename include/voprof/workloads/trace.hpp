#pragma once
/// \file trace.hpp
/// Trace-driven workload replay: feed a recorded per-interval
/// utilization trace (e.g. a CSV logged by the monitoring script, or a
/// production trace) back into a simulated VM. This is the
/// "trace-driven" half of the paper's evaluation methodology — models
/// fitted on micro-benchmarks are validated against traces of real
/// applications.

#include <string>
#include <vector>

#include "voprof/util/csv.hpp"
#include "voprof/xensim/process.hpp"

namespace voprof::wl {

/// One interval of a recorded workload.
struct TracePoint {
  double duration_s = 1.0;  ///< how long this level holds
  double cpu_pct = 0.0;
  double mem_mib = 0.0;
  double io_blocks_per_s = 0.0;
  double bw_kbps = 0.0;
};

/// Replays a trace inside a VM, holding each point for its duration.
class TraceWorkload final : public sim::GuestProcess {
 public:
  /// \param loop  wrap around at the end (otherwise holds the last
  ///        point forever)
  TraceWorkload(std::vector<TracePoint> trace, sim::NetTarget bw_target,
                bool loop = true);

  [[nodiscard]] sim::ProcessDemand demand(util::SimMicros now,
                                          double dt) override;
  [[nodiscard]] std::string label() const override;

  [[nodiscard]] std::size_t size() const noexcept { return trace_.size(); }
  [[nodiscard]] bool looping() const noexcept { return loop_; }
  /// Index of the point active at sim time `now` (for tests).
  [[nodiscard]] std::size_t index_at(util::SimMicros now) const;

 private:
  std::vector<TracePoint> trace_;
  std::vector<double> cumulative_s_;  ///< end time of each point
  double total_s_ = 0.0;
  sim::NetTarget bw_target_;
  bool loop_;
};

/// Build a trace from a CSV with columns cpu/mem/io/bw (names
/// configurable via `prefix`, e.g. "vm_" matches the monitor_demo
/// dump). Every row becomes one point of `interval_s` seconds. A CSV
/// without the cpu column or without rows is Errc::kValidation.
[[nodiscard]] util::Result<std::vector<TracePoint>> trace_from_csv_result(
    const util::CsvDocument& csv, const std::string& prefix = "vm_",
    double interval_s = 1.0);
/// Throwing shim over trace_from_csv_result (throws ContractViolation).
[[nodiscard]] std::vector<TracePoint> trace_from_csv(
    const util::CsvDocument& csv, const std::string& prefix = "vm_",
    double interval_s = 1.0);

/// Synthesize a diurnal (daily-pattern) trace: CPU and bandwidth swing
/// sinusoidally between a trough and a peak over `period_s`, with
/// seeded per-point noise — the load shape capacity planners and
/// hotspot controllers face in production. `points` spans one period.
struct DiurnalSpec {
  double cpu_trough_pct = 10.0;
  double cpu_peak_pct = 80.0;
  double bw_trough_kbps = 100.0;
  double bw_peak_kbps = 1500.0;
  double io_trough_blocks = 2.0;
  double io_peak_blocks = 40.0;
  double mem_mib = 60.0;
  double period_s = 300.0;  ///< compressed "day" for simulation
  std::size_t points = 100;
  double noise_rel = 0.05;
};

[[nodiscard]] std::vector<TracePoint> make_diurnal_trace(
    const DiurnalSpec& spec, std::uint64_t seed = 9);

}  // namespace voprof::wl
