#pragma once
/// \file script.hpp
/// The combined measurement script of Sec. III-A: drives all five tools
/// synchronously at a configurable interval (default 1 s) for a
/// configurable duration (default 2 min), records every entity's four
/// metrics as time series, and reports the averages the paper reports.
///
/// Like the paper's script it also *perturbs* the system: while running
/// it charges each tool's CPU self-overhead to the domain hosting it
/// (Dom0 for xentop/mpstat/vmstat/ifconfig, each guest for the per-VM
/// top instance) unless overhead injection is disabled.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "voprof/monitor/sample.hpp"
#include "voprof/monitor/tools.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/time_series.hpp"
#include "voprof/xensim/cluster.hpp"
#include "voprof/xensim/engine.hpp"

namespace voprof::mon {

/// Per-entity recorded series (one per metric).
struct SeriesSet {
  util::TimeSeries cpu;
  util::TimeSeries mem;
  util::TimeSeries io;
  util::TimeSeries bw;

  [[nodiscard]] UtilSample mean() const noexcept {
    return UtilSample{cpu.mean(), mem.mean(), io.mean(), bw.mean()};
  }
};

/// Result of one monitored run.
class MeasurementReport {
 public:
  /// Canonical entity keys: each VM by name, plus kDom0Key, kHypKey and
  /// kPmKey.
  static constexpr const char* kDom0Key = "Domain-0";
  static constexpr const char* kHypKey = "hypervisor";
  static constexpr const char* kPmKey = "PM";

  [[nodiscard]] bool has(const std::string& key) const noexcept;
  [[nodiscard]] const SeriesSet& series(const std::string& key) const;
  [[nodiscard]] SeriesSet& series_mutable(const std::string& key);
  /// 2-minute-style average of every metric for one entity.
  [[nodiscard]] UtilSample mean(const std::string& key) const;
  /// Per-metric percentile (q in [0,100]) over the recorded samples —
  /// peak-oriented views for capacity questions ("what does this VM's
  /// p95 CPU look like"), which averages hide.
  [[nodiscard]] UtilSample percentile(const std::string& key,
                                      double q) const;
  [[nodiscard]] std::vector<std::string> keys() const;
  [[nodiscard]] std::size_t sample_count() const noexcept;

 private:
  std::map<std::string, SeriesSet> entities_;
};

/// Export a report's full synchronized time series as CSV: one row per
/// sample, columns t_s plus <entity>_{cpu,mem,io,bw} for every entity
/// (the format the paper's measurement script logged, and what
/// wl::trace_from_csv_result consumes back, with prefix "<entity>_").
[[nodiscard]] util::CsvDocument report_to_csv(const MeasurementReport& report);

/// Configuration of the measurement run.
struct MonitorConfig {
  /// Sampling interval (paper: every second).
  util::SimMicros interval = util::seconds(1.0);
  /// Inject tool self-overhead into the measured domains.
  bool inject_overhead = true;
};

/// Synchronized monitor for one PM.
class MonitorScript {
 public:
  /// Binds to one machine of a cluster. Does not start sampling yet.
  MonitorScript(sim::Engine& engine, sim::PhysicalMachine& machine,
                MonitorConfig config = {});
  ~MonitorScript();

  MonitorScript(const MonitorScript&) = delete;
  MonitorScript& operator=(const MonitorScript&) = delete;

  /// Install tool overheads and schedule periodic sampling starting one
  /// interval from now. May be called once.
  void start();
  /// Remove overheads and stop recording (idempotent).
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Run the paper's standard measurement: start, simulate `duration`,
  /// stop, and return the report. Convenience wrapper used by the
  /// benches ("every second for 2 minutes ... report the average").
  [[nodiscard]] const MeasurementReport& measure(
      util::SimMicros duration = util::seconds(120.0));

  [[nodiscard]] const MeasurementReport& report() const noexcept {
    return report_;
  }

  /// Total Dom0 CPU self-overhead of the Dom0-hosted tools, % of a core.
  [[nodiscard]] double dom0_overhead_pct() const noexcept;
  /// Per-guest CPU self-overhead (the in-VM top/vmstat agents).
  [[nodiscard]] double guest_overhead_pct() const noexcept;

 private:
  class GuestAgent;  // in-VM top/vmstat instance

  void take_sample();

  sim::Engine& engine_;
  sim::PhysicalMachine& machine_;
  MonitorConfig config_;
  MeasurementReport report_;

  std::vector<std::unique_ptr<Tool>> tools_;
  std::vector<std::unique_ptr<GuestAgent>> agents_;
  int dom0_overhead_id_ = -1;
  bool running_ = false;
  bool started_once_ = false;
  /// Native periodic sampling timer; cancelled by stop(), after which
  /// the engine never invokes the callback again.
  sim::TimerId timer_id_ = sim::kInvalidTimer;
  /// Snapshot pair, refreshed in place each interval (snapshot_into)
  /// and swapped instead of copied — steady-state sampling allocates
  /// nothing.
  sim::MachineSnapshot prev_;
  sim::MachineSnapshot cur_;
};

}  // namespace voprof::mon
