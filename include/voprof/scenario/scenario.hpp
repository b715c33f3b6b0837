#pragma once
/// \file scenario.hpp
/// Declarative experiment runner: describe a testbed in a small INI
/// file and run it — machines, guests with workloads, monitors — so
/// new measurement studies need no C++. Used by `voprofctl simulate`.
///
/// ```ini
/// [cluster]
/// seed = 42
/// machines = 2          # host PMs (a client/aux PM is just another machine)
///
/// [vm web]              # one section per guest
/// machine = 0
/// cpu = 55              # MixedWorkload levels; omit for idle
/// bw = 1800
/// bw_target_machine = 1 # optional: send traffic to a VM...
/// bw_target_vm = sink   # ...instead of an external host
///
/// [vm sink]
/// machine = 1
///
/// [monitor]             # one per machine to measure
/// machine = 0
///
/// [run]
/// duration = 60         # seconds
/// warmup = 5
/// ```

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "voprof/monitor/script.hpp"
#include "voprof/util/ini.hpp"
#include "voprof/util/stats.hpp"
#include "voprof/xensim/cluster.hpp"

namespace voprof::scenario {

/// Parsed, validated scenario description.
struct ScenarioSpec {
  std::uint64_t seed = 42;
  int machines = 1;
  sim::SchedulerMode scheduler = sim::SchedulerMode::kMacro;
  double warmup_s = 0.0;
  double duration_s = 60.0;

  struct VmEntry {
    std::string name;
    int machine = 0;
    double cpu_pct = 0.0;
    double mem_mib = 0.0;
    double io_blocks = 0.0;
    double bw_kbps = 0.0;
    int bw_target_machine = sim::NetTarget::kExternal;
    std::string bw_target_vm;
    /// Replay a recorded CSV trace (columns vm_{cpu,mem,io,bw}) instead
    /// of steady levels; mutually exclusive with cpu/mem/io/bw keys.
    std::string trace_path;
    double trace_interval_s = 1.0;
  };
  std::vector<VmEntry> vms;
  std::vector<int> monitored_machines;

  /// Primary, non-throwing API: parse + validate from INI text.
  /// Parse errors carry Errc::kParse with a line context; semantic
  /// problems (duplicate VM names, out-of-range machine indices,
  /// non-positive durations...) carry Errc::kValidation with the
  /// offending section as context.
  [[nodiscard]] static util::Result<ScenarioSpec> parse_result(
      const std::string& text);
  [[nodiscard]] static util::Result<ScenarioSpec> load_result(
      const std::string& path);

  /// Throwing shim over parse_result (throws ContractViolation).
  [[nodiscard]] static ScenarioSpec parse(const std::string& text);
};

/// Thrown by run_scenario when a [vm] trace file cannot be read or
/// replayed. It reports bad input, not a library failure: error() names
/// the VM section and the CSV row and column, never the file's content,
/// so a server can hand it back to a client that may not read the file.
class TraceInputError : public util::ContractViolation {
 public:
  explicit TraceInputError(util::Error error);
  [[nodiscard]] const util::Error& error() const noexcept { return error_; }

 private:
  util::Error error_;
};

/// Result: one report per monitored machine, keyed by machine index.
struct ScenarioResult {
  std::map<int, mon::MeasurementReport> reports;
  /// Summary table of every monitored entity's mean utilizations.
  [[nodiscard]] std::string summary() const;
};

/// Build the testbed and run it. Throws TraceInputError for a [vm]
/// trace that cannot be replayed.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Aggregate of several independent replications of one scenario.
/// Replication r runs with seed util::seed_for(spec.seed, r); its 1 s
/// samples are folded into per-entity streaming stats which are merged
/// across replications in replication order, so the aggregate is
/// identical no matter how many workers executed the runs.
struct ReplicatedScenarioResult {
  struct EntityStats {
    util::RunningStats cpu;
    util::RunningStats mem;
    util::RunningStats io;
    util::RunningStats bw;
  };
  /// machine index -> entity key -> stats over all samples of all runs.
  std::map<int, std::map<std::string, EntityStats>> stats;
  std::size_t replications = 0;

  /// Summary table (mean and stddev of CPU) per monitored machine.
  [[nodiscard]] std::string summary() const;
};

/// Run `replications` independent copies of the scenario, fanned over
/// `jobs` workers (1 = serial, 0 = all hardware threads). Requires
/// replications >= 1.
[[nodiscard]] ReplicatedScenarioResult run_scenario_replicated(
    const ScenarioSpec& spec, std::size_t replications, int jobs = 1);

/// Cancellable variant: `keep_going` is polled before each replication
/// starts (the cooperative-cancellation checkpoint voprofd uses for
/// request deadlines). Once it returns false the remaining
/// replications are skipped; the result then aggregates only the runs
/// that completed, with `replications` reporting that smaller count.
/// A replication already running is never interrupted mid-simulation.
[[nodiscard]] ReplicatedScenarioResult run_scenario_replicated(
    const ScenarioSpec& spec, std::size_t replications, int jobs,
    const std::function<bool()>& keep_going);

}  // namespace voprof::scenario
