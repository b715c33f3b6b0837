#pragma once
/// \file evaluation.hpp
/// The Fig. 10 experiment: 5 identical VMs (RUBiS web + RUBiS db +
/// three filler VMs), scenarios 0-3 where 0..3 of the fillers run
/// lookbusy at 50 % CPU, placed by CloudScale-with-VOA vs
/// CloudScale-with-VOU onto two host PMs, 10 repetitions with random
/// placement order; reports RUBiS throughput (req/s) and the total
/// time to process the request volume.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "voprof/core/overhead_model.hpp"
#include "voprof/core/utilvec.hpp"
#include "voprof/placement/demand_predictor.hpp"
#include "voprof/placement/placer.hpp"
#include "voprof/rubis/app.hpp"
#include "voprof/xensim/cost_model.hpp"
#include "voprof/xensim/spec.hpp"

namespace voprof::place {

/// Roles of the five VMs in the Sec. VI-B scenario.
enum class VmRole { kRubisWeb, kRubisDb, kBusy, kIdle };

[[nodiscard]] std::string role_name(VmRole role);

struct EvalConfig {
  int repetitions = 10;            ///< paper: 10 placement repetitions
  int clients = 500;               ///< paper: 500 simultaneous clients
  double busy_cpu_pct = 50.0;      ///< paper: lookbusy at 50 %
  util::SimMicros warmup = util::seconds(10.0);
  util::SimMicros run_duration = util::seconds(60.0);
  /// Request volume for the total-time metric (Fig. 10(b)).
  double total_requests = 30000.0;
  std::uint64_t seed = 99;
  sim::MachineSpec machine;
  sim::VmSpec vm;  ///< 1 VCPU / 256 MiB, the paper's identical VMs
  sim::CostModel costs;
  rubis::RubisCosts rubis_costs;
  PlacerConfig voa;  ///< overhead_aware forced true
  PlacerConfig vou;  ///< overhead_aware forced false
  DemandPredictorConfig predictor;
};

/// Result of one placement + run.
struct RunResult {
  double throughput_req_s = 0.0;
  double total_time_s = 0.0;
  /// Little's-law estimate of the mean request response time at the
  /// end of the run: requests in flight / throughput.
  double mean_latency_s = 0.0;
  /// How many of the 5 VMs landed on each host PM.
  std::array<int, 2> vms_per_pm{0, 0};
  bool forced_placement = false;  ///< some VM fit nowhere (fallback used)
};

/// Aggregates over the repetitions of one (scenario, algorithm) cell.
struct CellStats {
  double mean_throughput = 0.0;
  double p10_throughput = 0.0;
  double p90_throughput = 0.0;
  double mean_total_time = 0.0;
  double mean_latency_s = 0.0;
  std::vector<RunResult> runs;
};

class PlacementEvaluation {
 public:
  /// `overhead_model` must outlive the evaluation (used by VOA).
  PlacementEvaluation(EvalConfig config,
                      const model::MultiVmModel* overhead_model);

  /// Profile the per-role demand vectors by running each role on an
  /// otherwise-idle testbed and feeding the measured series through
  /// the CloudScale predictor (done lazily once, cached). Safe to call
  /// concurrently: the first caller profiles, the others wait for it.
  [[nodiscard]] const std::map<VmRole, model::UtilVec>& role_demands() const;

  /// One placement + RUBiS run.
  [[nodiscard]] RunResult run_once(int scenario, bool overhead_aware,
                                   std::uint64_t rep_seed) const;

  /// All repetitions of one (scenario, algorithm) cell.
  [[nodiscard]] CellStats run_cell(int scenario, bool overhead_aware) const;

  [[nodiscard]] const EvalConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] std::map<VmRole, model::UtilVec> profile_roles() const;

  EvalConfig config_;
  const model::MultiVmModel* model_;
  mutable std::map<VmRole, model::UtilVec> role_demands_;
  mutable std::once_flag profiled_;
};

}  // namespace voprof::place
