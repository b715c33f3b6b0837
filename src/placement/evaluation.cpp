#include "voprof/placement/evaluation.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "voprof/monitor/script.hpp"
#include "voprof/rubis/deployment.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/stats.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/xensim/cluster.hpp"
#include "voprof/xensim/engine.hpp"

namespace voprof::place {

std::string role_name(VmRole role) {
  switch (role) {
    case VmRole::kRubisWeb:
      return "rubis-web";
    case VmRole::kRubisDb:
      return "rubis-db";
    case VmRole::kBusy:
      return "busy";
    case VmRole::kIdle:
      return "idle";
  }
  throw util::ContractViolation("unknown VM role");
}

PlacementEvaluation::PlacementEvaluation(
    EvalConfig config, const model::MultiVmModel* overhead_model)
    : config_(std::move(config)), model_(overhead_model) {
  VOPROF_REQUIRE(config_.repetitions >= 1);
  VOPROF_REQUIRE(model_ != nullptr && model_->trained());
  config_.voa.overhead_aware = true;
  config_.vou.overhead_aware = false;
}

std::map<VmRole, model::UtilVec> PlacementEvaluation::profile_roles() const {
  std::map<VmRole, model::UtilVec> out;
  const DemandPredictor predictor(config_.predictor);

  // --- RUBiS web + db: run the Fig. 6 topology unconstrained. ---------
  {
    sim::Engine engine;
    sim::Cluster cluster(engine, config_.costs, config_.seed + 1);
    cluster.add_machine(config_.machine);  // PM1: web
    cluster.add_machine(config_.machine);  // PM2: db
    cluster.add_machine(config_.machine);  // client machine
    rubis::DeployOptions opt;
    opt.clients = config_.clients;
    opt.costs = config_.rubis_costs;
    opt.vm_spec = config_.vm;
    opt.seed = config_.seed + 2;
    const rubis::RubisInstance inst =
        rubis::deploy_rubis(cluster, 0, 1, 2, opt);

    mon::MonitorScript web_mon(engine, cluster.machine(0));
    mon::MonitorScript db_mon(engine, cluster.machine(1));
    web_mon.start();
    db_mon.start();
    engine.run_for(config_.warmup + util::seconds(40.0));
    web_mon.stop();
    db_mon.stop();
    out[VmRole::kRubisWeb] =
        predictor.predict_series(web_mon.report().series(inst.web_vm));
    out[VmRole::kRubisDb] =
        predictor.predict_series(db_mon.report().series(inst.db_vm));
  }

  // --- Busy and idle fillers. -----------------------------------------
  {
    sim::Engine engine;
    sim::Cluster cluster(engine, config_.costs, config_.seed + 3);
    sim::PhysicalMachine& pm = cluster.add_machine(config_.machine);
    sim::VmSpec busy_spec = config_.vm;
    busy_spec.name = "busy-profile";
    sim::DomU& busy = pm.add_vm(busy_spec);
    busy.attach(std::make_unique<wl::CpuHog>(config_.busy_cpu_pct,
                                             config_.seed + 4));
    sim::VmSpec idle_spec = config_.vm;
    idle_spec.name = "idle-profile";
    pm.add_vm(idle_spec);

    mon::MonitorScript mon(engine, pm);
    const mon::MeasurementReport& report = mon.measure(util::seconds(30.0));
    out[VmRole::kBusy] = predictor.predict_series(report.series("busy-profile"));
    out[VmRole::kIdle] = predictor.predict_series(report.series("idle-profile"));
  }
  return out;
}

const std::map<VmRole, model::UtilVec>& PlacementEvaluation::role_demands()
    const {
  std::call_once(profiled_, [this] { role_demands_ = profile_roles(); });
  return role_demands_;
}

RunResult PlacementEvaluation::run_once(int scenario, bool overhead_aware,
                                        std::uint64_t rep_seed) const {
  VOPROF_REQUIRE(scenario >= 0 && scenario <= 3);
  const auto& demands = role_demands();

  // The 5 identical VMs of Sec. VI-B: RUBiS pair + 3 fillers, of which
  // `scenario` run lookbusy at 50 %.
  std::vector<VmRole> roles = {VmRole::kRubisWeb, VmRole::kRubisDb};
  for (int i = 0; i < 3; ++i) {
    roles.push_back(i < scenario ? VmRole::kBusy : VmRole::kIdle);
  }

  // Random placement order, as in the paper ("deployed the 5 VMs to
  // PMs in a random order ... repeated this VM placement for 10
  // times").
  util::Rng rng(rep_seed);
  for (std::size_t i = roles.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(i));
    std::swap(roles[i - 1], roles[j]);
  }

  // CloudScale predicts each VM's demand; the placer admits VMs one by
  // one onto the two host PMs.
  const Placer placer(overhead_aware ? config_.voa : config_.vou,
                      overhead_aware ? model_ : nullptr);
  std::vector<PmState> pms(2);
  pms[0].spec = config_.machine;
  pms[1].spec = config_.machine;

  RunResult result;
  std::vector<std::pair<VmRole, std::size_t>> assignment;
  for (VmRole role : roles) {
    bool forced = false;
    const std::size_t pm = placer.place(pms, demands.at(role),
                                        config_.vm.mem_mib, &forced);
    result.forced_placement = result.forced_placement || forced;
    assignment.emplace_back(role, pm);
  }

  // Materialize the placement on a fresh cluster (2 hosts + client
  // machine) and run RUBiS.
  sim::Engine engine;
  sim::Cluster cluster(engine, config_.costs, rep_seed ^ 0x5eedULL);
  cluster.add_machine(config_.machine);
  cluster.add_machine(config_.machine);
  cluster.add_machine(config_.machine);  // client machine

  std::string web_vm, db_vm;
  std::size_t web_pm = 0, db_pm = 0;
  int busy_idx = 0, idle_idx = 0;
  for (const auto& [role, pm] : assignment) {
    sim::VmSpec spec = config_.vm;
    switch (role) {
      case VmRole::kRubisWeb:
        spec.name = "web";
        web_vm = spec.name;
        web_pm = pm;
        cluster.machine(pm).add_vm(spec);
        break;
      case VmRole::kRubisDb:
        spec.name = "db";
        db_vm = spec.name;
        db_pm = pm;
        cluster.machine(pm).add_vm(spec);
        break;
      case VmRole::kBusy: {
        spec.name = "busy" + std::to_string(++busy_idx);
        sim::DomU& vm = cluster.machine(pm).add_vm(spec);
        vm.attach(std::make_unique<wl::CpuHog>(config_.busy_cpu_pct,
                                               rep_seed + 17));
        break;
      }
      case VmRole::kIdle:
        spec.name = "idle" + std::to_string(++idle_idx);
        cluster.machine(pm).add_vm(spec);
        break;
    }
    result.vms_per_pm[pm] += 1;
  }

  rubis::DeployOptions opt;
  opt.clients = config_.clients;
  opt.costs = config_.rubis_costs;
  opt.vm_spec = config_.vm;
  opt.seed = rep_seed + 5;
  const rubis::RubisInstance inst =
      rubis::wire_rubis(cluster, web_pm, db_pm, web_vm, db_vm, 2, opt);

  engine.run_for(config_.warmup);
  const double mark = inst.client->completed();
  engine.run_for(config_.run_duration);
  const double served = inst.client->completed() - mark;
  const double duration_s = util::to_seconds(config_.run_duration);
  result.throughput_req_s = served / duration_s;
  result.total_time_s =
      config_.total_requests / std::max(result.throughput_req_s, 1e-6);
  // Little's law: L = lambda * W  =>  W = in_flight / throughput.
  result.mean_latency_s =
      inst.client->in_flight() / std::max(result.throughput_req_s, 1e-6);
  return result;
}

CellStats PlacementEvaluation::run_cell(int scenario,
                                        bool overhead_aware) const {
  CellStats stats;
  std::vector<double> tputs;
  util::RunningStats time_stats;
  util::RunningStats latency_stats;
  for (int rep = 0; rep < config_.repetitions; ++rep) {
    const std::uint64_t rep_seed =
        config_.seed * 1000 + static_cast<std::uint64_t>(scenario) * 100 +
        (overhead_aware ? 10 : 0) + static_cast<std::uint64_t>(rep);
    RunResult r = run_once(scenario, overhead_aware, rep_seed);
    tputs.push_back(r.throughput_req_s);
    time_stats.add(r.total_time_s);
    latency_stats.add(r.mean_latency_s);
    stats.runs.push_back(std::move(r));
  }
  stats.mean_throughput = util::mean(tputs);
  stats.p10_throughput = util::percentile(tputs, 10.0);
  stats.p90_throughput = util::percentile(tputs, 90.0);
  stats.mean_total_time = time_stats.mean();
  stats.mean_latency_s = latency_stats.mean();
  return stats;
}

}  // namespace voprof::place
