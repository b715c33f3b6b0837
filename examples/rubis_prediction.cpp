/// \file rubis_prediction.cpp
/// Domain example 2 — the full Sec. V/VI pipeline on an enterprise-style
/// application: train the overhead model from micro-benchmarks, deploy
/// a two-tier RUBiS-like application (Fig. 6), and predict both host
/// PMs' utilizations from nothing but the guest VMs' own metrics.
///
/// This is what a cloud provider would run: guests report their
/// utilization; the provider estimates the true host cost (guest +
/// Dom0 + hypervisor) for billing and admission control.
///
/// Run: ./rubis_prediction [clients]

#include <cstdlib>
#include <iostream>

#include "voprof/monitor/script.hpp"
#include "voprof/rubis/deployment.hpp"
#include "voprof/util/table.hpp"
#include "voprof/util/units.hpp"
#include "voprof/voprof.hpp"
#include "voprof/xensim/cluster.hpp"
#include "voprof/rubis/deployment.hpp"

int main(int argc, char** argv) {
  using namespace voprof;

  int clients = 500;
  if (argc > 1) clients = std::atoi(argv[1]);

  // ---- 1. Train the Sec. V models from the Table II sweep. -----------
  std::cout << "[1/3] Training overhead models (Table II sweep x {1,2,4} "
               "VMs, LMS regression)...\n";
  model::TrainerConfig tcfg;
  tcfg.duration = util::seconds(60.0);
  const model::Trainer trainer(tcfg);
  const model::TrainedModels models =
      trainer.train(model::RegressionMethod::kLms);

  const util::Matrix a = models.multi.base().coefficient_matrix();
  std::cout << "      fitted single-VM coefficient matrix a (rows: PM "
               "CPU/MEM/IO/BW; cols: [1, Mc, Mm, Mi, Mn]):\n";
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::cout << "        [";
    for (std::size_t c = 0; c < a.cols(); ++c) {
      std::cout << util::fmt(a(r, c), 4) << (c + 1 < a.cols() ? ", " : "");
    }
    std::cout << "]\n";
  }

  // ---- 2. Deploy RUBiS and measure. -----------------------------------
  std::cout << "[2/3] Deploying RUBiS (web on PM1, DB on PM2, " << clients
            << " clients) and measuring for 2 simulated minutes...\n";
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 4242);
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  rubis::DeployOptions opt;
  opt.clients = clients;
  const rubis::RubisInstance inst = rubis::deploy_rubis(cluster, 0, 1, 2, opt);

  engine.run_for(util::seconds(10.0));  // warm the closed loop
  mon::MonitorScript mon1(engine, cluster.machine(0));
  mon::MonitorScript mon2(engine, cluster.machine(1));
  mon1.start();
  mon2.start();
  const double completed_mark = inst.client->completed();
  engine.run_for(util::seconds(120.0));
  mon1.stop();
  mon2.stop();
  std::cout << "      throughput: "
            << util::fmt((inst.client->completed() - completed_mark) / 120.0,
                         1)
            << " req/s\n";

  // ---- 3. Predict and compare. ----------------------------------------
  std::cout << "[3/3] Predicting PM utilizations from VM metrics only...\n\n";
  const model::Predictor predictor(models.multi);
  const struct {
    const char* name;
    const mon::MeasurementReport& report;
    std::string vm;
  } pms[] = {{"PM1 (web tier)", mon1.report(), inst.web_vm},
             {"PM2 (database tier)", mon2.report(), inst.db_vm}};

  for (const auto& p : pms) {
    const model::PredictionEval eval = predictor.evaluate(p.report, {p.vm});
    util::AsciiTable t(std::string(p.name) + ": measured vs predicted");
    t.set_header({"metric", "measured(mean)", "predicted(mean)",
                  "p90 err(%)", "p50 err(%)"});
    const char* metric_names[] = {"CPU (%)", "MEM (MiB)", "I/O (blk/s)",
                                  "BW (Kb/s)"};
    for (std::size_t m = 0; m < model::kMetricCount; ++m) {
      const model::MetricEval& me =
          eval.of(static_cast<model::MetricIndex>(m));
      t.add_row({metric_names[m], util::fmt(me.measured.mean(), 2),
                 util::fmt(me.predicted.mean(), 2),
                 me.errors_pct.empty()
                     ? "-"
                     : util::fmt(me.error_at_fraction(0.9), 2),
                 me.errors_pct.empty()
                     ? "-"
                     : util::fmt(me.error_at_fraction(0.5), 2)});
    }
    std::cout << t.str() << '\n';
  }

  std::cout << "The PM CPU rows include Dom0 + hypervisor overhead the "
               "guests never see - the gap a VOU-style manager "
               "mis-budgets.\n";
  return 0;
}
