/// \file offline_pipeline.cpp
/// offline_pipeline: the paper's offline path in this process at
/// jobs = nproc, round after round until the run's time is up: the
/// Sec. VI-A training sweep with LMS and OLS fits, replicated runs of
/// every bundled scenario under both schedulers, and the Fig. 10 VOA/VOU
/// placement cells with RUBiS. Nothing is served.

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "daemon.hpp"
#include "probes.hpp"
#include "protocol.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/placement/evaluation.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/units.hpp"

namespace perfbench {

namespace {

namespace model = voprof::model;
namespace place = voprof::place;
namespace wl = voprof::wl;
using voprof::util::seed_for;

// --- Workload definition ----------------------------------------------
constexpr double kCellS = 30.0;           // training-sweep cell length
constexpr std::size_t kScenarioReps = 2;  // replications per scenario run
constexpr int kPlacementReps = 2;         // repetitions per Fig. 10 cell
// setup_s probes before the first round and after every round, so that
// their median samples the whole run.
constexpr int kSetupProbes = 5;
constexpr int kSetupProbesPerRound = 2;
// Untraced/traced round pairs behind obs.trace_overhead_pct.
constexpr int kOverheadPairs = 3;
// Sec. VI-A: the PM-CPU fit must explain most of the variance.
constexpr double kR2Floor = 0.8;
// Fig. 10 shape: VOA's mean RUBiS throughput over the four scenarios is
// at least VOU's, to within this slack (req/s).
constexpr double kShapeSlackReqS = 2.0;
constexpr const char* kTraceFile = "vopbench-trace.json";

/// FNV-1a over everything a round simulated and fitted.
class Digest {
 public:
  void add(std::string_view bytes) noexcept {
    for (const unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(double value) noexcept {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    add(std::string_view(bytes, sizeof bytes));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

struct Inputs {
  model::TrainerConfig trainer;
  place::EvalConfig eval;
  std::vector<voprof::scenario::ScenarioSpec> scenarios;
};

/// Everything a round needs, built from the seed and the bundled
/// scenarios: the set-up before the first cell.
Inputs prepare_inputs(const BenchOptions& opt) {
  Inputs in;
  in.trainer.duration = voprof::util::seconds(kCellS);
  in.trainer.seed = seed_for(opt.seed, 30);
  in.trainer.jobs = opt.nproc;
  in.eval.repetitions = kPlacementReps;
  in.eval.seed = 1 + seed_for(opt.seed, 31) % 100'000;
  std::uint64_t k = 0;
  for (const char* scheduler : {"micro", "macro"}) {
    for (const auto& scenario : bundled_scenarios(opt.root)) {
      auto parsed = voprof::scenario::ScenarioSpec::parse_result(
          prepare_scenario(scenario.second, scheduler, opt.root));
      if (!parsed.ok()) {
        throw std::runtime_error(scenario.first + ": " +
                                 parsed.error().to_string());
      }
      voprof::scenario::ScenarioSpec spec = std::move(parsed).take();
      spec.seed = seed_for(opt.seed, 40 + k++);
      in.scenarios.push_back(std::move(spec));
    }
  }
  return in;
}

/// One unit of pipeline work, timed from the start of its stage.
struct Op {
  std::int64_t due = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  double sim_s = 0.0;  ///< simulated seconds; 0 for fits and profiling
};

template <typename T>
struct Timed {
  T value;
  Op op;
};

/// fn() as one op of a stage that started at `due`.
template <typename Fn>
auto timed(std::int64_t due, double sim_s, Fn&& fn) {
  Op op{due, now_ns(), 0, sim_s};
  auto value = fn();
  op.end = now_ns();
  return Timed<decltype(value)>{std::move(value), op};
}

struct Round {
  std::vector<Op> ops;
  double wall_s = 0.0;
  double simulating_s = 0.0;  ///< wall of the stages that simulate
  double collect_s = 0.0;
  double fit_lms_s = 0.0;
  double fit_ols_s = 0.0;
  double r2_lms = 0.0;
  double r2_ols = 0.0;
  double voa_req_s = 0.0;
  double vou_req_s = 0.0;
  double rubis_requests = 0.0;
  std::vector<double> replication_ms;
  std::vector<double> run_cell_s;
  std::uint64_t digest = 0;
};

Round run_round(const Inputs& in, voprof::runner::SweepRunner& runner) {
  Round r;
  Digest digest;
  const std::int64_t t0 = now_ns();

  // 1. The Sec. VI-A sweep: Trainer::collect at jobs = nproc, one op.
  const model::Trainer trainer(in.trainer);
  const double sweep_sim_s =
      static_cast<double>(in.trainer.vm_counts.size() *
                          in.trainer.kinds.size() * wl::kLevelCount) *
      kCellS;
  const auto data = timed(now_ns(), sweep_sim_s, [&] {
    const LayerSpan span("core", "Trainer.collect");
    return trainer.collect();
  });
  r.ops.push_back(data.op);
  r.collect_s = ns_to_s(data.op.end - data.op.start);
  r.simulating_s += r.collect_s;
  for (const model::TrainingRow& row : data.value.rows()) {
    for (const double v : {row.vm_sum.cpu, row.vm_sum.mem, row.vm_sum.io,
                           row.vm_sum.bw, row.pm.cpu, row.pm.mem, row.pm.io,
                           row.pm.bw, row.dom0_cpu, row.hyp_cpu}) {
      digest.add(v);
    }
  }

  // LMS and OLS fits of the same data, side by side.
  const std::int64_t fit_due = now_ns();
  auto fits = runner.map(2, [&](std::size_t m) {
    const bool lms = m == 0;
    return timed(fit_due, 0.0, [&] {
      const LayerSpan span("core", lms ? "Trainer.fit_models.lms"
                                       : "Trainer.fit_models.ols");
      return model::Trainer::fit_models(
          data.value,
          lms ? model::RegressionMethod::kLms : model::RegressionMethod::kOls,
          in.trainer.seed);
    });
  });
  const model::TrainedModels& lms = fits[0].value;
  const model::TrainedModels& ols = fits[1].value;
  for (const auto& fit : fits) r.ops.push_back(fit.op);
  r.fit_lms_s = ns_to_s(fits[0].op.end - fits[0].op.start);
  r.fit_ols_s = ns_to_s(fits[1].op.end - fits[1].op.start);
  r.r2_lms = lms.multi.base().fit_for(model::MetricIndex::kCpu).r_squared;
  r.r2_ols = ols.multi.base().fit_for(model::MetricIndex::kCpu).r_squared;
  digest.add(model::models_to_string(lms));
  digest.add(model::models_to_string(ols));

  // 2. Every bundled scenario under both schedulers, replicated.
  const std::int64_t sim_due = now_ns();
  auto sims = runner.map(in.scenarios.size(), [&](std::size_t i) {
    const voprof::scenario::ScenarioSpec& spec = in.scenarios[i];
    return timed(sim_due,
                 (spec.warmup_s + spec.duration_s) *
                     static_cast<double>(kScenarioReps),
                 [&] {
                   const LayerSpan span("scenario", "run_scenario_replicated");
                   return voprof::serve::simulate_result_json(
                              voprof::scenario::run_scenario_replicated(
                                  spec, kScenarioReps, 1))
                       .dump(0);
                 });
  });
  r.simulating_s += ns_to_s(now_ns() - sim_due);
  for (const auto& sim : sims) {
    digest.add(sim.value);
    r.ops.push_back(sim.op);
    r.replication_ms.push_back(ns_to_ms(sim.op.end - sim.op.start) /
                               static_cast<double>(kScenarioReps));
  }

  // 3. Fig. 10: profile the VM roles (simulated too, for a length the
  //    library does not report), then the 4 scenarios x {VOA, VOU} cells
  //    of PlacementEvaluation::run_cell.
  const place::PlacementEvaluation eval(in.eval, &lms.multi);
  const auto roles = timed(now_ns(), 0.0, [&] {
    const LayerSpan span("placement", "PlacementEvaluation.role_demands");
    return eval.role_demands();
  });
  r.ops.push_back(roles.op);
  r.simulating_s += ns_to_s(roles.op.end - roles.op.start);
  for (const auto& entry : roles.value) {
    digest.add(entry.second.cpu);
    digest.add(entry.second.mem);
    digest.add(entry.second.io);
    digest.add(entry.second.bw);
  }
  const double run_s = voprof::util::to_seconds(in.eval.run_duration);
  const double cell_sim_s =
      static_cast<double>(in.eval.repetitions) *
      voprof::util::to_seconds(in.eval.warmup + in.eval.run_duration);
  const std::int64_t cell_due = now_ns();
  auto cells = runner.map(8, [&](std::size_t c) {
    return timed(cell_due, cell_sim_s, [&] {
      const LayerSpan span("placement", "PlacementEvaluation.run_cell");
      return eval.run_cell(static_cast<int>(c / 2), c % 2 == 0);
    });
  });
  r.simulating_s += ns_to_s(now_ns() - cell_due);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const place::CellStats& cell = cells[c].value;
    (c % 2 == 0 ? r.voa_req_s : r.vou_req_s) += cell.mean_throughput / 4.0;
    for (const place::RunResult& run : cell.runs) {
      r.rubis_requests += run.throughput_req_s * run_s;
      digest.add(run.throughput_req_s);
      digest.add(run.total_time_s);
      digest.add(run.mean_latency_s);
      digest.add(static_cast<double>(run.vms_per_pm[0]));
      digest.add(static_cast<double>(run.vms_per_pm[1]));
    }
    r.ops.push_back(cells[c].op);
    r.run_cell_s.push_back(ns_to_s(cells[c].op.end - cells[c].op.start));
  }
  r.wall_s = ns_to_s(now_ns() - t0);
  r.digest = digest.value();
  return r;
}

/// Appends `count` setup_s samples: fresh processes of this binary in
/// set-up probe mode, each timed from fork until it reports being ready
/// for the first cell.
void setup_probes(const BenchOptions& opt, int count,
                  std::vector<double>& samples) {
  for (int i = 0; i < count; ++i) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    std::vector<std::string> args = {
        opt.self,    "--workload", "offline_pipeline", "--seed",
        std::to_string(opt.seed), "--seconds", "1", "--trace", "0",
        "--root",    opt.root,     "--setup-probe",    "1"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const std::int64_t t0 = now_ns();
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    std::string text;
    char buf[256];
    for (;;) {
      const ssize_t n = ::read(fds[0], buf, sizeof buf);
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    ::close(fds[0]);
    int status = 0;
    if (pid > 0) {
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    std::istringstream fields(text);
    std::string word;
    std::int64_t ready = 0;
    if (pid < 0 || !(fields >> word >> ready) || word != "ready" ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up probe failed: " + text);
    }
    samples.push_back(ns_to_s(ready - t0));
  }
}

}  // namespace

int offline_setup_probe(const BenchOptions& opt) {
  const Inputs in = prepare_inputs(opt);
  voprof::runner::RunOptions run_options;
  run_options.jobs = opt.nproc;
  const voprof::runner::SweepRunner runner(run_options);
  std::cout << "ready " << now_ns() << std::endl;
  return in.scenarios.empty() || runner.jobs() == 0 ? 1 : 0;
}

RunResult run_offline_pipeline(const BenchOptions& opt) {
  RunResult res;
  Report& rep = res.report;
  std::vector<double> setup;
  setup_probes(opt, kSetupProbes, setup);
  const Inputs in = prepare_inputs(opt);
  voprof::runner::RunOptions run_options;
  run_options.jobs = opt.nproc;
  voprof::runner::SweepRunner runner(run_options);
  auto& collector = voprof::obs::TraceCollector::global();

  const std::int64_t cpu0 = process_cpu_ns();
  std::vector<Round> rounds;
  std::vector<double> overhead_pct;
  voprof::obs::Registry::Snapshot before_traced;
  if (opt.trace) {
    // A warm-up round, then untraced and traced rounds in turn; the
    // per-layer figures describe the last traced round alone.
    rounds.push_back(run_round(in, runner));
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      const bool last = pair + 1 == kOverheadPairs;
      rounds.push_back(run_round(in, runner));
      if (last) before_traced = voprof::obs::Registry::global().snapshot();
      collector.enable(kTraceFile);
      rounds.push_back(run_round(in, runner));
      if (!last) collector.disable();
      overhead_pct.push_back(
          100.0 * (rounds.back().wall_s / rounds[rounds.size() - 2].wall_s -
                   1.0));
    }
  } else {
    // Whole rounds while the next one is expected to end in time.
    const std::int64_t deadline =
        now_ns() +
        static_cast<std::int64_t>(opt.seconds * static_cast<double>(kNsPerS));
    do {
      rounds.push_back(run_round(in, runner));
      setup_probes(opt, kSetupProbesPerRound, setup);
    } while (now_ns() + static_cast<std::int64_t>(
                            rounds.back().wall_s *
                            static_cast<double>(kNsPerS)) <=
             deadline);
  }
  const std::int64_t cpu1 = process_cpu_ns();

  std::vector<double> latency_ms;
  std::vector<double> round_s;
  std::vector<double> collect_ms;
  double sim_s = 0.0;
  double simulating_s = 0.0;
  double r2_min = 1.0;
  std::size_t failed = 0;
  for (const Round& r : rounds) {
    const bool ok = r.digest == rounds.front().digest &&
                    r.r2_lms >= kR2Floor && r.r2_ols >= kR2Floor &&
                    r.voa_req_s + kShapeSlackReqS >= r.vou_req_s;
    if (!ok) failed += r.ops.size();
    round_s.push_back(r.wall_s);
    collect_ms.push_back(1e3 * r.collect_s);
    simulating_s += r.simulating_s;
    r2_min = std::min({r2_min, r.r2_lms, r.r2_ols});
    for (const Op& op : r.ops) {
      latency_ms.push_back(ns_to_ms(op.end - op.due));
      sim_s += op.sim_s;
    }
  }
  const double tail_q = highest_supported_percentile(latency_ms.size());
  const Round& first = rounds.front();

  rep.set("setup_s", percentile(setup, 50.0), "s");
  rep.set("p50_ms", percentile(collect_ms, 50.0), "ms");
  rep.set("tail_ms", percentile(latency_ms, tail_q), "ms");
  rep.set("heavy_p50_ms", 1e3 * percentile(round_s, 50.0), "ms");
  rep.set("cpu_ms_per_op",
          ns_to_ms(cpu1 - cpu0) / static_cast<double>(latency_ms.size()),
          "ms");
  rep.set("peak_rss_mb", peak_rss_mib_of("self"), "MiB");
  rep.set("pipeline_s", percentile(round_s, 50.0), "s");
  rep.set("sim_s_per_host_s", simulating_s > 0.0 ? sim_s / simulating_s : 0.0,
          "sim_s/host_s");
  rep.set("rounds", static_cast<double>(rounds.size()), "count");
  rep.set("ops", static_cast<double>(latency_ms.size()), "count");
  rep.set("tail_percentile", tail_q, "pct");
  rep.set("fail_pct",
          100.0 * static_cast<double>(failed) /
              static_cast<double>(latency_ms.size()),
          "%");
  rep.set("pm_cpu_r2_min", r2_min, "ratio");
  rep.set("voa_req_s", first.voa_req_s, "req/s");
  rep.set("vou_req_s", first.vou_req_s, "req/s");
  std::ostringstream digest;
  digest << "digest of all simulated statistics and fits: " << std::hex
         << std::setw(16) << std::setfill('0') << first.digest;
  res.notes.push_back(digest.str());
  if (failed > 0) {
    res.notes.push_back(
        "MISMATCH: a round differed from the first, or missed the PM-CPU "
        "R^2 floor or the VOA >= VOU shape");
  }
  res.attempted = latency_ms.size();
  res.failed = failed;
  res.correct = failed == 0;

  if (opt.trace) {
    // Everything below describes the traced round alone.
    const Round& traced = rounds.back();
    const voprof::util::Json metrics = registry_json(&before_traced);
    if (!collector.write_file()) {
      throw std::runtime_error(std::string("cannot write ") + kTraceFile);
    }
    std::vector<SpanRecord> spans = spans_from_trace(read_file(kTraceFile), 0);
    rep.set("obs.trace_overhead_pct", percentile(overhead_pct, 50.0), "%");
    rep.set("core.collect_s", traced.collect_s, "s");
    rep.set("core.fit_lms_s", traced.fit_lms_s, "s");
    rep.set("core.fit_ols_s", traced.fit_ols_s, "s");
    rep.set("scenario.replication_ms", percentile(traced.replication_ms, 50.0),
            "ms");
    rep.set("placement.run_cell_s", percentile(traced.run_cell_s, 50.0), "s");
    rep.set("rubis.requests_completed", traced.rubis_requests, "count");
    compute_counters(metrics, traced.simulating_s, rep);
    rep.set("util.task_pool_busy_pct",
            100.0 * metrics.at("taskpool.busy_us").as_number() /
                (1e6 * traced.wall_s * static_cast<double>(opt.nproc)),
            "%");
    rep.set("monitor.measure_s",
            span_total(spans, "monitor", "measure").ms / 1e3, "s");
    // This workload does not serve: the serve layer is measured against
    // a probe daemon, after the traced round.
    const std::vector<SpanRecord> daemon = serve_probe(opt, rep);
    spans.insert(spans.end(), daemon.begin(), daemon.end());
    self_time_metrics(spans, rep);
  }
  return res;
}

}  // namespace perfbench
