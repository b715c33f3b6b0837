// Pins what the pipeline computes. Each case hashes a short-configuration
// output (64-bit FNV-1a of its exact bytes) at --jobs 1 and 4, and both
// must equal the value checked in to golden_hashes.txt. A changed hash is
// an output change: update the file only on purpose, and say why in
// CHANGES.md. A name missing from the file fails with the computed value,
// ready to pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/placement/evaluation.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/util/numeric.hpp"

namespace voprof {
namespace {

constexpr int kJobs[] = {1, 4};

std::string fnv1a64_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// golden_hashes.txt: one "name hash" pair per line; '#' starts a comment.
const std::map<std::string, std::string>& pinned() {
  static const std::map<std::string, std::string> hashes = [] {
    std::map<std::string, std::string> out;
    std::ifstream f(VOPROF_GOLDEN_HASHES);
    std::string name, hash;
    while (f >> name) {
      if (name.front() == '#') {
        std::getline(f, name);
        continue;
      }
      if (f >> hash) out[name] = hash;
    }
    return out;
  }();
  return hashes;
}

void expect_pinned(const std::string& name, int jobs, std::string_view bytes) {
  const std::string got = fnv1a64_hex(bytes);
  const auto it = pinned().find(name);
  if (it == pinned().end()) {
    ADD_FAILURE() << "no pinned hash; to pin, add the line: " << name << ' '
                  << got;
    return;
  }
  EXPECT_EQ(got, it->second) << name << " at --jobs " << jobs;
}

TEST(Golden, TrainedModels) {
  for (const int jobs : kJobs) {
    model::TrainerConfig config;
    config.duration = util::seconds(5.0);
    config.jobs = jobs;
    const model::TrainingSet data = model::Trainer(config).collect();
    expect_pinned("models.lms", jobs,
                  model::models_to_string(model::Trainer::fit_models(
                      data, model::RegressionMethod::kLms)));
    expect_pinned("models.ols", jobs,
                  model::models_to_string(model::Trainer::fit_models(
                      data, model::RegressionMethod::kOls)));
  }
}

// One Fig. 10 cell per algorithm under the heaviest scenario, the two
// cells fanned over the runner's pool.
TEST(Golden, PlacementCells) {
  model::TrainerConfig trainer;
  trainer.duration = util::seconds(5.0);
  const model::TrainedModels models =
      model::Trainer(trainer).train(model::RegressionMethod::kOls);
  place::EvalConfig config;
  config.repetitions = 2;
  config.warmup = util::seconds(2.0);
  config.run_duration = util::seconds(5.0);
  const place::PlacementEvaluation eval(config, &models.multi);
  for (const int jobs : kJobs) {
    runner::RunOptions opts;
    opts.jobs = jobs;
    runner::SweepRunner sweep(opts);
    const std::vector<place::CellStats> cells = sweep.map(
        2, [&eval](std::size_t i) { return eval.run_cell(3, i == 0); });
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::string text;
      for (const place::RunResult& r : cells[i].runs) {
        for (const double v :
             {r.throughput_req_s, r.total_time_s, r.mean_latency_s,
              static_cast<double>(r.vms_per_pm[0]),
              static_cast<double>(r.vms_per_pm[1]),
              r.forced_placement ? 1.0 : 0.0}) {
          text += util::format_double(v) + ',';
        }
        text += '\n';
      }
      expect_pinned(i == 0 ? "placement.voa" : "placement.vou", jobs, text);
    }
  }
}

// Every bundled scenario under both schedulers, cut to 10 s and two
// replications; trace paths are repository-relative.
TEST(Golden, ScenarioSimulateJson) {
  std::vector<std::filesystem::path> confs;
  for (const auto& entry :
       std::filesystem::directory_iterator(VOPROF_REPO_ROOT "/scenarios")) {
    if (entry.path().extension() == ".conf") confs.push_back(entry.path());
  }
  std::sort(confs.begin(), confs.end());
  ASSERT_FALSE(confs.empty());
  const std::pair<const char*, sim::SchedulerMode> modes[] = {
      {"micro", sim::SchedulerMode::kMicro},
      {"macro", sim::SchedulerMode::kMacro}};
  for (const auto& conf : confs) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::load_result(conf.string()).take();
    spec.duration_s = 10.0;
    spec.warmup_s = std::min(spec.warmup_s, 2.0);
    for (auto& vm : spec.vms) {
      if (!vm.trace_path.empty()) {
        vm.trace_path = std::string(VOPROF_REPO_ROOT) + "/" + vm.trace_path;
      }
    }
    for (const auto& [mode_name, mode] : modes) {
      spec.scheduler = mode;
      const std::string name = "simulate." + conf.stem().string() + "." +
                               mode_name;
      for (const int jobs : kJobs) {
        expect_pinned(name, jobs,
                      serve::simulate_result_json(
                          scenario::run_scenario_replicated(spec, 2, jobs))
                          .dump(0));
      }
    }
  }
}

}  // namespace
}  // namespace voprof
