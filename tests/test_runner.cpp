#include "voprof/runner/runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "voprof/core/trainer.hpp"
#include "voprof/placement/evaluation.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/task_pool.hpp"

namespace voprof::runner {
namespace {

TEST(SeedFor, IsPureAndIndexSensitive) {
  EXPECT_EQ(util::seed_for(42, 0), util::seed_for(42, 0));
  EXPECT_NE(util::seed_for(42, 0), util::seed_for(42, 1));
  EXPECT_NE(util::seed_for(42, 0), util::seed_for(43, 0));
}

TEST(SeedFor, AdjacentIndicesShareNoObviousStructure) {
  // Derived seeds should look unrelated: all distinct, and not simply
  // offset by a constant stride.
  std::set<std::uint64_t> seen;
  std::set<std::uint64_t> deltas;
  std::uint64_t prev = util::seed_for(7, 0);
  seen.insert(prev);
  for (std::uint64_t i = 1; i < 256; ++i) {
    const std::uint64_t s = util::seed_for(7, i);
    seen.insert(s);
    deltas.insert(s - prev);
    prev = s;
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_GT(deltas.size(), 250u);
}

TEST(RunOptions, ParsesJobsFlag) {
  const char* argv[] = {"bench", "--jobs", "3"};
  const RunOptions opts = options_from_cli(3, argv);
  EXPECT_EQ(opts.jobs, 3);
}

TEST(RunOptions, DefaultsToAllHardwareThreads) {
  const char* argv[] = {"bench"};
  const RunOptions opts = options_from_cli(1, argv);
  EXPECT_EQ(opts.jobs, 0);
  EXPECT_EQ(SweepRunner(opts).jobs(), util::TaskPool::default_jobs());
}

TEST(RunOptions, RejectsUnknownFlagsAndBadValues) {
  const char* unknown[] = {"bench", "--job", "3"};
  EXPECT_THROW((void)options_from_cli(3, unknown), util::ContractViolation);
  const char* negative[] = {"bench", "--jobs", "-2"};
  EXPECT_THROW((void)options_from_cli(3, negative), util::ContractViolation);
  const char* positional[] = {"bench", "fast"};
  EXPECT_THROW((void)options_from_cli(2, positional), util::ContractViolation);
}

TEST(ModelCache, TrainsOncePerKey) {
  ModelCache cache;
  const util::SimMicros dur = util::seconds(2.0);
  const model::TrainedModels& a =
      cache.get(model::RegressionMethod::kOls, dur, 42, 2);
  const model::TrainedModels& b =
      cache.get(model::RegressionMethod::kOls, dur, 42, 1);
  EXPECT_EQ(&a, &b);  // same immutable entry, jobs does not re-key
  EXPECT_EQ(cache.trainings(), 1u);
  (void)cache.get(model::RegressionMethod::kOls, dur, 43, 2);
  EXPECT_EQ(cache.trainings(), 2u);
}

TEST(ModelCache, TrainingIsJobsInvariant) {
  ModelCache serial_cache;
  ModelCache parallel_cache;
  const util::SimMicros dur = util::seconds(2.0);
  const model::TrainedModels& serial =
      serial_cache.get(model::RegressionMethod::kOls, dur, 42, 1);
  const model::TrainedModels& parallel =
      parallel_cache.get(model::RegressionMethod::kOls, dur, 42, 4);
  ASSERT_EQ(serial.data.size(), parallel.data.size());
  const auto& sr = serial.data.rows();
  const auto& pr = parallel.data.rows();
  for (std::size_t i = 0; i < sr.size(); ++i) {
    EXPECT_EQ(sr[i].pm.cpu, pr[i].pm.cpu);
    EXPECT_EQ(sr[i].dom0_cpu, pr[i].dom0_cpu);
    EXPECT_EQ(sr[i].hyp_cpu, pr[i].hyp_cpu);
  }
}

TEST(ReplicatedScenario, JobsInvariantAndMergedInOrder) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
      "[cluster]\nseed = 5\nmachines = 1\n"
      "[vm web]\ncpu = 40\n"
      "[run]\nduration = 3\n");
  const auto serial = scenario::run_scenario_replicated(spec, 4, 1);
  const auto parallel = scenario::run_scenario_replicated(spec, 4, 4);
  ASSERT_EQ(serial.stats.size(), parallel.stats.size());
  for (const auto& [machine, entities] : serial.stats) {
    const auto& other = parallel.stats.at(machine);
    ASSERT_EQ(entities.size(), other.size());
    for (const auto& [key, s] : entities) {
      const auto& o = other.at(key);
      EXPECT_EQ(s.cpu.count(), o.cpu.count());
      EXPECT_EQ(s.cpu.mean(), o.cpu.mean());
      EXPECT_EQ(s.cpu.variance(), o.cpu.variance());
      EXPECT_EQ(s.bw.mean(), o.bw.mean());
    }
  }
  EXPECT_EQ(serial.replications, 4u);
  EXPECT_FALSE(serial.summary().empty());
}

TEST(ReplicatedScenario, ReplicationsDifferFromEachOther) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
      "[cluster]\nseed = 5\nmachines = 1\n"
      "[vm web]\ncpu = 40\nio = 20\n"
      "[run]\nduration = 5\n");
  // With per-replication seeds the aggregate spread over replications
  // must exceed a single run's spread of zero-mean difference: just
  // assert the two single-replication aggregates differ.
  scenario::ScenarioSpec a = spec;
  a.seed = util::seed_for(spec.seed, 0);
  scenario::ScenarioSpec b = spec;
  b.seed = util::seed_for(spec.seed, 1);
  const auto ra = scenario::run_scenario(a);
  const auto rb = scenario::run_scenario(b);
  const auto& sa = ra.reports.at(0).series("web");
  const auto& sb = rb.reports.at(0).series("web");
  EXPECT_NE(sa.io.stats().mean(), sb.io.stats().mean());
}

// The role demands are profiled lazily on first use. Four cells that
// start together on a fresh evaluation must profile once and all see
// what a serial evaluation computes.
TEST(PlacementEvaluation, ConcurrentFirstCallsSeeSerialDemands) {
  model::TrainerConfig trainer;
  trainer.duration = util::seconds(5.0);
  const model::TrainedModels models =
      model::Trainer(trainer).train(model::RegressionMethod::kOls);
  place::EvalConfig config;
  config.repetitions = 1;
  config.warmup = util::seconds(1.0);
  config.run_duration = util::seconds(2.0);

  const place::PlacementEvaluation serial(config, &models.multi);
  const auto& expected = serial.role_demands();

  const place::PlacementEvaluation fresh(config, &models.multi);
  util::TaskPool pool(4);
  const auto seen = pool.parallel_map(4, [&fresh](std::size_t i) {
    (void)fresh.run_cell(static_cast<int>(i), i % 2 == 0);
    return fresh.role_demands();
  });
  for (const auto& demands : seen) {
    ASSERT_EQ(demands.size(), expected.size());
    for (const auto& [role, d] : expected) {
      EXPECT_EQ(demands.at(role).cpu, d.cpu);
      EXPECT_EQ(demands.at(role).mem, d.mem);
      EXPECT_EQ(demands.at(role).io, d.io);
      EXPECT_EQ(demands.at(role).bw, d.bw);
    }
  }
}

}  // namespace
}  // namespace voprof::runner
