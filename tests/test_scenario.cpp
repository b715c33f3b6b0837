#include "voprof/scenario/scenario.hpp"

#include <gtest/gtest.h>

#include "voprof/util/assert.hpp"
#include "voprof/util/ini.hpp"

namespace voprof {
namespace {

// ------------------------------------------------------------- INI layer
TEST(Ini, ParsesSectionsAndEntries) {
  const auto doc = util::IniDocument::parse_result(
      "# comment\n"
      "[cluster]\n"
      "seed = 7\n"
      "\n"
      "[vm web]   # trailing comment\n"
      "machine = 0\n"
      "cpu = 55.5\n").take();
  ASSERT_EQ(doc.sections().size(), 2u);
  EXPECT_EQ(doc.sections()[0].kind, "cluster");
  EXPECT_EQ(doc.sections()[1].kind, "vm");
  EXPECT_EQ(doc.sections()[1].name, "web");
  EXPECT_EQ(doc.unique("cluster").get_int("seed", 0), 7);
  EXPECT_DOUBLE_EQ(doc.of_kind("vm")[0]->get_double("cpu", 0), 55.5);
  EXPECT_EQ(doc.of_kind("vm")[0]->get_or("missing", "x"), "x");
}

TEST(Ini, RepeatedKindsKeepOrder) {
  const auto doc = util::IniDocument::parse_result(
      "[vm a]\nmachine=0\n[vm b]\nmachine=1\n").take();
  const auto vms = doc.of_kind("vm");
  ASSERT_EQ(vms.size(), 2u);
  EXPECT_EQ(vms[0]->name, "a");
  EXPECT_EQ(vms[1]->name, "b");
  EXPECT_THROW((void)doc.unique("vm"), util::ContractViolation);
  EXPECT_THROW((void)doc.unique("nope"), util::ContractViolation);
}

TEST(Ini, LastValueWinsForDuplicateKeys) {
  const auto doc =
      util::IniDocument::parse_result("[s]\nk = 1\nk = 2\n").take();
  EXPECT_EQ(doc.unique("s").get_int("k", 0), 2);
}

TEST(Ini, MalformedInputRejected) {
  for (const char* text : {"[broken\nk=1\n", "key = before-section\n",
                           "[s]\nnot-a-pair\n", "[]\n"}) {
    const auto parsed = util::IniDocument::parse_result(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error().code, util::Errc::kParse) << text;
  }
  const auto doc = util::IniDocument::parse_result("[s]\nk = abc\n").take();
  EXPECT_THROW((void)doc.unique("s").get_double("k", 0),
               util::ContractViolation);
}

// --------------------------------------------------------- scenario spec
constexpr const char* kScenario = R"(
[cluster]
seed = 11
machines = 2

[vm web]
machine = 0
cpu = 50
bw = 800
bw_target_machine = 1
bw_target_vm = sink

[vm sink]
machine = 1

[monitor]
machine = 0

[monitor]
machine = 1

[run]
duration = 20
warmup = 2
)";

TEST(ScenarioSpec, ParsesFullDescription) {
  const auto spec = scenario::ScenarioSpec::parse(kScenario);
  EXPECT_EQ(spec.seed, 11u);
  EXPECT_EQ(spec.machines, 2);
  ASSERT_EQ(spec.vms.size(), 2u);
  EXPECT_EQ(spec.vms[0].name, "web");
  EXPECT_DOUBLE_EQ(spec.vms[0].bw_kbps, 800.0);
  EXPECT_EQ(spec.vms[0].bw_target_vm, "sink");
  EXPECT_EQ(spec.monitored_machines.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.duration_s, 20.0);
}

TEST(ScenarioSpec, ValidationCatchesMistakes) {
  EXPECT_THROW((void)scenario::ScenarioSpec::parse("[cluster]\n"),
               util::ContractViolation);  // no VMs
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\nmachines=1\n[vm a]\nmachine = 5\n"),
               util::ContractViolation);  // machine out of range
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\n[vm a]\nbw_target_vm = ghost\n"),
               util::ContractViolation);  // target without machine
  EXPECT_THROW(
      (void)scenario::ScenarioSpec::parse(
          "[cluster]\nmachines=2\n[vm a]\nbw = 5\nbw_target_machine = 1\n"
          "bw_target_vm = ghost\n"),
      util::ContractViolation);  // target VM does not exist
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\nscheduler = quantum\n[vm a]\n"),
               util::ContractViolation);  // bad scheduler
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\n[vm a]\n[vm a]\n"),
               util::ContractViolation);  // duplicate VM
}

TEST(ScenarioRun, ExecutesAndReports) {
  const auto spec = scenario::ScenarioSpec::parse(kScenario);
  const auto result = scenario::run_scenario(spec);
  ASSERT_EQ(result.reports.size(), 2u);
  const mon::MeasurementReport& pm0 = result.reports.at(0);
  EXPECT_EQ(pm0.sample_count(), 20u);
  EXPECT_NEAR(pm0.mean("web").cpu_pct, 50.0 + 2.06, 2.0);  // + bw pump
  EXPECT_NEAR(pm0.mean("web").bw_kbps, 800.0, 20.0);
  // The sink on machine 1 receives the traffic.
  const mon::MeasurementReport& pm1 = result.reports.at(1);
  EXPECT_NEAR(pm1.mean("sink").bw_kbps, 800.0, 25.0);
  // Summary renders every entity.
  const std::string s = result.summary();
  EXPECT_NE(s.find("machine 0"), std::string::npos);
  EXPECT_NE(s.find("web"), std::string::npos);
  EXPECT_NE(s.find("sink"), std::string::npos);
}

TEST(ScenarioRun, MicroSchedulerSelectable) {
  const auto spec = scenario::ScenarioSpec::parse(
      "[cluster]\nscheduler = micro\n[vm a]\ncpu = 40\n[run]\nduration = "
      "10\n");
  const auto result = scenario::run_scenario(spec);
  EXPECT_NEAR(result.reports.at(0).mean("a").cpu_pct, 40.0, 2.0);
}

TEST(ScenarioRun, TraceVmReplaysCsv) {
  const std::string path = ::testing::TempDir() + "/voprof_scn_trace.csv";
  {
    util::CsvDocument csv({"vm_cpu", "vm_io"});
    for (int i = 0; i < 10; ++i) csv.add_row({35.0, 12.0});
    csv.save(path);
  }
  const auto spec = scenario::ScenarioSpec::parse(
      "[cluster]\n[vm replay]\ntrace = " + path +
      "\n[run]\nduration = 15\n");
  const auto result = scenario::run_scenario(spec);
  EXPECT_NEAR(result.reports.at(0).mean("replay").cpu_pct, 35.0, 2.0);
  EXPECT_NEAR(result.reports.at(0).mean("replay").io_blocks_per_s, 12.0,
              1.5);
}

TEST(ScenarioRun, UnreadableTraceIsATraceInputError) {
  const auto spec = scenario::ScenarioSpec::parse(
      "[cluster]\n[vm replay]\ntrace = /nonexistent/voprof.csv\n");
  try {
    (void)scenario::run_scenario(spec);
    FAIL() << "expected TraceInputError";
  } catch (const scenario::TraceInputError& e) {
    EXPECT_EQ(e.error().code, util::Errc::kIo);
    EXPECT_EQ(e.error().context, "[vm replay] trace");
  }
}

TEST(ScenarioSpec, TraceAndLevelsExclusive) {
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\n[vm a]\ncpu = 10\ntrace = x.csv\n"),
               util::ContractViolation);
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\n[vm a]\ntrace = x.csv\ntrace_interval = 0\n"),
               util::ContractViolation);
}

TEST(ReportPercentiles, PeaksAboveMeansForBurstyLoad) {
  // A stepping trace: p95 CPU must sit near the peak, the mean between.
  const std::string path = ::testing::TempDir() + "/voprof_scn_burst.csv";
  {
    util::CsvDocument csv({"vm_cpu"});
    for (int i = 0; i < 8; ++i) csv.add_row({10.0});
    for (int i = 0; i < 2; ++i) csv.add_row({90.0});
    csv.save(path);
  }
  const auto spec = scenario::ScenarioSpec::parse(
      "[cluster]\n[vm bursty]\ntrace = " + path +
      "\n[run]\nduration = 40\n");
  const auto result = scenario::run_scenario(spec);
  const mon::MeasurementReport& r = result.reports.at(0);
  const double mean = r.mean("bursty").cpu_pct;
  const double p95 = r.percentile("bursty", 95.0).cpu_pct;
  const double p50 = r.percentile("bursty", 50.0).cpu_pct;
  EXPECT_NEAR(mean, 26.0, 4.0);  // 0.8*10 + 0.2*90
  EXPECT_GT(p95, 80.0);
  EXPECT_NEAR(p50, 10.0, 2.0);
  EXPECT_THROW((void)r.percentile("ghost", 50.0), util::ContractViolation);
}

}  // namespace
}  // namespace voprof
