/// \file test_perfbench.cpp
/// Tests of the benchmark's own machinery: the percentile estimator and
/// its ten-samples-beyond rule, the Poisson schedule, the metric-name
/// grammar, the output verifier (it must reject a tampered predict,
/// simulate or train answer), scenario preparation and self time.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "protocol.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/api.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/util/json.hpp"

namespace {

using namespace perfbench;
using voprof::util::Json;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

/// `text` with the first digit at or after `from` changed.
std::string tamper_digit(std::string text, std::size_t from) {
  const std::size_t at = text.find_first_of("0123456789", from);
  if (at == std::string::npos) return text + "x";
  text[at] = text[at] == '9' ? '0' : static_cast<char>(text[at] + 1);
  return text;
}

const voprof::model::TrainedModels& small_models() {
  static const voprof::model::TrainedModels models = [] {
    voprof::model::TrainerConfig config;
    config.vm_counts = {1, 2};
    config.duration = voprof::util::seconds(5.0);
    config.seed = 3;
    config.jobs = 1;
    return voprof::model::Trainer(config).train(
        voprof::model::RegressionMethod::kOls);
  }();
  return models;
}

TEST(Percentile, KnownSamples) {
  const std::vector<double> v = one_to(100);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.5);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_NEAR(percentile(v, 99.0), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(500, 99.0));
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_FALSE(percentile_supported(50, 90.0));
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(120), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(30), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(5), 0.0);
}

TEST(Percentile, BeyondCountsTheSamplesAboveTheEstimate) {
  for (const int n : {100, 250, 1000, 4321}) {
    const std::vector<double> v = one_to(n);
    for (const double q : {50.0, 90.0, 95.0, 99.0}) {
      const double p = percentile(v, q);
      const auto above = static_cast<std::size_t>(
          std::count_if(v.begin(), v.end(), [p](double x) { return x > p; }));
      EXPECT_EQ(above, samples_beyond(v.size(), q)) << n << " " << q;
    }
  }
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::int64_t span = 10 * kNsPerS;
  const auto a = poisson_schedule(7, 5000, span);
  EXPECT_EQ(a, poisson_schedule(7, 5000, span));
  EXPECT_NE(a, poisson_schedule(8, 5000, span));
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), span);
}

TEST(ShuffledIndices, DeterministicPermutation) {
  const auto a = shuffled_indices(3, 100);
  EXPECT_EQ(a, shuffled_indices(3, 100));
  std::vector<std::size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(MetricNames, Grammar) {
  for (const char* good : {"p50_ms", "serve.transport_us", "a-b.c_d", "0x"}) {
    EXPECT_TRUE(valid_metric_name(good)) << good;
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/x"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, DeclaredSetsAreValidAndDistinct) {
  std::set<std::string> seen;
  for (const auto* names : {&end_to_end_names(), &per_layer_names()}) {
    for (const std::string& name : *names) {
      EXPECT_TRUE(valid_metric_name(name)) << name;
      EXPECT_TRUE(seen.insert(name).second) << name;
    }
  }
}

TEST(Report, ResultLineCarriesTheNamedMetrics) {
  Report r;
  r.set("p50_ms", 1.25, "ms");
  r.set("setup_s", 0.5, "s");
  const Json line =
      Json::parse(result_line(r, {"p50_ms", "setup_s"}, true, 10, 1));
  EXPECT_TRUE(line.at("correct").as_bool());
  EXPECT_EQ(line.at("attempted").as_number(), 10.0);
  EXPECT_EQ(line.at("failed").as_number(), 1.0);
  EXPECT_EQ(line.at("metrics").at("p50_ms").at("value").as_number(), 1.25);
  EXPECT_EQ(line.at("metrics").at("p50_ms").at("unit").as_string(), "ms");
  EXPECT_FALSE(Json::parse(result_line(r, {"p50_ms", "tail_ms"}, true, 10, 0))
                   .at("correct")
                   .as_bool());
  EXPECT_THROW(r.set("bad name", 1.0, "ms"), std::invalid_argument);
}

TEST(Verifier, RejectsATamperedPredict) {
  const auto& m = small_models();
  const voprof::model::UtilVec sum{120.0, 30.0, 40.0, 500.0};
  const LineTemplate want =
      expected_response(voprof::serve::predict_result_json(m, sum, 2));
  const std::string good = voprof::serve::ok_response(
      "42", voprof::serve::predict_result_json(m, sum, 2));
  EXPECT_TRUE(want.matches(good, "42"));
  EXPECT_FALSE(want.matches(good, "43"));
  EXPECT_FALSE(want.matches(tamper_digit(good, good.find("\"result\"")), "42"));
  EXPECT_FALSE(want.matches(
      voprof::serve::ok_response(
          "42", voprof::serve::predict_result_json(m, sum, 3)),
      "42"));
  EXPECT_FALSE(want.matches(
      voprof::serve::error_response(
          "42", voprof::serve::ApiError::kOverloaded, "queue full"),
      "42"));
}

TEST(Verifier, RejectsATamperedSimulate) {
  const std::string text =
      "[cluster]\nseed = 5\nmachines = 1\n[vm a]\nmachine = 0\ncpu = 40\n"
      "[monitor]\nmachine = 0\n[run]\nduration = 3\n";
  const auto spec = voprof::scenario::ScenarioSpec::parse(text);
  const Json result = voprof::serve::simulate_result_json(
      voprof::scenario::run_scenario_replicated(spec, 2, 1));
  const LineTemplate want = expected_response(result);
  const std::string good = voprof::serve::ok_response("7", result);
  EXPECT_TRUE(want.matches(good, "7"));
  EXPECT_FALSE(want.matches(tamper_digit(good, good.find("cpu_mean")), "7"));
  EXPECT_FALSE(want.matches(
      voprof::serve::ok_response(
          "7", voprof::serve::simulate_result_json(
                   voprof::scenario::run_scenario_replicated(spec, 1, 1))),
      "7"));
}

TEST(Verifier, RejectsATamperedTrain) {
  const std::string want = voprof::model::models_to_string(small_models());
  Json result = Json::object();
  result.set("method", "ols");
  result.set("models", want);
  EXPECT_EQ(train_models_text(voprof::serve::ok_response("t1", result)), want);
  result.set("models", tamper_digit(want, 0));
  EXPECT_NE(train_models_text(voprof::serve::ok_response("t1", result)), want);
  EXPECT_EQ(train_models_text(voprof::serve::error_response(
                "t1", voprof::serve::ApiError::kTimedOut, "late")),
            "");
}

TEST(Verifier, ReadsTheEnvelope) {
  const std::string ok = voprof::serve::ok_response("123", Json::object());
  EXPECT_EQ(response_id(ok), "123");
  EXPECT_TRUE(response_ok(ok));
  const std::string err = voprof::serve::error_response(
      "9", voprof::serve::ApiError::kOverloaded, "full");
  EXPECT_EQ(response_id(err), "9");
  EXPECT_FALSE(response_ok(err));
  EXPECT_EQ(response_error(err), "overloaded");
  EXPECT_TRUE(response_id("{}").empty());
}

TEST(Requests, LinesAreVoprofApiRequests) {
  const auto inputs = predict_inputs(5, 64, 30.0, 77);
  for (const PredictInput& in : inputs) {
    EXPECT_GE(in.vms, 1);
    EXPECT_LE(in.vms, 8);
    const auto req =
        voprof::serve::parse_request(predict_request(in).with_id("12"));
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req.value().id, "12");
    EXPECT_EQ(req.value().op, voprof::serve::Op::kPredict);
    EXPECT_EQ(req.value().params.at("cpu").as_number(), in.sum.cpu);
  }
  EXPECT_EQ(predict_inputs(5, 64, 30.0, 77)[10].sum.cpu, inputs[10].sum.cpu);
  EXPECT_TRUE(voprof::serve::parse_request(
                  train_request(ModelKey{}).with_id("t"))
                  .ok());
}

TEST(Scenarios, PreparedForTheSocket) {
  const std::string text =
      "[cluster]\nseed = 5\nscheduler = micro  # discrete\n[vm web]\n"
      "machine = 0\ntrace = scenarios/traces/x.csv\n[vm b]\nmachine = 0\n"
      "trace = /abs/y.csv\n";
  const std::string out = prepare_scenario(text, "macro", "/repo");
  EXPECT_NE(out.find("scheduler = macro"), std::string::npos);
  EXPECT_EQ(out.find("micro"), std::string::npos);
  EXPECT_NE(out.find("trace = /repo/scenarios/traces/x.csv"),
            std::string::npos);
  EXPECT_NE(out.find("trace = /abs/y.csv"), std::string::npos);
}

TEST(Scenarios, EveryBundledScenarioParsesWithAbsoluteTracePaths) {
  const std::string root =
      std::filesystem::absolute(PERFBENCH_REPO_ROOT).lexically_normal();
  const auto scenarios = bundled_scenarios(root);
  ASSERT_FALSE(scenarios.empty());
  for (const auto& scenario : scenarios) {
    for (const char* scheduler : {"micro", "macro"}) {
      const auto spec = voprof::scenario::ScenarioSpec::parse_result(
          prepare_scenario(scenario.second, scheduler, root));
      ASSERT_TRUE(spec.ok()) << scenario.first;
      for (const auto& vm : spec.value().vms) {
        if (vm.trace_path.empty()) continue;
        EXPECT_EQ(vm.trace_path.front(), '/');
        EXPECT_TRUE(std::filesystem::exists(vm.trace_path)) << vm.trace_path;
      }
    }
  }
}

TEST(SelfTime, SubtractsDirectChildrenOnTheSameThread) {
  const std::vector<SpanRecord> spans = {
      {"serve", "request", 0, 100, 1, 1.0},
      {"core", "fit", 10, 20, 1, 1.0},
      {"util", "inner", 12, 5, 1, 1.0},
      {"core", "fit2", 40, 10, 1, 1.0},
      {"serve", "other-thread", 0, 50, 2, 1.0}};
  const auto self = self_time_ms(spans);
  EXPECT_NEAR(self.at("serve"), (70.0 + 50.0) / 1e3, 1e-12);
  EXPECT_NEAR(self.at("core"), (15.0 + 10.0) / 1e3, 1e-12);
  EXPECT_NEAR(self.at("util"), 5.0 / 1e3, 1e-12);
}

TEST(SelfTime, ReadsWallSpansFromATrace) {
  const std::string text =
      R"({"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0},)"
      R"({"name":"collect_run","cat":"trainer","ph":"X","pid":1,"tid":3,)"
      R"("ts":10,"dur":5},{"name":"ep","cat":"machine","ph":"X","pid":2,)"
      R"("tid":1,"ts":1,"dur":2,"args":{"m":"{x}"}}],"schema":"voprof-trace-1"})";
  const auto spans = spans_from_trace(text, 100);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].layer, "core");
  EXPECT_EQ(spans[0].name, "collect_run");
  EXPECT_EQ(spans[0].tid, 103u);
  EXPECT_EQ(spans[0].dur_us, 5);
}

}  // namespace
