#include "probes.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "voprof/core/serialize.hpp"
#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/placement/evaluation.hpp"
#include "voprof/placement/placer.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/api.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/serve/socket.hpp"
#include "voprof/util/units.hpp"

namespace perfbench {

namespace {

namespace model = voprof::model;
namespace serve = voprof::serve;
using voprof::util::Json;

constexpr std::size_t kProbeCalls = 2000;
constexpr std::size_t kBatch = 100;
constexpr std::size_t kRoundTrips = 300;
constexpr int kRoundTripTimeoutMs = 10'000;
constexpr int kOverheadPairs = 3;

/// Makes a computed value observable, so the optimiser cannot drop the
/// call that produced it.
template <typename T>
void keep(const T& value) {
  __asm__ __volatile__("" : : "r"(&value) : "memory");
}

/// Median per-call microseconds of fn(i) for i < n, timed in batches of
/// kBatch calls, one span per batch.
template <typename Fn>
double per_call_us(const char* layer, const char* name, std::size_t n,
                   Fn&& fn) {
  std::vector<double> us;
  for (std::size_t b = 0; b < n; b += kBatch) {
    const std::size_t e = std::min(n, b + kBatch);
    const LayerSpan span(layer, name, static_cast<double>(e - b));
    for (std::size_t i = b; i < e; ++i) fn(i);
    us.push_back(static_cast<double>(span.elapsed_ns()) /
                 static_cast<double>(kNsPerUs) / static_cast<double>(e - b));
  }
  return percentile(us, 50.0);
}

std::vector<std::string> probe_lines(const std::vector<PredictInput>& inputs,
                                     std::size_t n) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < std::min(n, inputs.size()); ++i) {
    lines.push_back(predict_request(inputs[i]).with_id(std::to_string(i)));
  }
  return lines;
}

/// A counter or gauge value, or a histogram's mean.
double metric_value(const Json& metrics, const char* name) {
  const Json* v = metrics.find(name);
  if (v == nullptr) return 0.0;
  if (v->is_number()) return v->as_number();
  const Json* mean = v->find("mean");
  return mean != nullptr && mean->is_number() ? mean->as_number() : 0.0;
}

}  // namespace

void probe_in_process(const std::vector<PredictInput>& inputs,
                      const model::TrainedModels& lms,
                      const model::TrainedModels& ols, Report& out) {
  const std::vector<std::string> lines = probe_lines(inputs, kProbeCalls);
  const std::size_t n = lines.size();
  const auto models_of = [&](std::size_t i) -> const model::TrainedModels& {
    return inputs[i].key.lms ? lms : ols;
  };

  out.set("serve.api_parse_us",
          per_call_us("serve", "parse_request", n,
                      [&](std::size_t i) {
                        keep(serve::parse_request(lines[i]));
                      }),
          "us");
  out.set("serve.api_encode_us",
          per_call_us("serve", "ok_response", n,
                      [&](std::size_t i) {
                        keep(serve::ok_response(
                            std::to_string(i),
                            serve::predict_result_json(
                                models_of(i), inputs[i].sum, inputs[i].vms)));
                      }),
          "us");
  out.set("core.predict_ns",
          1e3 * per_call_us("core", "MultiVmModel.predict", n,
                            [&](std::size_t i) {
                              const model::MultiVmModel& m =
                                  models_of(i).multi;
                              keep(m.predict(inputs[i].sum, inputs[i].vms));
                              keep(m.predict_pm_cpu_indirect(inputs[i].sum,
                                                             inputs[i].vms));
                            }),
          "ns");

  auto& cache = voprof::runner::model_cache();
  out.set("runner.cache_get_hit_us",
          per_call_us("runner", "ModelCache.get", n,
                      [&](std::size_t i) {
                        const ModelKey& k = inputs[i].key;
                        keep(cache.get(k.lms ? model::RegressionMethod::kLms
                                             : model::RegressionMethod::kOls,
                                       voprof::util::seconds(k.duration_s),
                                       static_cast<std::uint64_t>(k.seed), 1));
                      }),
          "us");

  // The serve path without the transport: Service::handle_line in this
  // process, one request at a time.
  serve::ServiceConfig config;
  config.jobs = 1;
  config.queue_capacity = 16;
  config.train_duration_s = inputs.front().key.duration_s;
  config.default_seed = static_cast<std::uint64_t>(inputs.front().key.seed);
  serve::Service service(config);
  std::vector<double> service_us;
  for (const std::string& line : lines) {
    const LayerSpan span("serve", "Service.handle_line");
    keep(service.handle_line(line));
    service_us.push_back(static_cast<double>(span.elapsed_ns()) /
                         static_cast<double>(kNsPerUs));
  }
  out.set("serve.service_us", percentile(service_us, 50.0), "us");

  // Placer::place: the five Fig. 10 VMs onto two fresh PMs, repeatedly.
  const voprof::place::Placer placer(voprof::place::PlacerConfig{},
                                     &lms.multi);
  const std::vector<model::UtilVec> demands = {{40.0, 180.0, 12.0, 600.0},
                                               {30.0, 200.0, 30.0, 300.0},
                                               {50.0, 20.0, 1.0, 1.0},
                                               {50.0, 20.0, 1.0, 1.0},
                                               {1.0, 20.0, 1.0, 1.0}};
  std::vector<voprof::place::PmState> pms;
  out.set("placement.place_us",
          per_call_us("placement", "Placer.place", n,
                      [&](std::size_t i) {
                        if (i % demands.size() == 0) {
                          pms.assign(2, voprof::place::PmState{});
                        }
                        keep(placer.place(pms, demands[i % demands.size()],
                                          256.0));
                      }),
          "us");
}

void probe_transport(const std::string& socket,
                     const std::vector<PredictInput>& inputs, Report& out) {
  auto connected = serve::LineClient::connect(socket);
  if (!connected.ok()) {
    throw std::runtime_error("transport probe: " +
                             connected.error().to_string());
  }
  serve::LineClient client = std::move(connected).take();
  std::vector<double> us;
  for (const std::string& line : probe_lines(inputs, kRoundTrips)) {
    const LayerSpan span("serve", "LineClient.roundtrip");
    const auto response = client.roundtrip(line, kRoundTripTimeoutMs);
    if (!response.ok() || !response_ok(response.value())) {
      throw std::runtime_error("transport probe: a request failed");
    }
    us.push_back(static_cast<double>(span.elapsed_ns()) /
                 static_cast<double>(kNsPerUs));
  }
  const Metric* service = out.find("serve.service_us");
  out.set("serve.transport_us",
          percentile(us, 50.0) - (service != nullptr ? service->value : 0.0),
          "us");
}

bool probe_training(const model::TrainerConfig& config,
                    const model::TrainedModels& lms,
                    const model::TrainedModels& ols, Report& out) {
  const model::Trainer trainer(config);
  model::TrainingSet data;
  {
    const LayerSpan span("core", "Trainer.collect");
    data = trainer.collect();
    out.set("core.collect_s", ns_to_s(span.elapsed_ns()), "s");
  }
  model::TrainedModels fit_lms;
  {
    const LayerSpan span("core", "Trainer.fit_models.lms");
    fit_lms = model::Trainer::fit_models(data, model::RegressionMethod::kLms,
                                         config.seed);
    out.set("core.fit_lms_s", ns_to_s(span.elapsed_ns()), "s");
  }
  model::TrainedModels fit_ols;
  {
    const LayerSpan span("core", "Trainer.fit_models.ols");
    fit_ols = model::Trainer::fit_models(data, model::RegressionMethod::kOls,
                                         config.seed);
    out.set("core.fit_ols_s", ns_to_s(span.elapsed_ns()), "s");
  }
  return model::models_to_string(fit_lms) == model::models_to_string(lms) &&
         model::models_to_string(fit_ols) == model::models_to_string(ols);
}

void probe_scenario(const std::string& root, Report& out) {
  constexpr std::size_t kReplications = 2;
  const auto scenarios = bundled_scenarios(root);
  const auto spec = voprof::scenario::ScenarioSpec::parse(
      prepare_scenario(scenarios.front().second, "macro", root));
  const LayerSpan span("scenario", "run_scenario_replicated");
  keep(voprof::scenario::run_scenario_replicated(spec, kReplications, 1));
  out.set("scenario.replication_ms",
          ns_to_ms(span.elapsed_ns()) / static_cast<double>(kReplications),
          "ms");
}

void probe_run_cell(const model::MultiVmModel& overhead, Report& out) {
  voprof::place::EvalConfig config;
  config.repetitions = 2;
  config.clients = 100;
  config.warmup = voprof::util::seconds(2.0);
  config.run_duration = voprof::util::seconds(10.0);
  const voprof::place::PlacementEvaluation eval(config, &overhead);
  {
    const LayerSpan span("placement", "PlacementEvaluation.role_demands");
    keep(eval.role_demands());
  }
  const LayerSpan span("placement", "PlacementEvaluation.run_cell");
  const voprof::place::CellStats cell = eval.run_cell(1, true);
  out.set("placement.run_cell_s", ns_to_s(span.elapsed_ns()), "s");
  double served = 0.0;
  for (const voprof::place::RunResult& run : cell.runs) {
    served += run.throughput_req_s *
              voprof::util::to_seconds(config.run_duration);
  }
  out.set("rubis.requests_completed", served, "count");
}

void serve_counters(const Json& metrics, double wall_s, int jobs,
                    Report& out) {
  for (const char* name : {"serve.accepted", "serve.rejected_overloaded",
                           "serve.timed_out", "serve.failed"}) {
    out.set(name, metric_value(metrics, name), "count");
  }
  out.set("serve.handler_ms_mean", metric_value(metrics, "serve.request_ms"),
          "ms");
  out.set("runner.cache_hits", metric_value(metrics, "runner.model_cache_hits"),
          "count");
  out.set("runner.cache_misses",
          metric_value(metrics, "runner.model_cache_misses"), "count");
  // taskpool.busy_us counts inline tasks nested in requests too, so a
  // busy pool can read above 100 %.
  out.set("util.task_pool_busy_pct",
          wall_s > 0.0 ? 100.0 * metric_value(metrics, "taskpool.busy_us") /
                             (1e6 * wall_s * jobs)
                       : 0.0,
          "%");
}

void compute_counters(const Json& metrics, double simulating_s, Report& out) {
  const double fired = metric_value(metrics, "engine.events_fired");
  const double stale = metric_value(metrics, "engine.events_stale");
  out.set("runner.sweep_cells", metric_value(metrics, "runner.cells"),
          "count");
  out.set("xensim.events_fired", fired, "count");
  out.set("xensim.events_stale", stale, "count");
  out.set("xensim.ticks", metric_value(metrics, "engine.ticks"), "count");
  out.set("xensim.heap_depth_max",
          metric_value(metrics, "engine.heap_depth_max"), "count");
  out.set("xensim.credit_micro_contended_ticks",
          metric_value(metrics, "credit_micro.contended_ticks"), "count");
  out.set("xensim.host_ns_per_event",
          fired > 0.0 ? simulating_s * 1e9 / fired : 0.0, "ns");
  out.set("xensim.stale_ratio",
          fired + stale > 0.0 ? stale / (fired + stale) : 0.0, "ratio");
  out.set("monitor.samples", metric_value(metrics, "monitor.samples"),
          "count");
}

Json registry_json(const voprof::obs::Registry::Snapshot* since) {
  using Entry = voprof::obs::Registry::Snapshot::Entry;
  const auto earlier = [&](const std::string& name) -> const Entry* {
    if (since == nullptr) return nullptr;
    for (const Entry& e : since->entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  Json metrics = Json::object();
  for (const Entry& entry : voprof::obs::Registry::global().snapshot().entries) {
    const Entry* old = earlier(entry.name);
    if (entry.kind == "histogram") {
      auto count = static_cast<double>(entry.hist.count);
      double sum = entry.hist.sum;
      if (old != nullptr) {
        count -= static_cast<double>(old->hist.count);
        sum -= old->hist.sum;
      }
      Json h = Json::object();
      h.set("count", count);
      h.set("mean", count > 0.0 ? sum / count : 0.0);
      metrics.set(entry.name, std::move(h));
    } else if (entry.kind == "counter" && old != nullptr) {
      metrics.set(entry.name, entry.value - old->value);
    } else {
      metrics.set(entry.name, entry.value);
    }
  }
  return metrics;
}

void self_time_metrics(const std::vector<SpanRecord>& spans, Report& out) {
  const std::map<std::string, double> self = self_time_ms(spans);
  for (const char* layer : {"serve", "runner", "util", "core", "monitor",
                            "scenario", "placement"}) {
    const auto it = self.find(layer);
    out.set(std::string(layer) + ".self_ms",
            it == self.end() ? 0.0 : it->second, "ms");
  }
}

double trace_overhead_pct(const std::function<void()>& work) {
  auto& collector = voprof::obs::TraceCollector::global();
  std::vector<double> pct;
  for (int i = 0; i < kOverheadPairs; ++i) {
    std::int64_t t0 = now_ns();
    work();
    const auto untraced = static_cast<double>(now_ns() - t0);
    collector.enable("overhead-probe.json");
    t0 = now_ns();
    work();
    const auto traced = static_cast<double>(now_ns() - t0);
    collector.disable();
    pct.push_back(100.0 * (traced / untraced - 1.0));
  }
  return percentile(pct, 50.0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
