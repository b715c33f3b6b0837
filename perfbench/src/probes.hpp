#pragma once
/// \file probes.hpp
/// Per-layer measurements of a traced run: timed calls into each
/// layer's public entry points, and per-layer metrics from a registry
/// snapshot (voprofd's --metrics-out, or this process's obs::Registry).
/// Every timed call is also recorded as a LayerSpan.

#include <functional>
#include <string>
#include <vector>

#include "protocol.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/obs/metrics.hpp"
#include "voprof/util/json.hpp"

namespace perfbench {

/// serve.api_parse_us, serve.api_encode_us, serve.service_us,
/// runner.cache_get_hit_us, core.predict_ns and placement.place_us over
/// the given predict inputs. Their keys must already be trained into
/// this process's runner::model_cache() (lms/ols are those models).
void probe_in_process(const std::vector<PredictInput>& inputs,
                      const voprof::model::TrainedModels& lms,
                      const voprof::model::TrainedModels& ols, Report& out);

/// serve.transport_us: p50 closed-loop round trip over the daemon
/// socket minus serve.service_us (set by probe_in_process), over the
/// same request lines.
void probe_transport(const std::string& socket,
                     const std::vector<PredictInput>& inputs, Report& out);

/// core.collect_s, core.fit_lms_s and core.fit_ols_s: Trainer::collect
/// and Trainer::fit_models for `config`. True when the fits equal the
/// given models.
bool probe_training(const voprof::model::TrainerConfig& config,
                    const voprof::model::TrainedModels& lms,
                    const voprof::model::TrainedModels& ols, Report& out);

/// scenario.replication_ms from one replicated bundled scenario.
void probe_scenario(const std::string& root, Report& out);

/// placement.run_cell_s and rubis.requests_completed from one small
/// Fig. 10 cell.
void probe_run_cell(const voprof::model::MultiVmModel& overhead,
                    Report& out);

/// serve.* counters, serve.handler_ms_mean, runner.cache_hits/misses and
/// util.task_pool_busy_pct from a registry snapshot covering `wall_s`
/// seconds of a pool of `jobs` workers.
void serve_counters(const voprof::util::Json& metrics, double wall_s,
                    int jobs, Report& out);

/// runner.sweep_cells, xensim.* and monitor.samples from a registry
/// snapshot; `simulating_s` is the host time spent simulating.
void compute_counters(const voprof::util::Json& metrics, double simulating_s,
                      Report& out);

/// This process's obs::Registry in --metrics-out's shape. With `since`,
/// counters and histograms hold only what was recorded after that
/// snapshot; gauges keep their current value.
[[nodiscard]] voprof::util::Json registry_json(
    const voprof::obs::Registry::Snapshot* since = nullptr);

/// "<layer>.self_ms" for every layer the benchmark reports.
void self_time_metrics(const std::vector<SpanRecord>& spans, Report& out);

/// How much slower (%) `work` runs with this process's trace collector
/// on than off: median of alternating pairs. Call while no trace is
/// being collected.
[[nodiscard]] double trace_overhead_pct(const std::function<void()>& work);

/// Whole text of a file; std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace perfbench
