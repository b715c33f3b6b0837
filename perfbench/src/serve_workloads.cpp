/// \file serve_workloads.cpp
/// predict_open and mixed_serve: a real voprofd, spawned from the same
/// build, driven over its Unix socket by the open-loop generator, every
/// answer checked against an in-process reference. README.md gives the
/// reason for each workload and the meaning of every metric.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon.hpp"
#include "loadgen.hpp"
#include "probes.hpp"
#include "protocol.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/serve/socket.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/task_pool.hpp"

namespace perfbench {

namespace {

namespace model = voprof::model;
namespace serve = voprof::serve;
using voprof::util::Json;
using voprof::util::seed_for;

// --- Workload definitions ---------------------------------------------
// One generator thread over kConnections sockets against a daemon with an
// event loop and kDaemonJobs workers: four busy threads for four cores.
constexpr int kDaemonJobs = 2;
constexpr int kConnections = 2;
constexpr int kGeneratorThreads = 1;
// ModelCache keys use 30 s training cells (the paper's are 120 s): a
// cold train then takes about a third of a second, so set-up and the
// trickle of cold trains fit a short run while the LMS fit still
// dominates every training.
constexpr double kKeyDurationS = 30.0;
constexpr std::size_t kPoolSize = 4096;
constexpr int kSetupRepeats = 5;
constexpr std::int64_t kReadyTimeoutNs = 30 * kNsPerS;
constexpr int kWarmTimeoutMs = 120'000;
constexpr std::int64_t kStopTimeoutNs = 60 * kNsPerS;
constexpr std::int64_t kDrainNs = 10 * kNsPerS;
// A fixed-rate phase in which the generator sent 1 % of its requests
// later than this was limited by the generator, not the daemon: the run
// is marked invalid.
constexpr double kGenLagLimitMs = 10.0;
// Latency charged to a failed, refused or wrong answer: it misses every
// limit.
constexpr double kMissedMs = 1e6;
constexpr std::uint64_t kDaemonTidOffset = 1'000'000;

// predict_open: a reference and a loaded fixed rate, then a rate search.
constexpr double kRefRate = 1000.0;
constexpr double kLoadedRate = 4000.0;
constexpr double kRefShare = 0.35;
constexpr double kLoadedShare = 0.2;
constexpr int kPredictQueue = 1024;
constexpr int kSearchSteps = 6;
constexpr double kSearchSpan = 32.0;  // resolution 32^(1/64) = 5.6 %
constexpr double kLimitP99Ms = 5.0;
constexpr double kLimitFailShare = 0.001;

// mixed_serve
constexpr double kMixedPredictRate = 500.0;
constexpr double kSimulateRate = 8.0;
constexpr std::size_t kMinSimulates = 100;
constexpr int kMaxReplications = 4;
constexpr double kFirstTrainS = 1.0;
constexpr double kTrainEveryS = 3.5;
constexpr int kMixedQueue = 4096;

// The cache-stall probe of the traced runs: rounds of one cold train with
// a burst of predicts right behind it.
constexpr int kStallBurstPredicts = 400;
constexpr std::int64_t kStallBurstGapNs = kNsPerMs / 2;
constexpr int kStallProbeMaxRounds = 20;
constexpr int kStallProbeSeedOffset = 500'000;

enum Kind : int { kPredict = 0, kSimulate = 1, kTrain = 2 };

constexpr const char* kSocket = "voprofd.sock";
constexpr const char* kMetricsFile = "voprofd-metrics.json";
constexpr const char* kDaemonTraceFile = "voprofd-trace.json";
constexpr const char* kTraceFile = "vopbench-trace.json";

/// Reference models, the predict inputs with their expected answers, and
/// the warmed daemon every serve workload starts from.
struct Session {
  int key_seed = 1;
  const model::TrainedModels* lms = nullptr;
  const model::TrainedModels* ols = nullptr;
  std::vector<PredictInput> inputs;
  std::vector<LineTemplate> lines;
  std::vector<LineTemplate> expected;
  std::vector<double> setup_s;
  bool warm_ok = true;
  bool daemon_traced = false;
  std::unique_ptr<DaemonProcess> daemon;
  std::int64_t daemon_start_ns = 0;
};

Session open_session(const BenchOptions& opt, int queue_capacity, int setups,
                     bool trace_daemon) {
  if (kGeneratorThreads > opt.nproc || kConnections > opt.nproc) {
    throw std::runtime_error(
        "the load generator would use more threads or connections than "
        "nproc");
  }
  Session s;
  s.key_seed = 1 + static_cast<int>(seed_for(opt.seed, 0) % 1'000'000);
  s.daemon_traced = trace_daemon;
  auto& cache = voprof::runner::model_cache();
  const auto duration = voprof::util::seconds(kKeyDurationS);
  const auto key_seed = static_cast<std::uint64_t>(s.key_seed);
  s.lms = &cache.get(model::RegressionMethod::kLms, duration, key_seed,
                     opt.nproc);
  s.ols = &cache.get(model::RegressionMethod::kOls, duration, key_seed,
                     opt.nproc);
  s.inputs =
      predict_inputs(seed_for(opt.seed, 1), kPoolSize, kKeyDurationS, s.key_seed);
  for (const PredictInput& in : s.inputs) {
    s.lines.push_back(predict_request(in));
    s.expected.push_back(expected_response(serve::predict_result_json(
        in.key.lms ? *s.lms : *s.ols, in.sum, in.vms)));
  }
  const std::string want_lms = model::models_to_string(*s.lms);
  const std::string want_ols = model::models_to_string(*s.ols);

  // Set-up, timed several times: spawn until the socket accepts and both
  // warm keys are trained.
  for (int i = 0; i < setups; ++i) {
    const bool kept = i + 1 == setups;
    DaemonArgs args;
    args.binary = opt.voprofd;
    args.socket = kSocket;
    args.jobs = kDaemonJobs;
    args.queue_capacity = queue_capacity;
    args.train_duration_s = kKeyDurationS;
    args.seed = s.key_seed;
    if (kept) {
      args.metrics_out = kMetricsFile;
      if (trace_daemon) args.trace_out = kDaemonTraceFile;
    }
    const std::int64_t t0 = now_ns();
    auto daemon = std::make_unique<DaemonProcess>(args);
    if (!daemon->wait_ready(kReadyTimeoutNs)) {
      throw std::runtime_error(
          "voprofd did not accept connections; see voprofd.log");
    }
    {
      auto connected = serve::LineClient::connect(kSocket);
      if (!connected.ok()) {
        throw std::runtime_error("connect: " + connected.error().to_string());
      }
      serve::LineClient client = std::move(connected).take();
      for (const bool lms : {true, false}) {
        const ModelKey key{lms, kKeyDurationS, s.key_seed};
        if (!client.send_line(train_request(key).with_id(lms ? "warm-lms"
                                                             : "warm-ols"))
                 .ok()) {
          throw std::runtime_error("warm-up: send failed");
        }
      }
      for (int k = 0; k < 2; ++k) {
        const auto line = client.recv_line(kWarmTimeoutMs);
        if (!line.ok()) {
          throw std::runtime_error("warm-up: " + line.error().to_string());
        }
        const std::string& want =
            response_id(line.value()) == "warm-lms" ? want_lms : want_ols;
        if (train_models_text(line.value()) != want) s.warm_ok = false;
      }
    }
    s.setup_s.push_back(ns_to_s(now_ns() - t0));
    if (kept) {
      s.daemon = std::move(daemon);
      s.daemon_start_ns = t0;
    } else {
      (void)daemon->stop(kStopTimeoutNs);
    }
  }
  return s;
}

/// What the daemon left behind after its graceful drain.
struct DaemonEnd {
  double peak_rss_mib = 0.0;
  double lifetime_s = 0.0;
  bool clean_exit = false;
  Json metrics;                   ///< "metrics" of --metrics-out
  std::vector<SpanRecord> spans;  ///< --trace-out spans, when traced
};

DaemonEnd close_session(Session& s) {
  DaemonEnd end;
  end.peak_rss_mib = s.daemon->peak_rss_mib();
  end.clean_exit = s.daemon->stop(kStopTimeoutNs);
  end.lifetime_s = ns_to_s(now_ns() - s.daemon_start_ns);
  s.daemon.reset();
  end.metrics = Json::parse(read_file(kMetricsFile)).at("metrics");
  if (s.daemon_traced) {
    end.spans = spans_from_trace(read_file(kDaemonTraceFile), kDaemonTidOffset);
  }
  return end;
}

std::vector<Planned> predict_plan(std::uint64_t seed, double rate,
                                  double seconds) {
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  const std::vector<std::int64_t> due = poisson_schedule(
      seed_for(seed, 0), count,
      static_cast<std::int64_t>(seconds * static_cast<double>(kNsPerS)));
  voprof::util::Rng pick(seed_for(seed, 1));
  std::vector<Planned> plan(count);
  for (std::size_t i = 0; i < count; ++i) {
    plan[i] = Planned{due[i], kPredict,
                      static_cast<std::size_t>(pick.uniform_int(kPoolSize))};
  }
  return plan;
}

PhaseResult run_predicts(OpenLoopGenerator& gen, const Session& s,
                         const std::vector<Planned>& plan) {
  return gen.run(
      plan,
      [&](std::size_t i, std::string_view id) {
        return s.lines[plan[i].input].with_id(id);
      },
      [&](std::size_t i, std::string_view id, std::string_view response) {
        return s.expected[plan[i].input].matches(response, id);
      },
      kDrainNs);
}

/// Latency and failure figures of one request class of a phase.
struct Stats {
  std::size_t attempted = 0;
  std::size_t answered = 0;
  std::size_t failed = 0;  ///< not answered both ok and correct
  std::size_t wrong = 0;   ///< answered ok but not correct
  std::vector<double> latency_ms;
  double answered_mean_ms = 0.0;
  double lag_p99_ms = 0.0;
  [[nodiscard]] double pct(double q) const { return percentile(latency_ms, q); }
  [[nodiscard]] double mean_ms() const {
    double sum = 0.0;
    for (const double ms : latency_ms) sum += ms;
    return latency_ms.empty() ? 0.0 : sum / static_cast<double>(latency_ms.size());
  }
};

/// Figures of the requests of `kind` (-1: all).
Stats summarize(const PhaseResult& pr, const std::vector<Planned>& plan,
                int kind) {
  Stats st;
  std::vector<double> lags;
  double answered_sum = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (kind >= 0 && plan[i].kind != kind) continue;
    const Outcome& o = pr.outcomes[i];
    ++st.attempted;
    lags.push_back(ns_to_ms(o.lag_ns));
    const bool answered = o.latency_ns >= 0;
    if (answered) {
      ++st.answered;
      answered_sum += ns_to_ms(o.latency_ns);
    }
    if (answered && o.ok && !o.correct) ++st.wrong;
    const bool good = answered && o.ok && o.correct;
    if (!good) ++st.failed;
    st.latency_ms.push_back(good ? ns_to_ms(o.latency_ns) : kMissedMs);
  }
  st.lag_p99_ms = percentile(lags, 99.0);
  st.answered_mean_ms =
      st.answered > 0 ? answered_sum / static_cast<double>(st.answered) : 0.0;
  return st;
}

/// Latencies of the predicts scheduled while a cold train was in flight
/// (between its scheduled send and its answer); a failed or wrong answer
/// counts as kMissedMs.
std::vector<double> stalled_predicts_ms(const PhaseResult& pr,
                                        const std::vector<Planned>& plan) {
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].kind == kTrain && pr.outcomes[i].latency_ns >= 0) {
      windows.emplace_back(plan[i].due_ns,
                           plan[i].due_ns + pr.outcomes[i].latency_ns);
    }
  }
  std::vector<double> stalled;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].kind != kPredict) continue;
    for (const auto& [from, to] : windows) {
      if (plan[i].due_ns >= from && plan[i].due_ns < to) {
        const Outcome& o = pr.outcomes[i];
        stalled.push_back(o.latency_ns >= 0 && o.correct ? ns_to_ms(o.latency_ns)
                                                         : kMissedMs);
        break;
      }
    }
  }
  return stalled;
}

/// runner.cache_stall_ms_p99: rounds of a cold train on an unused key
/// with a burst of predicts right behind it, until the predicts sent
/// while a train was in flight support a p99. NaN, a missing metric that
/// fails the run, when kStallProbeMaxRounds rounds do not.
double cache_stall_probe(OpenLoopGenerator& gen, const Session& s) {
  std::vector<double> stalled;
  for (int round = 0; round < kStallProbeMaxRounds &&
                      !percentile_supported(stalled.size(), 99.0);
       ++round) {
    const LineTemplate train = train_request(
        ModelKey{true, kKeyDurationS, s.key_seed + kStallProbeSeedOffset + round});
    std::vector<Planned> plan = {Planned{0, kTrain, 0}};
    for (int i = 0; i < kStallBurstPredicts; ++i) {
      plan.push_back(Planned{
          kNsPerMs + i * kStallBurstGapNs, kPredict,
          static_cast<std::size_t>(round * kStallBurstPredicts + i) % kPoolSize});
    }
    const PhaseResult pr = gen.run(
        plan,
        [&](std::size_t i, std::string_view id) {
          return plan[i].kind == kTrain ? train.with_id(id)
                                        : s.lines[plan[i].input].with_id(id);
        },
        [&](std::size_t i, std::string_view id, std::string_view response) {
          return plan[i].kind == kTrain ||
                 s.expected[plan[i].input].matches(response, id);
        },
        kDrainNs);
    const std::vector<double> more = stalled_predicts_ms(pr, plan);
    stalled.insert(stalled.end(), more.begin(), more.end());
  }
  return percentile_supported(stalled.size(), 99.0)
             ? percentile(stalled, 99.0)
             : std::numeric_limits<double>::quiet_NaN();
}

/// The per-layer probes of a traced serve run that need the live daemon
/// and the in-process entry points. Returns the spans this process
/// recorded meanwhile; false in `trained_ok` when Trainer::collect +
/// fit_models disagree with the cached models.
std::vector<SpanRecord> traced_probes(const BenchOptions& opt,
                                      const Session& s,
                                      OpenLoopGenerator& gen, Report& rep,
                                      bool& trained_ok) {
  {
    serve::ServiceConfig config;
    config.jobs = 1;
    config.queue_capacity = 16;
    config.train_duration_s = kKeyDurationS;
    config.default_seed = static_cast<std::uint64_t>(s.key_seed);
    serve::Service service(config);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < 500; ++i) {
      lines.push_back(s.lines[i].with_id(std::to_string(i)));
    }
    rep.set("obs.trace_overhead_pct", trace_overhead_pct([&] {
              for (const std::string& line : lines) {
                (void)service.handle_line(line);
              }
            }),
            "%");
  }
  auto& collector = voprof::obs::TraceCollector::global();
  collector.enable(kTraceFile);
  probe_in_process(s.inputs, *s.lms, *s.ols, rep);
  probe_transport(kSocket, s.inputs, rep);
  rep.set("runner.cache_stall_ms_p99", cache_stall_probe(gen, s), "ms");
  model::TrainerConfig config;
  config.duration = voprof::util::seconds(kKeyDurationS);
  config.seed = static_cast<std::uint64_t>(s.key_seed);
  config.jobs = opt.nproc;
  trained_ok = probe_training(config, *s.lms, *s.ols, rep);
  probe_scenario(opt.root, rep);
  probe_run_cell(s.lms->multi, rep);
  if (!collector.write_file()) {
    throw std::runtime_error(std::string("cannot write ") + kTraceFile);
  }
  return spans_from_trace(read_file(kTraceFile), 0);
}

/// The per-layer metrics read from the daemon, merged with this
/// process's spans.
void daemon_layers(const DaemonEnd& end, std::vector<SpanRecord> spans,
                   double client_mean_ms, Report& rep) {
  serve_counters(end.metrics, end.lifetime_s, kDaemonJobs, rep);
  const double simulating_s =
      (span_total(end.spans, "core", "collect_run").ms +
       span_total(end.spans, "scenario", "run_scenario").ms) /
      1e3;
  compute_counters(end.metrics, simulating_s, rep);
  spans.insert(spans.end(), end.spans.begin(), end.spans.end());
  rep.set("monitor.measure_s", span_total(spans, "monitor", "measure").ms / 1e3,
          "s");
  const Metric* handler = rep.find("serve.handler_ms_mean");
  const Metric* transport = rep.find("serve.transport_us");
  rep.set("serve.queue_wait_ms_mean",
          client_mean_ms - (handler != nullptr ? handler->value : 0.0) -
              (transport != nullptr ? transport->value / 1e3 : 0.0),
          "ms");
  self_time_metrics(spans, rep);
}

double share_pct(std::size_t part, std::size_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
}

}  // namespace

RunResult run_predict_open(const BenchOptions& opt) {
  RunResult res;
  Report& rep = res.report;
  Session s = open_session(opt, kPredictQueue, kSetupRepeats, opt.trace);
  OpenLoopGenerator gen(kSocket, kConnections);

  const double ref_s = kRefShare * opt.seconds;
  const double loaded_s = kLoadedShare * opt.seconds;
  const double step_s = (opt.seconds - ref_s - loaded_s) / kSearchSteps;
  const std::vector<Planned> ref_plan =
      predict_plan(seed_for(opt.seed, 10), kRefRate, ref_s);
  const std::vector<Planned> loaded_plan =
      predict_plan(seed_for(opt.seed, 11), kLoadedRate, loaded_s);
  const std::int64_t cpu0 = s.daemon->cpu_ns();
  const PhaseResult ref = run_predicts(gen, s, ref_plan);
  const PhaseResult loaded = run_predicts(gen, s, loaded_plan);
  const std::int64_t cpu1 = s.daemon->cpu_ns();
  // Peak memory of the fixed-rate phases; the overload steps of the rate
  // search would make it depend on where the search went.
  const double peak_rss_mib = s.daemon->peak_rss_mib();
  const Stats rs = summarize(ref, ref_plan, -1);
  const Stats ls = summarize(loaded, loaded_plan, -1);
  std::size_t wrong = rs.wrong + ls.wrong;

  const auto meets_limits = [](const Stats& st, const PhaseResult& pr,
                               double rate) {
    return st.pct(99.0) <= kLimitP99Ms &&
           static_cast<double>(st.failed) <=
               kLimitFailShare * static_cast<double>(st.attempted) &&
           st.lag_p99_ms <= kGenLagLimitMs &&
           static_cast<double>(pr.backlog_at_last_send) <=
               std::max(16.0, rate * kLimitP99Ms / 1e3);
  };
  // The rate search runs untraced only: a traced daemon would record
  // spans for every request of every step.
  double max_rps = 0.0;
  if (!opt.trace) {
    double lo = meets_limits(ls, loaded, kLoadedRate) ? kLoadedRate : kRefRate;
    double hi = kLoadedRate * kSearchSpan;
    for (int step = 0; step < kSearchSteps; ++step) {
      const double rate = std::sqrt(lo * hi);
      const std::vector<Planned> plan =
          predict_plan(seed_for(opt.seed, 20 + step), rate, step_s);
      const PhaseResult pr = run_predicts(gen, s, plan);
      const Stats st = summarize(pr, plan, -1);
      wrong += st.wrong;
      const bool ok = meets_limits(st, pr, rate);
      std::ostringstream note;
      note << "rate search step " << step + 1 << ": " << rate
           << " req/s, p99 " << st.pct(99.0) << " ms, failed " << st.failed
           << "/" << st.attempted << ", generator lag p99 " << st.lag_p99_ms
           << " ms, backlog " << pr.backlog_at_last_send
           << (ok ? " -> meets the limit" : " -> misses the limit");
      res.notes.push_back(note.str());
      (ok ? lo : hi) = rate;
    }
    max_rps = lo;
  }

  std::vector<SpanRecord> spans;
  bool trained_ok = true;
  if (opt.trace) spans = traced_probes(opt, s, gen, rep, trained_ok);
  const DaemonEnd end = close_session(s);

  rep.set("setup_s", percentile(s.setup_s, 50.0), "s");
  rep.set("p50_ms", rs.pct(50.0), "ms");
  rep.set("tail_ms", rs.pct(99.0), "ms");
  rep.set("heavy_p50_ms", ls.pct(50.0), "ms");
  rep.set("cpu_ms_per_op",
          ns_to_ms(cpu1 - cpu0) /
              static_cast<double>(std::max<std::size_t>(
                  1, rs.answered + ls.answered)),
          "ms");
  rep.set("peak_rss_mb", peak_rss_mib, "MiB");
  rep.set("predict_p50_ms", rs.pct(50.0), "ms");
  rep.set("predict_p99_ms", rs.pct(99.0), "ms");
  rep.set("predict_samples", static_cast<double>(rs.attempted), "count");
  if (!opt.trace) rep.set("predict_max_rps", max_rps, "req/s");
  rep.set("loaded_predict_p99_ms", ls.pct(99.0), "ms");
  rep.set("fail_pct", share_pct(rs.failed + ls.failed, rs.attempted + ls.attempted),
          "%");
  rep.set("reference_fail_pct", share_pct(rs.failed, rs.attempted), "%");
  rep.set("gen.lag_ms_p99", std::max(rs.lag_p99_ms, ls.lag_p99_ms), "ms");

  res.attempted = rs.attempted + ls.attempted;
  res.failed = rs.failed + ls.failed;
  const bool generator_ok =
      rs.lag_p99_ms <= kGenLagLimitMs && ls.lag_p99_ms <= kGenLagLimitMs;
  if (!generator_ok) {
    res.notes.push_back(
        "INVALID: the generator fell behind its schedule in a fixed-rate "
        "phase");
  }
  if (!percentile_supported(rs.attempted, 99.0)) {
    res.notes.push_back("INVALID: too few reference predicts for a p99");
  }
  if (wrong > 0) res.notes.push_back("MISMATCH: a predict answer was wrong");
  if (!s.warm_ok) res.notes.push_back("MISMATCH: a warm-up train was wrong");
  if (!trained_ok) {
    res.notes.push_back("MISMATCH: Trainer::collect + fit_models disagree");
  }
  res.correct = s.warm_ok && trained_ok && end.clean_exit && wrong == 0 &&
                generator_ok && percentile_supported(rs.attempted, 99.0);
  if (opt.trace) {
    daemon_layers(end, std::move(spans),
                  (rs.answered_mean_ms * static_cast<double>(rs.answered) +
                   ls.answered_mean_ms * static_cast<double>(ls.answered)) /
                      static_cast<double>(
                          std::max<std::size_t>(1, rs.answered + ls.answered)),
                  rep);
  }
  return res;
}

RunResult run_mixed_serve(const BenchOptions& opt) {
  RunResult res;
  Report& rep = res.report;
  // The traced mixed run leaves the daemon's --trace-out off: with a
  // trace on, every simulate replication buffers up to 4096 sim-clock
  // events in the daemon, over a million per run.
  Session s = open_session(opt, kMixedQueue, kSetupRepeats, false);

  // Simulates: every bundled scenario under both schedulers, with
  // 1..kMaxReplications replications.
  struct SimCase {
    std::string text;
    int replications = 1;
    LineTemplate line;
  };
  std::vector<SimCase> cases;
  for (const char* scheduler : {"micro", "macro"}) {
    for (const auto& scenario : bundled_scenarios(opt.root)) {
      const std::string text =
          prepare_scenario(scenario.second, scheduler, opt.root);
      for (int r = 1; r <= kMaxReplications; ++r) {
        cases.push_back(SimCase{text, r, simulate_request(text, r)});
      }
    }
  }
  // Cold trains: fresh seeds, one at kFirstTrainS and every kTrainEveryS.
  std::vector<ModelKey> train_keys;
  std::vector<LineTemplate> trains;
  for (double t = kFirstTrainS; t < opt.seconds - 0.5; t += kTrainEveryS) {
    train_keys.push_back(ModelKey{
        true, kKeyDurationS, s.key_seed + 1 + static_cast<int>(trains.size())});
    trains.push_back(train_request(train_keys.back()));
  }

  const auto span_ns =
      static_cast<std::int64_t>(opt.seconds * static_cast<double>(kNsPerS));
  std::vector<Planned> plan =
      predict_plan(seed_for(opt.seed, 10), kMixedPredictRate, opt.seconds);
  const std::size_t n_sims = std::max(
      kMinSimulates,
      static_cast<std::size_t>(std::llround(kSimulateRate * opt.seconds)));
  const std::vector<std::int64_t> sim_due =
      poisson_schedule(seed_for(opt.seed, 11), n_sims, span_ns);
  // Every combination equally often (to within one), in seeded order.
  const std::vector<std::size_t> order =
      shuffled_indices(seed_for(opt.seed, 12), n_sims);
  for (std::size_t i = 0; i < n_sims; ++i) {
    plan.push_back(Planned{sim_due[i], kSimulate, order[i] % cases.size()});
  }
  for (std::size_t j = 0; j < trains.size(); ++j) {
    plan.push_back(Planned{
        static_cast<std::int64_t>((kFirstTrainS + kTrainEveryS * static_cast<double>(j)) *
                                  static_cast<double>(kNsPerS)),
        kTrain, j});
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Planned& a, const Planned& b) {
                     return a.due_ns < b.due_ns;
                   });

  std::vector<std::string> held(plan.size());
  OpenLoopGenerator gen(kSocket, kConnections);
  const std::int64_t cpu0 = s.daemon->cpu_ns();
  PhaseResult pr = gen.run(
      plan,
      [&](std::size_t i, std::string_view id) {
        const Planned& p = plan[i];
        if (p.kind == kPredict) return s.lines[p.input].with_id(id);
        if (p.kind == kSimulate) return cases[p.input].line.with_id(id);
        return trains[p.input].with_id(id);
      },
      [&](std::size_t i, std::string_view id, std::string_view response) {
        if (plan[i].kind == kPredict) {
          return s.expected[plan[i].input].matches(response, id);
        }
        held[i] = std::string(response);  // checked after the timed phase
        return true;
      },
      kDrainNs);
  const std::int64_t cpu1 = s.daemon->cpu_ns();

  std::vector<SpanRecord> spans;
  bool trained_ok = true;
  if (opt.trace) spans = traced_probes(opt, s, gen, rep, trained_ok);
  const DaemonEnd end = close_session(s);

  // Simulate and train answers against in-process references.
  voprof::util::TaskPool pool(static_cast<std::size_t>(opt.nproc));
  std::vector<char> used(cases.size(), 0);
  for (const Planned& p : plan) {
    if (p.kind == kSimulate) used[p.input] = 1;
  }
  const std::vector<LineTemplate> sim_want =
      pool.parallel_map(cases.size(), [&](std::size_t c) {
        if (used[c] == 0) return LineTemplate{};
        const auto spec = voprof::scenario::ScenarioSpec::parse(cases[c].text);
        return expected_response(serve::simulate_result_json(
            voprof::scenario::run_scenario_replicated(
                spec, static_cast<std::size_t>(cases[c].replications), 1)));
      });
  const std::vector<std::string> train_want =
      pool.parallel_map(train_keys.size(), [&](std::size_t j) {
        model::TrainerConfig config;
        config.duration = voprof::util::seconds(train_keys[j].duration_s);
        config.seed = static_cast<std::uint64_t>(train_keys[j].seed);
        config.jobs = 1;
        return model::models_to_string(
            model::Trainer(config).train(model::RegressionMethod::kLms));
      });
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Outcome& o = pr.outcomes[i];
    if (plan[i].kind == kPredict || !o.ok) continue;
    const std::string id = std::to_string(pr.id_base + i);
    o.correct = plan[i].kind == kSimulate
                    ? sim_want[plan[i].input].matches(held[i], id)
                    : train_models_text(held[i]) == train_want[plan[i].input];
  }

  const Stats ps = summarize(pr, plan, kPredict);
  const Stats ss = summarize(pr, plan, kSimulate);
  const Stats ts = summarize(pr, plan, kTrain);
  const Stats all = summarize(pr, plan, -1);
  rep.set("setup_s", percentile(s.setup_s, 50.0), "s");
  rep.set("p50_ms", ps.pct(50.0), "ms");
  rep.set("tail_ms", ps.pct(99.0), "ms");
  rep.set("heavy_p50_ms", ss.pct(50.0), "ms");
  rep.set("cpu_ms_per_op",
          ns_to_ms(cpu1 - cpu0) /
              static_cast<double>(std::max<std::size_t>(1, all.answered)),
          "ms");
  rep.set("peak_rss_mb", end.peak_rss_mib, "MiB");
  rep.set("predict_p50_ms", ps.pct(50.0), "ms");
  rep.set("predict_p99_ms", ps.pct(99.0), "ms");
  rep.set("predict_samples", static_cast<double>(ps.attempted), "count");
  rep.set("simulate_p50_ms", ss.pct(50.0), "ms");
  rep.set("simulate_p90_ms", ss.pct(90.0), "ms");
  rep.set("simulate_samples", static_cast<double>(ss.attempted), "count");
  // A run has too few trains for a median with ten samples beyond it.
  rep.set("train_mean_ms", ts.mean_ms(), "ms");
  rep.set("train_samples", static_cast<double>(ts.attempted), "count");
  rep.set("fail_pct", share_pct(all.failed, all.attempted), "%");
  rep.set("gen.lag_ms_p99", all.lag_p99_ms, "ms");

  res.attempted = all.attempted;
  res.failed = all.failed;
  const bool generator_ok = all.lag_p99_ms <= kGenLagLimitMs;
  if (!generator_ok) {
    res.notes.push_back("INVALID: the generator fell behind its schedule");
  }
  if (all.wrong > 0) {
    res.notes.push_back("MISMATCH: " + std::to_string(all.wrong) +
                        " answers differ from the in-process references");
  }
  if (!s.warm_ok) res.notes.push_back("MISMATCH: a warm-up train was wrong");
  if (!trained_ok) {
    res.notes.push_back("MISMATCH: Trainer::collect + fit_models disagree");
  }
  res.correct = s.warm_ok && trained_ok && end.clean_exit && all.wrong == 0 &&
                generator_ok && percentile_supported(ps.attempted, 99.0) &&
                ss.attempted >= kMinSimulates;
  if (opt.trace) {
    daemon_layers(end, std::move(spans), all.answered_mean_ms, rep);
  }
  return res;
}

std::vector<SpanRecord> serve_probe(const BenchOptions& opt, Report& out) {
  Session s = open_session(opt, kPredictQueue, 1, true);
  OpenLoopGenerator gen(kSocket, kConnections);
  const std::vector<Planned> plan =
      predict_plan(seed_for(opt.seed, 60), kRefRate, 1.0);
  const PhaseResult pr = run_predicts(gen, s, plan);
  const Stats st = summarize(pr, plan, -1);
  out.set("gen.lag_ms_p99", st.lag_p99_ms, "ms");
  probe_in_process(s.inputs, *s.lms, *s.ols, out);
  probe_transport(kSocket, s.inputs, out);
  out.set("runner.cache_stall_ms_p99", cache_stall_probe(gen, s), "ms");
  const DaemonEnd end = close_session(s);
  serve_counters(end.metrics, end.lifetime_s, kDaemonJobs, out);
  const Metric* handler = out.find("serve.handler_ms_mean");
  const Metric* transport = out.find("serve.transport_us");
  out.set("serve.queue_wait_ms_mean",
          st.answered_mean_ms - (handler != nullptr ? handler->value : 0.0) -
              (transport != nullptr ? transport->value / 1e3 : 0.0),
          "ms");
  return end.spans;
}

}  // namespace perfbench
