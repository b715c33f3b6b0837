#include "voprof/runner/runner.hpp"

#include <string>

#include "voprof/util/assert.hpp"
#include "voprof/util/cli.hpp"

namespace voprof::runner {

RunOptions options_from_cli(int argc, const char* const* argv) {
  const util::CliArgs args = util::CliArgs::parse(argc, argv);
  VOPROF_REQUIRE_MSG(args.command().empty(),
                     "unexpected positional argument: " + args.command());
  RunOptions opts;
  opts.jobs = args.get_int("jobs", 0);
  VOPROF_REQUIRE_MSG(opts.jobs >= 0, "--jobs must be >= 0");
  opts.trace_path = args.get_or("trace", "");
  for (const std::string& name : args.flag_names()) {
    VOPROF_REQUIRE_MSG(
        name == "jobs" || name == "trace",
        "unknown flag --" + name +
            " (runner accepts --jobs N and --trace FILE)");
  }
  // --trace wins over VOPROF_TRACE; either way the collector flushes
  // the Chrome-trace file when the program exits.
  if (!opts.trace_path.empty()) {
    obs::TraceCollector::global().enable(opts.trace_path);
  } else {
    obs::TraceCollector::global().init_from_env();
  }
  return opts;
}

const model::TrainedModels& ModelCache::get(model::RegressionMethod method,
                                            util::SimMicros duration,
                                            std::uint64_t seed, int jobs) {
  const Key key{static_cast<int>(method), duration, seed};
  static obs::Counter& hits =
      obs::Registry::global().counter("runner.model_cache_hits");
  static obs::Counter& misses =
      obs::Registry::global().counter("runner.model_cache_misses");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    hits.add();
  }
  if (it == cache_.end()) {
    misses.add();
    VOPROF_WALL_SPAN("runner", "ModelCache.train");
    model::TrainerConfig cfg;
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.jobs = jobs;
    const model::Trainer trainer(cfg);
    it = cache_
             .emplace(key, std::make_unique<const model::TrainedModels>(
                               trainer.train(method)))
             .first;
    ++trainings_;
  }
  return *it->second;
}

std::size_t ModelCache::trainings() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trainings_;
}

ModelCache& model_cache() {
  static ModelCache cache;
  return cache;
}

}  // namespace voprof::runner
